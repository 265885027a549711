"""Fast self-test of the benchmark's own maths and checks (no relclass run).

    python3 perfbench/selftest.py
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import spans  # noqa: E402
from run import Child, Pass, Runner, e2e_values, percentile  # noqa: E402
from workloads import _box_requests, _dump, _rows_checker  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_known_sample(self):
        sample = [float(x) for x in range(1, 11)]
        self.assertAlmostEqual(percentile(sample, 50), 5.5)
        self.assertAlmostEqual(percentile(sample, 90), 9.1)
        self.assertEqual(percentile([4.0], 90), 4.0)

    def test_sample_counts_and_pooling(self):
        passes = [
            Pass(wall=2.0, cpu=1.5, rss_mb=40.0, items=4, latencies_s=[0.1, 0.2]),
            Pass(wall=4.0, cpu=3.0, rss_mb=50.0, items=4, latencies_s=[0.3, 0.4]),
            Pass(wall=3.0, cpu=2.0, rss_mb=45.0, items=6, latencies_s=[0.5]),
        ]
        values, samples = e2e_values(passes, [0.3, 0.1, 0.2, 0.4])
        self.assertEqual(values["wall_s"], 3.0)
        self.assertEqual(values["cpu_s"], 2.0)
        self.assertEqual(values["peak_rss_mb"], 45.0)
        self.assertEqual(values["items_per_s"], 2.0)  # median of 2, 1, 2
        self.assertAlmostEqual(values["setup_s"], 0.25)
        self.assertAlmostEqual(values["item_p50_ms"], 300.0)  # pooled 0.1..0.5
        self.assertAlmostEqual(values["item_p90_ms"], 460.0)
        self.assertEqual(samples, {
            "setup_s": 4, "wall_s": 3, "cpu_s": 3, "items_per_s": 3,
            "item_p50_ms": 5, "item_p90_ms": 5, "peak_rss_mb": 3,
        })


class SpeedScale(unittest.TestCase):
    def test_scale(self):
        self.assertAlmostEqual(calibrate.scale(calibrate.REF_KERNEL_S / 2), 2.0)
        self.assertIsInstance(calibrate.kernel(), int)

    def test_child_scale_uses_gaps_on_both_sides_and_own_samples(self):
        runner = Runner.__new__(Runner)
        # gap before the child at index 2, gap after it at index 4
        runner.kernel_s, runner.gap_start = [1.0, 1.0, 2.0, 2.0, 4.0, 4.0], 4
        child = Child(0, "", 1.0, 1.0, 1.0, 0.0, 1.0, kernel_from=2)
        runner.add_child_samples(child, [3.0, 3.0, 3.0])
        self.assertEqual(runner.kernel_s, [1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 3.0, 4.0, 4.0])
        self.assertEqual(runner.gap_start, 7)
        self.assertAlmostEqual(child.scale, calibrate.REF_KERNEL_S / 3.0)


class SelfTimes(unittest.TestCase):
    # A [0,10] holds B [1,4], which holds B [2,3] (recursion), and the
    # overlapping siblings C [5,6] and C' [5.5,7]; D [10.5,11] is a second root.
    PARENT = [-1, 0, 1, 0, 0, -1]
    START = [0.0, 1.0, 2.0, 5.0, 5.5, 10.5]
    END = [10.0, 4.0, 3.0, 6.0, 7.0, 11.0]

    def test_nesting_recursion_and_overlap(self):
        got = spans.self_times(self.PARENT, self.START, self.END)
        # A loses the union [1,4] u [5,7] = 5; outer B loses the inner B
        self.assertEqual(got, [5.0, 2.0, 1.0, 1.0, 1.5, 0.5])

    def test_children_are_clipped_to_parent(self):
        got = spans.self_times([-1, 0], [0.0, 1.0], [2.0, 5.0])
        self.assertEqual(got, [1.0, 4.0])

    def test_unspanned_and_balance(self):
        # with properly nested spans (C' moved to [6,7]) self times add up to
        # the top-level spans, and with the gaps to the whole interval
        start = self.START[:4] + [6.0] + self.START[5:]
        gap = spans.unspanned(self.PARENT, start, self.END, -1.0, 12.0)
        self.assertEqual(gap, 1.0 + 0.5 + 1.0)
        selfs = spans.self_times(self.PARENT, start, self.END)
        self.assertEqual(sum(selfs) + gap, 13.0)

    def test_recorder_round_trip(self):
        rec = spans.Recorder()

        def fact(n):
            return 1 if n <= 1 else n * fact_traced(n - 1)

        fact_traced = rec.wrap("t.fact", fact)
        self.assertEqual(fact_traced(5), 120)
        with tempfile.TemporaryDirectory() as tmp:
            out = str(Path(tmp) / "spans.json")
            rec.dump(out)
            loaded = spans.load(out)
        self.assertEqual(list(loaded["parent"]), [-1, 0, 1, 2, 3])
        t0, t1 = loaded["start"][0] - 1e-3, loaded["end"][0] + 1e-3
        s = spans.summarize(loaded, t0, t1)
        self.assertEqual(s["calls"], {"t.fact": 5})
        self.assertTrue(s["balanced"])
        self.assertAlmostEqual(s["unspanned_s"], 2e-3)


class References(unittest.TestCase):
    LABELS = ["Q(sqrt(-5))", "Q(sqrt(-23))"]
    REF = {
        "summary": {"checks": "regression", "entries": 2, "violations": 0},
        "rows": {
            "Q(sqrt(-5))": {"entry": "Q(sqrt(-5))", "h_K": 2, "status": "ok"},
            "Q(sqrt(-23))": {"entry": "Q(sqrt(-23))", "h_K": 3, "status": "ok"},
        },
    }

    def report(self):
        rows = [dict(self.REF["rows"][label], line=i + 1) for i, label in enumerate(self.LABELS)]
        return _dump({"summary": self.REF["summary"], "rows": rows})

    def test_reference_passes(self):
        check = _rows_checker("verify", self.LABELS, self.REF)
        self.assertEqual(check(0, self.report()), 0)
        self.assertEqual(check(1, self.report()), 2)

    def test_single_changed_byte_fails(self):
        check = _rows_checker("verify", self.LABELS, self.REF)
        good = self.report()
        value = good.replace('"h_K": 3', '"h_K": 4')
        self.assertEqual(check(0, value), 1)
        layout = good.replace('"h_K": 3', '"h_K":  3')
        self.assertEqual(check(0, layout), 2)
        for i in range(len(good)):
            if good[i].isalnum():
                bad = good[:i] + chr(ord(good[i]) ^ 1) + good[i + 1:]
                self.assertGreater(check(0, bad), 0, bad)

    def test_box_counts(self):
        pool = [
            {"m": m, "id": 100 * j + i, "num": [[i + 1]] if m is None else [[i + 1, 0], [0, 1]], "den": 1,
             "x0": ["1/2"] * (1 if m is None else 2), "c": ["3"] * (1 if m is None else 2)}
            for j, m in enumerate((None, 2, 3, 5, 13))
            for i in range(60)
        ]
        refs = {"pool": pool, "counts": [b["id"] for b in pool]}
        with tempfile.TemporaryDirectory() as tmp:
            (req,) = _box_requests(1, 0, Path(tmp), refs)
            boxes = json.loads(Path(req.args[0]).read_text())
        self.assertEqual(req.items, len(boxes))
        for m in (None, 2, 3, 5, 13):
            # scan size falls as i grows: one box from each run of three
            strata = sorted((59 - b["id"] % 100) // 3 for b in boxes if b["m"] == m)
            self.assertEqual(strata, list(range(20)))
        lines = [json.dumps({"count": b["id"], "ok": True}, sort_keys=True) for b in boxes]
        self.assertEqual(req.check(0, "\n".join(lines) + "\n"), 0)
        lines[3] = lines[3].replace('"ok": true', '"ok": false')
        lines[7] = json.dumps({"count": boxes[7]["id"] + 1, "ok": True}, sort_keys=True)
        lines[9] = lines[9][:-1]
        self.assertEqual(req.check(0, "\n".join(lines) + "\n"), 3)


if __name__ == "__main__":
    unittest.main()
