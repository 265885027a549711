"""relclass benchmark: end-to-end runs of one workload, or one traced run.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 28 --trace 0

Run from the root of a relclass checkout.  The load is a closed loop with one
client: passes run one after another, each request of a pass in a fresh
process, until the next pass would end after ``--seconds`` (at least
MIN_PASSES passes).  Every output is checked against ``perfbench/refs``.
Times are scaled to the reference speed of perfbench/calibrate.py, with the
host speed measured in the gaps before and after each child process (and,
in the box driver, between boxes); the raw times are kept in the record.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs the first pass untraced and then traced (perfbench/spans.py) and
reports the per-layer metrics.  A table of every metric with its unit and
sample count goes to stdout, then, as the last line, one JSON object
{"correct", "attempted", "failed", "metrics"}.  The full record, with the
machine and load-average noise record, goes to
.perfbench-work/results/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import spans  # noqa: E402
from workloads import BENCH, LATENCY, ROOT, WORKLOADS, load_refs, pass_requests, setup_files  # noqa: E402

MIN_PASSES = 3
SETUP_PROBES_PER_PASS = 2
KERNEL_PER_GAP = 6  # calibration kernel runs after each child (2 for the box driver, which runs its own)
RUN_DEADLINE_S = 170  # every child is killed past this point of the run
STOP_STARTING_S = 110  # no new pass starts after this
WORK = ROOT / ".perfbench-work"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Child:
    rc: int
    stdout: str
    wall: float
    cpu: float
    rss_mb: float
    t0: float
    t1: float
    kernel_from: int  # index in Runner.kernel_s of the gap before the child
    scale: float = 1.0  # raw seconds -> seconds at the reference speed


@dataclass
class Pass:
    wall: float = 0.0  # at the reference speed, as are cpu and latencies_s
    cpu: float = 0.0
    raw_wall: float = 0.0
    raw_cpu: float = 0.0
    rss_mb: float = 0.0
    items: int = 0
    failed: int = 0
    latencies_s: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    children: list = field(default_factory=list)
    load_before: tuple = ()
    load_after: tuple = ()


class Runner:
    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.n = 0
        self.kernel_s: list[float] = []  # every calibration kernel time, in order
        self.gap_start = 0  # index in kernel_s of the latest gap's first sample
        calibrate.kernel()  # warm-up
        self.calibrate(KERNEL_PER_GAP)

    def calibrate(self, repeats: int) -> None:
        """Time the calibration kernel ``repeats`` times, in a gap between
        children."""
        self.gap_start = len(self.kernel_s)
        self.kernel_s += [calibrate.kernel_time() for _ in range(repeats)]

    def add_child_samples(self, child: Child, samples: list[float]) -> None:
        """Kernel times a child took itself: they go before the gap after it,
        and its scale is taken again."""
        self.kernel_s[self.gap_start : self.gap_start] = samples
        self.gap_start += len(samples)
        child.scale = calibrate.scale(statistics.median(self.kernel_s[child.kernel_from :]))

    def spawn(self, argv: list[str], repeats: int = 1) -> Child:
        """Run one child to its end, then time the calibration kernel
        ``repeats`` times; wall time from spawn to reaping, CPU time and peak
        RSS from its rusage, and its scale from the kernel times of the gaps
        before and after it."""
        self.n += 1
        kernel_from = self.gap_start
        out_path = self.work / f"child-{self.n}.out"
        with open(out_path, "w") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], stdout=out, stderr=subprocess.DEVNULL, env=self.env, cwd=ROOT
            )
            watchdog = threading.Timer(max(0.0, self.deadline - t0), proc.kill)
            watchdog.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                t1 = time.perf_counter()
                watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.calibrate(repeats)
        return Child(
            proc.returncode,
            out_path.read_text(),
            t1 - t0,
            ru.ru_utime + ru.ru_stime,
            ru.ru_maxrss / 1024.0,
            t0,
            t1,
            kernel_from,
            calibrate.scale(statistics.median(self.kernel_s[kernel_from:])),
        )


def request_argv(req, traced_out: Path | None = None) -> list[str]:
    if traced_out is not None:
        return [str(BENCH / "spans.py"), str(traced_out), req.target, *req.args]
    if req.target == "cli":
        return ["-m", "relclass.cli", *req.args]
    return [str(BENCH / "boxdriver.py"), *req.args]


def kernel_repeats(workload: str) -> int:
    """Kernel runs per gap; a child's scale rests on the gaps on both sides
    of it, and the box driver samples the speed itself as well."""
    return 2 if LATENCY[workload] == "timings" else KERNEL_PER_GAP


def run_pass(runner: Runner, workload: str, requests, traced_dir: Path | None = None) -> Pass:
    repeats = kernel_repeats(workload)
    p = Pass(load_before=os.getloadavg())
    for i, req in enumerate(requests):
        traced_out = traced_dir / f"spans-{i}.json" if traced_dir else None
        child = runner.spawn(request_argv(req, traced_out), repeats)
        p.children.append(child)
        p.reports.append(child.stdout)
        wall, cpu, latencies = child.wall, child.cpu, []
        p.rss_mb = max(p.rss_mb, child.rss_mb)
        p.items += req.items
        p.failed += req.check(child.rc, child.stdout)
        if LATENCY[workload] == "timings" and child.rc == 0:
            # the driver samples the host speed between boxes; that time is
            # the benchmark's, not the program's
            timings = json.loads(req.timings.read_text())
            latencies = timings["box_s"]
            runner.add_child_samples(child, timings["kernel_s"])
            wall -= timings["kernel_wall_s"]
            cpu -= timings["kernel_cpu_s"]
        elif LATENCY[workload] == "request":
            latencies = [wall]
        p.raw_wall += wall
        p.raw_cpu += cpu
        p.wall += wall * child.scale
        p.cpu += cpu * child.scale
        p.latencies_s += [x * child.scale for x in latencies]
    if LATENCY[workload] == "pass":
        p.latencies_s.append(p.wall)
    p.load_after = os.getloadavg()
    return p


def percentile(samples: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99), interpolated between order
    statistics (statistics.quantiles, inclusive method)."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def setup_probe(runner: Runner, files: list[str], repeats: int) -> Child:
    child = runner.spawn([str(BENCH / "setup_probe.py"), *files], repeats)
    expected = str(ROOT / "src" / "relclass" / "cli.py")
    if child.rc != 0 or child.stdout.strip() != expected:
        raise SystemExit(f"set-up probe failed or imported relclass from elsewhere: {child.stdout!r}")
    return child


def end_to_end(runner: Runner, args, refs: dict, record: dict) -> tuple[dict, int, int]:
    t_run = time.perf_counter()
    passes: list[Pass] = []
    probes: list[Child] = []
    longest = 0.0  # the longest pass with its probes and calibration gaps
    k = 0
    while True:
        t_pass = time.perf_counter()
        reqs = pass_requests(args.workload, args.seed, k, runner.work, refs)
        files = setup_files(args.workload, k, runner.work, reqs)
        repeats = kernel_repeats(args.workload)
        probes += [setup_probe(runner, files, repeats) for _ in range(SETUP_PROBES_PER_PASS)]
        passes.append(run_pass(runner, args.workload, reqs))
        k += 1
        elapsed = time.perf_counter() - t_run
        longest = max(longest, time.perf_counter() - t_pass)
        if elapsed > STOP_STARTING_S or (k >= MIN_PASSES and elapsed + longest > args.seconds):
            break
    values, samples = e2e_values(passes, [c.wall * c.scale for c in probes])
    record["passes"] = [
        {
            "wall_s": p.wall,
            "cpu_s": p.cpu,
            "raw_wall_s": p.raw_wall,
            "raw_cpu_s": p.raw_cpu,
            "scales": [c.scale for c in p.children],
            "latencies_s": p.latencies_s,
            "peak_rss_mb": p.rss_mb,
            "items": p.items,
            "failed": p.failed,
            "load_before": p.load_before,
            "load_after": p.load_after,
        }
        for p in passes
    ]
    record["setup_probes_s"] = [c.wall * c.scale for c in probes]
    record["raw_setup_probes_s"] = [c.wall for c in probes]
    record["raw_medians"] = {
        "setup_s": statistics.median(c.wall for c in probes),
        "wall_s": statistics.median(p.raw_wall for p in passes),
        "cpu_s": statistics.median(p.raw_cpu for p in passes),
    }
    record["kernel_s"] = runner.kernel_s
    record["samples"] = samples
    metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    attempted = sum(p.items for p in passes)
    failed = sum(p.failed for p in passes)
    return metrics, attempted, failed


def e2e_values(passes: list[Pass], probes: list[float]) -> tuple[dict, dict]:
    """End-to-end metric values of a run and the sample count behind each;
    passes and set-up times are at the reference speed."""
    latencies = [x for p in passes for x in p.latencies_s]
    values = {
        "setup_s": statistics.median(probes),
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "items_per_s": statistics.median(p.items / p.wall for p in passes),
        "item_p50_ms": 1000 * percentile(latencies, 50),
        "item_p90_ms": 1000 * percentile(latencies, 90),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
    }
    samples = {
        "setup_s": len(probes),
        "item_p50_ms": len(latencies),
        "item_p90_ms": len(latencies),
    }
    return values, {name: samples.get(name, len(passes)) for name in values}


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(metric, unit, better) for every per-layer metric."""
    out = []
    for span in spans.span_names():
        out.append((f"{span}.calls", "count", "higher" if span == "imagquad.class_group_counts" else "lower"))
        out.append((f"{span}.self_s", "s", "lower"))
        counter = spans.COUNTERS.get(span, (None,))[0]
        if counter in ("found", "true"):
            out.append((f"{span}.{counter}_ratio", "ratio", "higher"))
        elif counter:
            out.append((f"{span}.{counter}", "count", "lower"))
    out.append(("unspanned_s", "s", "lower"))
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out


def per_layer(runner: Runner, args, refs: dict, record: dict) -> tuple[dict, int, int, bool]:
    reqs = pass_requests(args.workload, args.seed, 0, runner.work, refs)
    plain = run_pass(runner, args.workload, reqs)
    traced_dir = runner.work / "spans"
    traced_dir.mkdir()
    traced = run_pass(runner, args.workload, reqs, traced_dir)
    calls = dict.fromkeys(spans.span_names(), 0)
    self_s = dict.fromkeys(spans.span_names(), 0.0)
    counters = {span: {counter: 0} for span, (counter, _, _) in spans.COUNTERS.items()}
    gap = 0.0
    balanced = True
    for i, child in enumerate(traced.children):
        s = spans.summarize(spans.load(str(traced_dir / f"spans-{i}.json")), child.t0, child.t1)
        balanced &= s["balanced"]
        gap += s["unspanned_s"]
        for name, n in s["calls"].items():
            calls[name] += n
            self_s[name] += s["self_s"][name]
        for name, counts in s["counters"].items():
            for key, v in counts.items():
                counters[name][key] += v
    values = {}
    for span in spans.span_names():
        values[f"{span}.calls"] = calls[span]
        values[f"{span}.self_s"] = self_s[span]
        for key, v in counters.get(span, {}).items():
            if key in ("found", "true"):
                values[f"{span}.{key}_ratio"] = v / calls[span] if calls[span] else 0.0
            else:
                values[f"{span}.{key}"] = v
    values["unspanned_s"] = gap
    values["trace.overhead_ratio"] = traced.wall / plain.wall
    identical = plain.reports == traced.reports
    record["transparency"] = {
        "reports_identical": identical,
        "self_plus_unspanned_equals_wall": balanced,
        "traced_wall_s": traced.wall,
        "untraced_wall_s": plain.wall,
        "raw_traced_wall_s": traced.raw_wall,
        "raw_untraced_wall_s": plain.raw_wall,
        "traced_scales": [c.scale for c in traced.children],
        "untraced_scales": [c.scale for c in plain.children],
    }
    units = {name: unit for name, unit, _ in per_layer_specs()}
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    attempted = plain.items + traced.items
    failed = plain.failed + traced.failed
    return metrics, attempted, failed, identical and balanced


def machine_info() -> dict:
    model = ""
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def checkout_ok() -> bool:
    needed = [ROOT / "src" / "relclass" / "cli.py", ROOT / "corpus" / "q50.txt", ROOT / "corpus" / "quartic80.txt"]
    needed += [BENCH / "refs" / f"{w}.json" for w in WORKLOADS]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        sys.stderr.write("not a relclass checkout; missing: " + ", ".join(missing) + "\n")
    return not missing


def print_table(metrics: dict, record: dict, attempted: int, failed: int) -> None:
    samples, raw = record.get("samples", {}), record.get("raw_medians", {})
    for name, m in metrics.items():
        n = samples.get(name)
        tail = f"  (n={n})" if n else ""
        tail += f"  raw {raw[name]:.6g} s" if name in raw else ""
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}{tail}")
    print(f"{'failed_ratio':48s} {failed / attempted:>16.6g} ratio  ({failed} of {attempted} items)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not checkout_ok():
        return 2
    refs = load_refs(args.workload)
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "load_before": os.getloadavg(),
    }
    runner = Runner(work, time.perf_counter() + RUN_DEADLINE_S)
    try:
        if args.trace:
            metrics, attempted, failed, transparent = per_layer(runner, args, refs, record)
        else:
            metrics, attempted, failed = end_to_end(runner, args, refs, record)
            transparent = True
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["load_after"] = os.getloadavg()
    correct = failed == 0 and transparent
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record["result"] = result
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print_table(metrics, record, attempted, failed)
    print(f"machine: {record['machine']}  load {record['load_before']} -> {record['load_after']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
