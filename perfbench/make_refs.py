"""Record the reference outputs in perfbench/refs from the code in this
checkout.  Run it only on a commit whose outputs are the ones every later
commit must reproduce byte for byte:

    python3 perfbench/make_refs.py [verify|bound|boxes|classify ...]

It prints how long each item took, which is how the slices and strata in
workloads.py were sized.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from run import WORK, Runner, request_argv  # noqa: E402
from workloads import (  # noqa: E402
    BOUND_ARGS,
    BOUND_HALVES,
    REFS,
    VERIFY_HALVES,
    WORKLOADS,
    Request,
    box_pool,
    classify_args,
    classify_fields,
    corpus_rows,
    row_label,
)


def _write(name: str, data) -> None:
    REFS.mkdir(exist_ok=True)
    (REFS / f"{name}.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def _run(runner: Runner, req: Request):
    child = runner.spawn(request_argv(req))
    print(f"{child.wall:8.3f}s rc={child.rc} {req.label}", flush=True)
    return child


def corpus_refs(runner: Runner, workload: str, halves) -> dict:
    out = {}
    for name, sl in halves:
        rows = corpus_rows(name)[sl]
        path = runner.work / f"{name}.txt"
        path.write_text("\n".join(rows) + "\n")
        args = [workload, "--corpus", str(path)] + (BOUND_ARGS[name] if workload == "bound" else [])
        child = _run(runner, Request("cli", args, len(rows), None, label=f"{workload} {name}"))
        if child.rc != 0:
            raise SystemExit(f"{workload} {name} exited {child.rc}")
        data = json.loads(child.stdout)
        report_rows = data["rows"] if workload == "verify" else data
        ref = {"rows": {}}
        for line, row in zip(rows, report_rows):
            assert row["entry"] == row_label(line), (row["entry"], line)
            ref["rows"][row["entry"]] = {k: v for k, v in row.items() if k != "line"}
        if workload == "verify":
            ref["summary"] = data["summary"]
        out[name] = ref
    return out


def boxes_refs(runner: Runner) -> dict:
    pool = box_pool()
    path = runner.work / "pool.json"
    path.write_text(json.dumps(pool))
    timings = runner.work / "pool.times"
    child = _run(runner, Request("boxes", [str(path), str(timings)], len(pool), None, label="boxes pool"))
    results = [json.loads(line) for line in child.stdout.splitlines()]
    if child.rc != 0 or len(results) != len(pool) or not all(r["ok"] for r in results):
        raise SystemExit("box pool: driver failed or a box is not ok")
    times = json.loads(timings.read_text())["box_s"]
    for m in sorted({b["m"] for b in pool}, key=str):
        t = sorted(x for b, x in zip(pool, times) if b["m"] == m)
        print(f"  m={m}: median {1000 * t[len(t) // 2]:.2f} ms, max {1000 * t[-1]:.2f} ms")
    return {"pool": pool, "counts": [r["count"] for r in results]}


def classify_refs(runner: Runner) -> dict:
    out = {}
    for line in classify_fields():
        req = Request("cli", classify_args(line), 1, None, label=line)
        child = _run(runner, req)
        out[row_label(line)] = {"rc": child.rc, "stdout": child.stdout}
    return out


def main(argv: list[str]) -> int:
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        runner = Runner(Path(tmp), time.perf_counter() + 3600)
        for workload in argv or WORKLOADS:
            if workload == "verify":
                _write("verify", corpus_refs(runner, "verify", VERIFY_HALVES))
            elif workload == "bound":
                _write("bound", corpus_refs(runner, "bound", BOUND_HALVES))
            elif workload == "boxes":
                _write("boxes", boxes_refs(runner))
            elif workload == "classify":
                _write("classify", classify_refs(runner))
            else:
                raise SystemExit(f"unknown workload {workload!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
