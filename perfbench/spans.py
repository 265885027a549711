"""Per-layer tracing from outside the program, and the self-time maths.

In a child process, ``install`` replaces each function of ``TARGETS`` in
every relclass module (and the box driver) that binds it, and each method on
its class, by a wrapper that records a span (name, parent span, start, end)
in memory.  The spans are written out when the child ends; the benchmark
turns them into call counts and self times with ``self_times``.

    python perfbench/spans.py OUT cli ARGS...     # relclass.cli.main(ARGS)
    python perfbench/spans.py OUT boxes ARGS...   # boxdriver.main(ARGS)

Stdout and the exit code are the wrapped program's own.  OUT receives a JSON
header and OUT.bin the span table.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from array import array

# layer (relclass module) -> public functions and methods whose spans are kept
TARGETS = {
    "field": ["make_field", "factor_prime", "FIdeal.principal_gen"],
    "cm": [
        "make_cm",
        "CMField.primes_above",
        "CMField.class_data",
        "KIdeal.principal_gen",
        "KIdeal.small_class_rep",
        "class_counts",
    ],
    "imagquad": ["class_group_counts"],
    "lattice": ["lll_reduce_gram", "short_vectors"],
    "intmat": ["hnf_lattice"],
    "forms": ["classify", "ideal_to_form", "form_to_ideal", "weakly_equivalent", "lower_bound_t"],
    "dseries": ["vsum_check", "measure_compare", "zeta_coeffs_cm"],
    "hecke": ["gz_table", "twist_table", "base_change_table", "epsilon_numeric"],
    "bounds": [
        "bound_params",
        "make_bundle",
        "final_C",
        "final_bound",
        "norm_count_check_K",
        "norm_count_check_F",
        "count_box",
        "box_bound_check",
    ],
}

# span -> (counter, pre(args), post(args, result, pre) -> increment)
COUNTERS = {
    "field.FIdeal.principal_gen": ("found", None, lambda a, r, p: r is not None),
    "cm.KIdeal.principal_gen": ("found", None, lambda a, r, p: r is not None),
    # a call that finds no cached class data computes it
    "cm.CMField.class_data": ("computed", lambda a: a[0]._class_data is None, lambda a, r, p: p),
    "lattice.short_vectors": ("vectors_out", None, lambda a, r, p: len(r)),
    "forms.weakly_equivalent": ("true", None, lambda a, r, p: bool(r)),
    "bounds.count_box": ("points_out", None, lambda a, r, p: r),
}


def span_names() -> list[str]:
    return [f"{layer}.{qual}" for layer, quals in TARGETS.items() for qual in quals]


class Recorder:
    """Spans kept in flat arrays: 26 bytes a span, so millions fit."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, dict[str, int]] = {}

    def wrap(self, span: str, fn):
        idx = len(self.names)
        self.names.append(span)
        names, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack
        perf = time.perf_counter
        counter, pre, post = COUNTERS.get(span, (None, None, None))
        totals = self.counters.setdefault(span, {counter: 0} if counter else {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = pre(args) if pre else None
            sid = len(start)
            names.append(idx)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf()
                stack.pop()
            if post:
                totals[counter] += post(args, result, before)
            return result

        return traced

    def dump(self, out: str):
        header = {"names": self.names, "counters": self.counters, "n": len(self.start)}
        with open(out, "w") as fh:
            json.dump(header, fh)
        with open(out + ".bin", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def install(rec: Recorder) -> None:
    """Wrap every target wherever it is bound: its class for methods, and for
    functions every loaded relclass module (``cm`` binds its own
    ``lll_reduce_gram``) and the box driver."""
    for layer in TARGETS:
        importlib.import_module(f"relclass.{layer}")
    importlib.import_module("relclass.cli")
    modules = [
        m
        for name, m in list(sys.modules.items())
        if name.startswith("relclass") or name == "boxdriver"
    ]
    for layer, quals in TARGETS.items():
        home = sys.modules[f"relclass.{layer}"]
        for qual in quals:
            span = f"{layer}.{qual}"
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, rec.wrap(span, cls.__dict__[meth]))
                continue
            orig = getattr(home, qual)
            wrapped = rec.wrap(span, orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)


def load(out: str) -> dict:
    """Read a span file written by ``Recorder.dump``."""
    with open(out) as fh:
        header = json.load(fh)
    n = header["n"]
    arrays = {}
    with open(out + ".bin", "rb") as fh:
        for key, code in (("name", "H"), ("parent", "q"), ("start", "d"), ("end", "d")):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays[key] = arr
    header.update(arrays)
    return header


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the length of the union of its direct
    children's intervals, each clipped to the span."""
    n = len(start)
    covered = [0.0] * n
    run_lo = [None] * n
    run_hi = [0.0] * n
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo, hi = max(start[i], start[p]), min(end[i], end[p])
        if hi <= lo:
            continue
        if run_lo[p] is None:
            run_lo[p], run_hi[p] = lo, hi
        elif lo > run_hi[p]:
            covered[p] += run_hi[p] - run_lo[p]
            run_lo[p], run_hi[p] = lo, hi
        elif hi > run_hi[p]:
            run_hi[p] = hi
    for p in range(n):
        if run_lo[p] is not None:
            covered[p] += run_hi[p] - run_lo[p]
    return [end[i] - start[i] - covered[i] for i in range(n)]


def unspanned(parent, start, end, t0: float, t1: float) -> float:
    """Time in [t0, t1] outside every top-level span."""
    roots = sorted((start[i], end[i]) for i in range(len(start)) if parent[i] < 0)
    gap, cur = 0.0, t0
    for lo, hi in roots:
        if lo > cur:
            gap += lo - cur
        cur = max(cur, hi)
    return gap + max(0.0, t1 - cur)


def summarize(spans: dict, t0: float, t1: float) -> dict:
    """Per-span calls, self time and counters of one traced process spawned
    at t0 and reaped at t1, and the check that self times plus unspanned
    time add up to t1 - t0 within the clock's rounding."""
    selfs = self_times(spans["parent"], spans["start"], spans["end"])
    names = spans["names"]
    calls = {name: 0 for name in names}
    self_s = {name: [] for name in names}
    for idx, s in zip(spans["name"], selfs):
        calls[names[idx]] += 1
        self_s[names[idx]].append(s)
    gap = unspanned(spans["parent"], spans["start"], spans["end"], t0, t1)
    total = math.fsum(selfs) + gap
    tolerance = (len(selfs) + 2) * 4 * math.ulp(t1) + time.get_clock_info("perf_counter").resolution
    return {
        "calls": calls,
        "self_s": {name: math.fsum(v) for name, v in self_s.items()},
        "counters": spans["counters"],
        "unspanned_s": gap,
        "balanced": abs(total - (t1 - t0)) <= tolerance,
    }


def main(argv: list[str]) -> int:
    out, target, *args = argv
    if target == "cli":
        from relclass import cli

        def run():
            return cli.main(args)

    elif target == "boxes":
        import boxdriver

        def run():
            return boxdriver.main(args)

    else:
        raise SystemExit(f"unknown target {target!r}")
    rec = Recorder()
    install(rec)
    try:
        return run()
    finally:
        sys.stdout.flush()
        rec.dump(out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
