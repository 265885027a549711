"""Run relclass.bounds.box_bound_check on a list of boxes, one at a time.

    python perfbench/boxdriver.py BOXES.json TIMINGS

Prints one JSON line {"count", "ok"} per box on stdout, in input order, and
writes to TIMINGS a JSON object: ``box_s``, each call's duration in seconds;
``kernel_s``, the times of the calibration kernel (perfbench/calibrate.py)
run before every KERNEL_EVERY-th box, untimed by the box calls, so that the
host speed is sampled all through the process; and ``kernel_wall_s`` and
``kernel_cpu_s``, the wall and CPU time those kernel runs took.  Boxes are
dicts {"m", "num", "den", "x0", "c"}: the base field's radicand (null for Q),
the ideal as a scaled HNF, and the box centre and half-widths as fractions.
"""

import json
import sys
import time
from fractions import Fraction

import calibrate
from relclass import bounds as bnd
from relclass.field import FIdeal, make_field

KERNEL_EVERY = 2


def main(argv: list[str]) -> int:
    box_path, timings_path = argv
    boxes = json.loads(open(box_path).read())
    lattice = {}
    out, times, kernel = [], [], []
    kernel_cpu = 0.0
    for i, box in enumerate(boxes):
        if i % KERNEL_EVERY == 0:
            c = time.process_time()
            kernel.append(calibrate.kernel_time())
            kernel_cpu += time.process_time() - c
        F = make_field(1) if box["m"] is None else make_field(2, box["m"])
        if F not in lattice:
            lattice[F] = bnd.lattice_constants(F)
        idl = FIdeal(F, box["num"], box["den"])
        x0 = tuple(Fraction(v) for v in box["x0"])
        c = tuple(Fraction(v) for v in box["c"])
        t = time.perf_counter()
        rep = bnd.box_bound_check(F, lattice[F], idl, x0, c)
        times.append(time.perf_counter() - t)
        out.append(json.dumps({"count": rep["count"], "ok": rep["ok"]}, sort_keys=True))
    sys.stdout.write("".join(line + "\n" for line in out))
    timings = {"box_s": times, "kernel_s": kernel, "kernel_wall_s": sum(kernel), "kernel_cpu_s": kernel_cpu}
    with open(timings_path, "w") as fh:
        json.dump(timings, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
