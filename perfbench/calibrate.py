"""The host's speed, measured with a fixed pure-Python kernel.

On a shared VM the same relclass pass can take 1.7 times as long a few
minutes later, with CPU time moving with wall time: the host itself runs
slower.  The benchmark therefore times this kernel in the gap after every
child process (and the box driver between boxes), and scales each child's
times by

    REF_KERNEL_S / median(kernel times from the gap before the child
                          through the gap after it)

so that they read as seconds at the reference speed, the speed at which the
kernel takes REF_KERNEL_S.  The kernel uses no relclass code, so a change of
the program moves the scaled times exactly as it moves the raw ones.  It does
what relclass does most, Fraction and small-int arithmetic, dicts and sorts.

    python3 perfbench/calibrate.py    # prints kernel time and scale factor
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# The kernel's median time on a 2-vCPU Intel Xeon VM (Python 3.11) at its
# usual speed; any fixed value would do, this one keeps scaled times close
# to the seconds that host usually shows.
REF_KERNEL_S = 0.0105


def kernel() -> int:
    s = Fraction(0)
    seen = {}
    for i in range(1, 900):
        s = Fraction(s.numerator % 1000003, s.denominator % 999983 or 1) + Fraction(i, i + 3)
        seen[i % 97] = s
    order = sorted(range(30000), key=lambda x: (x * 7919) % 10007)
    return order[0] + len(seen)


def kernel_time() -> float:
    """One run of the kernel, in seconds."""
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t


def scale(kernel_s: float) -> float:
    """Factor that turns seconds measured while the kernel took ``kernel_s``
    into seconds at the reference speed."""
    return REF_KERNEL_S / kernel_s


if __name__ == "__main__":
    kernel()
    k = statistics.median(kernel_time() for _ in range(40))
    print(f"kernel {k:.6f} s  scale {scale(k):.4f}")
