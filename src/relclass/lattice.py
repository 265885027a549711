"""Exact LLL reduction and short-vector enumeration on integer Gram matrices.

A Gram matrix G with rational entries travels as the pair (D, D*G): a
positive integer D and the integer matrix D*G.  Ideals build that pair from
their integer rows through the ring's integer trace form, over the square of
their denominator (field.LatticeIdeal.gram), so the reduction and the
enumeration run on integers from end to end.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import NamedTuple


class LLLData(NamedTuple):
    """An LLL-reduced basis of the lattice with Gram matrix G = DG / D.

    Row i of U expresses the i-th reduced vector in the original basis; d
    and lam are the fraction-free LDL^T data of the reduced Gram matrix
    D * (U G U^T): d[0] = 1, d[k] its k-th leading minor,
    lam[k][j] = d[j+1] * mu[k][j] (Cohen, GTM 138, 2.6.7)."""

    D: int
    DG: list[list[int]]
    U: list[list[int]]
    d: list[int]
    lam: list[list[int]]



def _gram_schmidt_row(d: list[int], lam: list[list[int]], k: int, dots: list[int]):
    """Fill lam[k][:k] and d[k+1] from dots[j] = <b_k, b_j> (j <= k), rows
    below k already filled: the fraction-free Gram-Schmidt recurrence of
    Cohen's integral LLL (Alg. 2.6.7, step 2), by exact division."""
    for j, u in enumerate(dots):
        for i in range(j):
            u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
        if j < k:
            lam[k][j] = u
        elif u <= 0:
            raise ValueError("Gram matrix not positive definite")
        else:
            d[k + 1] = u


def lll_reduce_gram(gram: tuple[int, list[list[int]]]) -> LLLData:
    """LLL-reduce the positive definite Gram matrix given as (D, D*G).

    Integral LLL with incremental Gram-Schmidt data (Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 2.6.7) on the integer matrix
    D*G; every decision is homogeneous in D, so U does not depend on it.  The
    state is U, the leading minors d[0] = 1, d[1..n] of the current basis and
    lam[k][j] = d[j+1] * mu[k][j]; each size reduction and swap updates them
    in place by exact division, and the final state is returned with U for
    the enumeration.  The Lovasz test with delta = p/q = 99/100 reads
    q d[k+1] d[k-1] >= p d[k]^2 - q lam^2.
    One deliberate departure from Cohen: row k is size-reduced against every
    j = k-1 .. 0 before the Lovasz test, rounding mu to the nearest integer
    with ties away from zero (so |mu| = 1/2 is reduced too).  That keeps every
    decision, and so U, identical to the Fraction implementation this one
    replaced (kept as the reference in tests/oracles.py).
    """
    D, Gi = gram
    n = len(Gi)
    U = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    p, q = 99, 100
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    kmax = -1
    k = 0
    guard = 0
    while k < n:
        if k > kmax:
            # first visit of row k: it is still the k-th original basis vector
            kmax = k
            dots = [sum(g * c for g, c in zip(Gi[k], U[j])) for j in range(k + 1)]
            _gram_schmidt_row(d, lam, k, dots)
        if k == 0:  # nothing to reduce row 0 against
            k = 1
            continue
        guard += 1
        if guard > 10000:  # pragma: no cover - LLL always terminates
            raise RuntimeError("LLL guard tripped")
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            dj = d[j + 1]
            r = (2 * abs(lk[j]) + dj) // (2 * dj)
            if r:
                r = r if lk[j] > 0 else -r
                U[k] = [a - r * b for a, b in zip(U[k], U[j])]
                lk[j] -= r * dj
                lj = lam[j]
                for i in range(j):
                    lk[i] -= r * lj[i]
        lkk = lk[k - 1]
        if q * d[k + 1] * d[k - 1] >= p * d[k] * d[k] - q * lkk * lkk:
            k += 1
            continue
        U[k], U[k - 1] = U[k - 1], U[k]
        lk1 = lam[k - 1]
        for j in range(k - 1):
            lk[j], lk1[j] = lk1[j], lk[j]
        B = (d[k - 1] * d[k + 1] + lkk * lkk) // d[k]
        for i in range(k + 1, kmax + 1):
            li = lam[i]
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - lkk * t) // d[k]
            li[k - 1] = (B * t + lkk * li[k]) // d[k + 1]
        d[k] = B
        k = max(k - 1, 1)
    return LLLData(D, Gi, U, d, lam)


def short_vectors(reduced: LLLData, bound) -> list[tuple[int, ...]]:
    """All nonzero integer vectors with x^T G x <= bound, up to sign.

    `reduced` is what lll_reduce_gram returns, so the enumeration tree stays
    tight; results are in the original basis.  The canonical representative
    of each +-pair has key max(v, -v), and the list is sorted.

    Fincke-Pohst enumeration (Cohen, GTM 138, Alg. 2.7.5) in integers only,
    on the LLL's own LDL^T data d, lam of the reduced D*G:
    D x^T G x = sum_i t_i^2 / (d[i] d[i+1]) with the integers
    t_i = d[i+1] x_i + sum_{j>i} lam[j][i] x_j.  Over M = lcm(d[i] d[i+1])
    the budget M floor(D bound) is one integer, so level i takes exactly the
    x_i with t_i^2 <= floor(rem / m_i), m_i = M / (d[i] d[i+1]).  Of each
    +-pair only the vector whose last nonzero coordinate is positive is
    visited.
    """
    D, _, U, d, lam = reduced
    n = len(U)
    B = Fraction(bound)
    top = B.numerator * D // B.denominator
    if top <= 0:
        return []
    M = lcm(*(d[i] * d[i + 1] for i in range(n)))
    m = [M // (d[i] * d[i + 1]) for i in range(n)]
    # column i of lam above the diagonal, as (j, lam[j][i]) pairs
    above = [[(j, lam[j][i]) for j in range(i + 1, n)] for i in range(n)]
    out: list[tuple[int, ...]] = []
    x = [0] * n

    def rec(i: int, rem: int, upper_zero: bool):
        di, mi = d[i + 1], m[i]
        c = 0
        for j, l in above[i]:
            c += l * x[j]
        r = isqrt(rem // mi)
        if upper_zero:  # c = 0: take x_i >= 0, and x_0 > 0 at the bottom
            lo = 0 if i else 1
        else:
            lo = -((r + c) // di)
        hi = (r - c) // di
        for xi in range(lo, hi + 1):
            x[i] = xi
            if i:
                t = di * xi + c
                rec(i - 1, rem - mi * t * t, upper_zero and not xi)
            else:
                out.append(tuple(x))
        x[i] = 0

    rec(n - 1, M * top, True)
    cols = list(zip(*U))
    canon = []
    for v in out:
        # map back to the original basis
        w = tuple(sum(a * b for a, b in zip(v, col)) for col in cols)
        canon.append(max(w, tuple(-a for a in w)))
    canon.sort()
    return canon

