"""Exact short-vector enumeration for positive definite rational Gram matrices."""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm


def _scaled_to_integers(G: list[list[Fraction]]) -> tuple[int, list[list[int]]]:
    """(D, D * G) with D the lcm of the denominators of G."""
    D = lcm(*(x.denominator for row in G for x in row))
    return D, [[x.numerator * (D // x.denominator) for x in row] for row in G]


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


def lll_reduce_gram(gram: list[list[Fraction]]):
    """LLL-reduce a positive definite Gram matrix.

    Returns (reduced gram, U) with U integer unimodular and
    reduced = U * gram * U^T; row i of U expresses the i-th reduced basis
    vector in the original basis.

    Integral LLL with incremental Gram-Schmidt data (Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 2.6.7), run on the Gram matrix
    scaled by the lcm of its denominators.  The state is U, the leading minors
    d[0] = 1, d[1..n] of the current basis and lam[k][j] = d[j+1] * mu[k][j];
    each size reduction and swap updates them in place by exact division.
    The Lovasz test with delta = p/q = 99/100 reads
    q d[k+1] d[k-1] >= p d[k]^2 - q lam^2.
    One deliberate departure from Cohen: row k is size-reduced against every
    j = k-1 .. 0 before the Lovasz test, rounding mu to the nearest integer
    with ties away from zero (so |mu| = 1/2 is reduced too).  That keeps every
    decision, and so U, identical to the Fraction implementation this one
    replaced (kept as the reference in tests/oracles.py).
    """
    n = len(gram)
    D, Gi = _scaled_to_integers([[Fraction(x) for x in row] for row in gram])
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
    G = []
    for row in U:
        tmp = [sum(c * g for c, g in zip(row, col)) for col in zip(*Gi)]
        G.append([Fraction(sum(t * c for t, c in zip(tmp, other)), D) for other in U])
    return G, U


def short_vectors(reduced, bound) -> list[tuple[int, ...]]:
    """All nonzero integer vectors with x^T G x <= bound, up to sign.

    `reduced` is the pair (reduced gram, U) that lll_reduce_gram(G) returns,
    so the enumeration tree stays tight; results are in the basis of G.
    The canonical representative of each +-pair has key max(v, -v), and the
    list is sorted.

    Fincke-Pohst enumeration (Cohen, GTM 138, Alg. 2.7.5) in integers only.
    With the reduced Gram matrix scaled by the lcm D of its denominators and
    its fraction-free LDL^T data d, lam (as in lll_reduce_gram),
    D x^T G x = sum_i t_i^2 / (d[i] d[i+1]) with the integers
    t_i = d[i+1] x_i + sum_{j>i} lam[j][i] x_j.  Over M = lcm(d[i] d[i+1])
    the budget M floor(D bound) is one integer, so level i takes exactly the
    x_i with t_i^2 <= floor(rem / m_i), m_i = M / (d[i] d[i+1]).  Of each
    +-pair only the vector whose last nonzero coordinate is positive is
    visited.
    """
    G, U = reduced
    n = len(G)
    D, Gi = _scaled_to_integers(G)
    B = Fraction(bound)
    top = B.numerator * D // B.denominator
    if top <= 0:
        return []
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        _gram_schmidt_row(d, lam, k, Gi[k][: k + 1])
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


def gauss_reduce_binary(a, b, c):
    """Reduce a positive definite integer binary form (a, b, c); returns the
    classical reduced representative (-a < b <= a <= c, b >= 0 when a == c)."""
    while True:
        if b > a or b <= -a:
            # normalize b into (-a, a]
            r = (a - b) // (2 * a)
            b2 = b + 2 * r * a
            c = a * r * r + b * r + c
            b = b2
        if a > c:
            a, b, c = c, -b, a
            continue
        if a == c and b < 0:
            b = -b
        if -a < b <= a <= c and not (a == c and b < 0):
            return (a, b, c)
