"""Exact short-vector enumeration for positive definite rational Gram matrices."""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, lcm, sqrt


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
    G0 = [[Fraction(x) for x in row] for row in gram]
    D = lcm(*(x.denominator for row in G0 for x in row))
    Gi = [[x.numerator * (D // x.denominator) for x in row] for row in G0]
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
            for j in range(k + 1):
                u = sum(g * c for g, c in zip(Gi[k], U[j]))
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                elif u <= 0:
                    raise ValueError("Gram matrix not positive definite")
                else:
                    d[k + 1] = u
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


def cholesky_rational(gram: list[list[Fraction]]):
    """LDL^T decomposition; returns (diag d, unit lower-triangular mu)."""
    n = len(gram)
    d = [Fraction(0)] * n
    mu = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        mu[i][i] = Fraction(1)
        s = gram[i][i]
        for k in range(i):
            s -= d[k] * mu[i][k] * mu[i][k]
        d[i] = s
        if s <= 0:
            raise ValueError("Gram matrix not positive definite")
        for j in range(i + 1, n):
            t = gram[j][i]
            for k in range(i):
                t -= d[k] * mu[j][k] * mu[i][k]
            mu[j][i] = t / d[i]
    return d, mu


def _frac_sqrt_bounds(x: Fraction) -> float:
    return sqrt(float(x)) if x > 0 else 0.0


def short_vectors(reduced, bound) -> list[tuple[int, ...]]:
    """All nonzero integer vectors with x^T G x <= bound, up to sign.

    `reduced` is the pair (reduced gram, U) that lll_reduce_gram(G) returns,
    so the enumeration tree stays tight; results are in the basis of G.
    Interval tests on the quadratic form are exact rational; the float square
    root only seeds the integer range.  The canonical representative of each
    +-pair has key max(v, -v), and the list is sorted.
    """
    G, U = reduced
    n = len(G)
    B = Fraction(bound)
    d, mu = cholesky_rational(G)
    out: list[tuple[int, ...]] = []
    x = [0] * n

    def rec(i: int, remaining: Fraction):
        if i < 0:
            if any(x):
                out.append(tuple(x))
            return
        c = Fraction(0)
        for j in range(i + 1, n):
            if x[j]:
                c += mu[j][i] * x[j]
        rad = remaining / d[i]
        r = _frac_sqrt_bounds(rad) + 1e-9
        lo = ceil(float(-c) - r) - 1
        hi = floor(float(-c) + r) + 1
        for xi in range(lo, hi + 1):
            t = d[i] * (xi + c) * (xi + c)
            if t <= remaining:
                x[i] = xi
                rec(i - 1, remaining - t)
        x[i] = 0

    rec(n - 1, B)
    canon = []
    seen = set()
    for v in out:
        # map back to the original basis
        w = tuple(sum(v[i] * U[i][j] for i in range(n)) for j in range(n))
        neg = tuple(-a for a in w)
        key = max(w, neg)
        if key not in seen:
            seen.add(key)
            canon.append(key)
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
