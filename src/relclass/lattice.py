"""Exact short-vector enumeration for positive definite rational Gram matrices."""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, sqrt


def lll_reduce_gram(gram: list[list[Fraction]], delta=Fraction(99, 100)):
    """LLL-reduce a positive definite Gram matrix.

    Returns (reduced gram, U) with U integer unimodular and
    reduced = U * gram * U^T; row i of U expresses the i-th reduced basis
    vector in the original basis.
    """
    n = len(gram)
    G0 = [[Fraction(x) for x in row] for row in gram]
    U = [[1 if j == i else 0 for j in range(n)] for i in range(n)]

    def current_gram():
        out = []
        for i in range(n):
            tmp = [sum(U[i][a] * G0[a][b] for a in range(n)) for b in range(n)]
            out.append([sum(tmp[b] * U[j][b] for b in range(n)) for j in range(n)])
        return out

    G = current_gram()
    d, mu = cholesky_rational(G)
    k = 1
    guard = 0
    while k < n:
        guard += 1
        if guard > 10000:  # pragma: no cover - LLL always terminates
            raise RuntimeError("LLL guard tripped")
        for j in range(k - 1, -1, -1):
            q = _nearest_int(mu[k][j])
            if q:
                U[k] = [a - q * b for a, b in zip(U[k], U[j])]
                G = current_gram()
                d, mu = cholesky_rational(G)
        if d[k] >= (delta - mu[k][k - 1] * mu[k][k - 1]) * d[k - 1]:
            k += 1
        else:
            U[k], U[k - 1] = U[k - 1], U[k]
            G = current_gram()
            d, mu = cholesky_rational(G)
            k = max(k - 1, 1)
    return G, U


def _nearest_int(x: Fraction) -> int:
    return int((2 * x + 1) // 2) if x >= 0 else -int((2 * (-x) + 1) // 2)


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
