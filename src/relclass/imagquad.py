"""Integer-only class-group pipeline for imaginary quadratic fields.

This is the degree-1 fast path of the class machinery: ideals above small
primes are built as 2x2 integer lattices over the basis {1, theta} with
theta = (D + sqrt D)/2, products are HNF-reduced, and each ideal is mapped to
the Gauss-reduced binary form of its norm lattice, which is a complete class
invariant.  Everything stays in machine integers.
"""

from __future__ import annotations

from math import gcd

from .field import kronecker, primes_up_to, sqrt_mod_p
from .lattice import gauss_reduce_binary


def minkowski_bound_disc(D: int) -> int:
    """floor of (2/pi) sqrt|D| with a safe upward nudge."""
    return int((2.0 / 3.141592653589793) * (abs(D) ** 0.5) * (1 + 1e-12)) + 1


def prime_ideal_b(D: int, p: int) -> int | None:
    """b for the ideal Z*p + Z*(b+sqrt D)/2 above p; None when p is inert."""
    if p == 2:
        r = D % 8
        if r == 1:
            return 1
        if r == 5:
            return None
        # D = 0 mod 4: ramified
        return 0 if D % 8 == 0 else 2
    if D % p == 0:
        return p if D % 2 else 0
    s = sqrt_mod_p(D % p, p)
    if s is None:
        return None
    b = s if (s - D) % 2 == 0 else p - s if (p - s - D) % 2 == 0 else s + p
    return b % (2 * p)


class _Lat:
    """2x2 integer lattice over {1, theta}; rows [[a, 0], [u, v]] HNF-style."""

    __slots__ = ("a", "u", "v")

    def __init__(self, a: int, u: int, v: int):
        self.a = a
        self.u = u
        self.v = v


def _hnf2(rows: list[tuple[int, int]]) -> tuple[int, int, int]:
    """HNF of a rank-2 integer lattice from generating rows: ((a,0),(u,v))."""
    v = 0
    pairs = []
    for (x, y) in rows:
        if x or y:
            pairs.append((x, y))
    # first reduce second coordinates to a single pivot via gcd
    a = 0
    u_for_v: tuple[int, int] | None = None
    work = pairs
    # gcd of y-column with tracking
    cur = None
    rest = []
    for (x, y) in work:
        if y == 0:
            rest.append(x)
            continue
        if cur is None:
            cur = (x, y)
            continue
        x1, y1 = cur
        x2, y2 = x, y
        while y2:
            q = y1 // y2
            x1, y1, x2, y2 = x2, y2, x1 - q * x2, y1 - q * y2
        cur = (x1, y1)
        if x2:
            rest.append(x2)
    if cur is None:
        raise ValueError("rank deficient")
    u, v = cur
    if v < 0:
        u, v = -u, -v
    g = 0
    for x in rest:
        g = gcd(g, x)
    a = abs(g)
    if a == 0:
        raise ValueError("rank deficient")
    u %= a
    return (a, u, v)


def theta_mul_table(D: int) -> tuple[int, int]:
    """theta^2 = s*theta + t with s = D, t = -(D^2 - D)/4."""
    return D, -((D * D - D) // 4)


def ideal_product(D: int, L1: tuple[int, int, int], L2: tuple[int, int, int]) -> tuple[int, int, int]:
    """Product of two integral ideals given as HNF triples (a, u, v)."""
    s, t = theta_mul_table(D)
    a1, u1, v1 = L1
    a2, u2, v2 = L2
    gens = [(a1, 0), (u1, v1)]
    gens2 = [(a2, 0), (u2, v2)]
    rows = []
    for (x1, y1) in gens:
        for (x2, y2) in gens2:
            # (x1 + y1 th)(x2 + y2 th) = x1x2 + y1y2 t + (x1y2 + x2y1 + y1y2 s) th
            c0 = x1 * x2 + y1 * y2 * t
            c1 = x1 * y2 + x2 * y1 + y1 * y2 * s
            rows.append((c0, c1))
    return _hnf2(rows)


def ideal_norm(L: tuple[int, int, int]) -> int:
    return L[0] * L[2]


def reduced_key(D: int, L: tuple[int, int, int]) -> tuple[int, int, int]:
    """Gauss-reduced norm form of the ideal lattice: the class invariant."""
    a, u, v = L
    # basis vectors e1 = (a, 0), e2 = (u, v) over {1, theta}
    # N(x + y theta) = x^2 + D x y + y^2 (D^2 - D)/4
    q = (D * D - D) // 4
    A = a * a
    B = 2 * a * u + D * a * v
    C = u * u + D * u * v + v * v * q
    n = ideal_norm(L)
    assert A % n == 0 and B % n == 0 and C % n == 0
    return gauss_reduce_binary(A // n, B // n, C // n)


def prime_lattice(D: int, p: int, b: int, conj: bool = False) -> tuple[int, int, int]:
    """The ideal Z*p + Z*(b + sqrt D)/2 as an HNF triple (conj flips b)."""
    if conj:
        b = -b
    # (b + sqrt D)/2 = (b - D)/2 + theta
    u = (b - D) // 2
    return _hnf2([(p, 0), (u, 1)])


def class_group_counts(D: int) -> tuple[int, int]:
    """(h, conjugation orbit count) for the field of discriminant D < 0.

    Enumerates all integral ideals of norm up to the Minkowski bound as
    products of prime ideals and partitions them by reduced norm form.
    """
    bound = minkowski_bound_disc(D)
    prime_data = []
    for p in primes_up_to(bound):
        b = prime_ideal_b(D, p)
        if b is None:
            continue  # inert primes only contribute principal content
        sym = kronecker(D, p)
        lat = prime_lattice(D, p, b)
        if sym == 0:
            prime_data.append((p, lat, None, 1))
        else:
            prime_data.append((p, lat, prime_lattice(D, p, b, conj=True), 10**9))
    keys: set[tuple[int, int, int]] = set()
    one = (1, 0, 1)

    def rec(i: int, cur: tuple[int, int, int], nm: int):
        keys.add(reduced_key(D, cur))
        if i == len(prime_data):
            return
        rec(i + 1, cur, nm)
        pnorm, lat, conj_lat, cap = prime_data[i]
        # split primes take one-sided powers; mixed products are content multiples
        for side in (lat, conj_lat):
            if side is None:
                continue
            nm2, cur2, k = nm, cur, 0
            while k < cap:
                nm2 *= pnorm
                if nm2 > bound:
                    break
                cur2 = ideal_product(D, cur2, side)
                rec(i + 1, cur2, nm2)
                k += 1

    rec(0, one, 1)
    h = len(keys)
    orbits = 0
    seen = set()
    for k in sorted(keys):
        if k in seen:
            continue
        a, b, c = k
        kc = gauss_reduce_binary(a, -b, c)
        seen.add(k)
        seen.add(kc)
        orbits += 1
    return h, orbits
