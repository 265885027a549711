"""Integer-only class-group pipeline for imaginary quadratic fields.

This is the degree-1 fast path of the class machinery: ideals above small
primes are built as 2x2 integer lattices over the basis {1, theta} with
theta = (D + sqrt D)/2, products are HNF-reduced, and each ideal is mapped to
the Gauss-reduced binary form of its norm lattice, which is a complete class
invariant.  Everything stays in machine integers.
"""

from __future__ import annotations

from .field import kronecker, primes_up_to, sqrt_mod_p
from .intmat import hnf_lattice
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
            rows.append([c1, c0])
    # HNF with the theta column first: rows [[v, u], [0, a]]
    (v, u), (_, a) = hnf_lattice(rows)
    return (a, u, v)


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
    # rows (p, 0), (u, 1) are in HNF once u is reduced mod p
    u = (b - D) // 2
    return (p, u % p, 1)


def reduced_forms(D: int) -> list[tuple[int, int, int]]:
    """The reduced norm forms of the classes of the field of discriminant
    D < 0, sorted: one form per ideal class.

    Enumerates all integral ideals of norm up to the Minkowski bound as
    products of prime ideals and collects their reduced norm forms.
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
    return sorted(keys)


def class_group_counts(D: int) -> tuple[int, int]:
    """(h, conjugation orbit count) for the field of discriminant D < 0."""
    forms = reduced_forms(D)
    orbits = 0
    seen = set()
    for k in forms:
        if k in seen:
            continue
        a, b, c = k
        kc = gauss_reduce_binary(a, -b, c)
        seen.add(k)
        seen.add(kc)
        orbits += 1
    return len(forms), orbits
