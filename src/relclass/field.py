"""Totally real base fields of degree 1 and 2: exact elements, ideals, units.

Elements are coordinate pairs over the integral basis {1, omega}; all ring
arithmetic and all sign decisions are exact (integer comparisons), so
totally-positive tests can never be misclassified.  Real embeddings are also
available as floats for the analytic layer.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from math import gcd, isqrt
from typing import NamedTuple

from .errors import (
    DegreeUnsupported,
    InvalidArgument,
    MixedFields,
    NonSquarefree,
    NotIntegral,
    NotTotallyNegative,
    SearchBudgetExceeded,
)
from .intmat import echelon_solve, hnf_lattice, vec_mat, zspan_kernel


def is_squarefree(m: int) -> bool:
    if m % 4 == 0:
        return False
    d = 2
    while d * d <= m:
        if m % (d * d) == 0:
            return False
        d += 1
    return True


def is_prime_int(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def primes_up_to(bound: int) -> list[int]:
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(range(i * i, bound + 1, i))
    return [i for i, v in enumerate(sieve) if v]


def prime_divisors(n) -> list[int]:
    """The distinct prime divisors of |n| (n an integer), ascending."""
    n = abs(int(n))
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def kronecker(D: int, n: int) -> int:
    """The Kronecker symbol (D/n) for n >= 1.  For a discriminant D and a
    prime p it is +1, -1 or 0 as p splits, is inert or ramifies in Q(sqrt D)."""
    out = 1
    for p in prime_divisors(n):
        if D % p == 0:
            return 0
        if p == 2:
            s = 1 if D % 8 in (1, 7) else -1
        else:
            s = 1 if pow(D, (p - 1) // 2, p) == 1 else -1
        while n % p == 0:
            n //= p
            out *= s
    return out


def sqrt_mod_p(a: int, p: int) -> int | None:
    """A square root of a mod p (p prime), or None. Tonelli-Shanks."""
    a %= p
    if p == 2 or a == 0:
        return a
    if kronecker(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while kronecker(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def omega_root(pr: "PrimeIdeal", k: int) -> int:
    """R mod p^k with omega - R in pr, for pr of degree 1 (unramified when
    k > 1): Newton steps on X^2 - c1 X - c0 from the root mod p that
    second_gen = omega - R0 carries."""
    F, p = pr.second_gen.F, pr.p
    R = -pr.second_gen.na % p
    prec = 1
    while prec < k:
        prec = min(2 * prec, k)
        mod = p**prec
        R = (R - (R * R - F.c1 * R - F.c0) * pow(2 * R - F.c1, -1, mod)) % mod
    return R


def residue_char(pr: "PrimeIdeal", x: "FElem") -> int:
    """The quadratic character of o/pr (p odd) at a pr-unit x; 0 when x is
    in pr.

    For f = 2 it is that of N(x) mod p, since x^((p^2-1)/2) = N(x)^((p-1)/2).
    For f = 1 x maps to (na + nb R)/den in F_p = Z_p.  A unit keeps p in den
    only when p splits, and then p^v divides both den and na + nb R, so R
    is needed mod p^(v+1), v = v_p(den)."""
    p = pr.p
    if pr.f == 2:
        return kronecker(x.F.norm_int(x.na, x.nb), p)
    v, den = 0, x.den
    while den % p == 0:
        v, den = v + 1, den // p
    num = (x.na + x.nb * omega_root(pr, v + 1)) % p ** (v + 1)
    return kronecker(num // p**v * den, p)


# -- exact surds p + q*sqrt(m) on integers, m > 0 ------------------------------------


def surd_sign(p: int, q: int, m: int) -> int:
    """Exact sign of p + q*sqrt(m)."""
    if q == 0:
        return (p > 0) - (p < 0)
    if p == 0:
        return 1 if q > 0 else -1
    if p > 0 and q > 0:
        return 1
    if p < 0 and q < 0:
        return -1
    lhs, rhs = p * p, m * q * q
    if p > 0:
        return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
    return 1 if rhs > lhs else (-1 if rhs < lhs else 0)


def surd_uv(F: "Field", na: int, nb: int) -> tuple[int, int]:
    """(u, v) with na + nb*omega = (u + v*sqrt(m))/2 in F = Q(sqrt m)."""
    c1 = F.c1
    return 2 * na + c1 * nb, (2 - c1) * nb


def surd_floor(p: int, q: int, m: int, d: int) -> int:
    """Exact floor((p + q*sqrt(m))/d) for d > 0; the ceiling is
    -surd_floor(-p, -q, m, d)."""
    # floor(q*sqrt m) exactly; then floor((p + it)/d) = floor((p + q sqrt m)/d)
    mq2 = m * q * q
    w = isqrt(mq2)
    if q < 0:
        w = -w - (w * w != mq2)
    return (p + w) // d


class Field:
    """A totally real field Q or Q(sqrt m) with its arithmetic data.

    omega is 0 for n=1, sqrt(m) for m != 1 mod 4, (1+sqrt m)/2 otherwise;
    omega^2 = c0 + c1*omega.
    """

    def __init__(self, n: int, m: int | None = None):
        if n == 1:
            if m is not None:
                raise InvalidArgument(f"Q takes no radicand, got m = {m}")
            self.n = 1
            self.m = None
            self.c0, self.c1 = 0, 0
            self.d_F = 1
        elif n == 2:
            if m is None or m < 2:
                raise NonSquarefree(f"radicand must be a squarefree integer >= 2, got {m}")
            if not is_squarefree(m):
                raise NonSquarefree(f"{m} is not squarefree")
            self.n = 2
            self.m = m
            if m % 4 == 1:
                self.c0, self.c1 = (m - 1) // 4, 1
                self.d_F = m
            else:
                self.c0, self.c1 = m, 0
                self.d_F = 4 * m
        else:
            raise DegreeUnsupported(f"exact arithmetic supports n in {{1,2}}, got {n}")
        # the ring data of LatticeIdeal: basis {1, omega}, conj(omega) = c1 - omega,
        # trace form Tr(b_i b_j)
        self.deg = self.n
        if self.n == 1:
            self._mt = [[(1,)]]
            self._conj_mat = [(1,)]
            self._trace_mat = [[1]]
        else:
            self._mt = [[(1, 0), (0, 1)], [(0, 1), (self.c0, self.c1)]]
            self._conj_mat = [(1, 0), (self.c1, -1)]
            self._trace_mat = [[2, self.c1], [self.c1, self.c1 * self.c1 + 2 * self.c0]]
        self._init_units()
        self._unit_steps = unit_steps(self, self._mt, self.deg)
        self._prime_cache: dict[int, SplittingType] = {}
        self._init_class_group()
        self.unit_sq_index = 2**self.n

    def _init_units(self):
        if self.n == 1:
            self.eps = FElem(self, Fraction(1), Fraction(0))
            self.regulator = 1.0
            self.d0 = 0.0
            self.omega_embeddings = (0.0,)
            return
        m = self.m
        s = math.sqrt(m)
        self.omega_embeddings = (s, -s) if self.c1 == 0 else ((1 + s) / 2, (1 - s) / 2)
        x, y = fundamental_unit_xy(m)
        # (x + y sqrt m)/2 with sqrt m = (2 - c1) omega - c1
        self.eps = FElem(self, Fraction(x - self.c1 * y, 2), Fraction(y, 2 - self.c1))
        if abs(self.eps.norm()) != 1 or not self.eps.is_integral():
            raise AssertionError("fundamental unit construction failed")
        # x, y > 0, so the first embedding is already > 1
        self.regulator = math.log(self.eps.embed(0))
        self.d0 = math.sqrt(2.0) * self.regulator

    # -- integer norms ---------------------------------------------------------

    def norm_int(self, a: int, b: int = 0) -> int:
        """N(a + b omega), signed, for integers a and b (omega = 0 over Q)."""
        return a * a + self.c1 * a * b - self.c0 * b * b if self.n == 2 else a

    def _abs_norm(self, row) -> int:
        """|N(z)| for the integral z of order row `row`."""
        return abs(self.norm_int(*row))

    # -- element constructors ---------------------------------------------

    def elem(self, a, b=0) -> "FElem":
        return FElem(self, a, b)

    def zero(self) -> "FElem":
        return self.elem(0)

    def one(self) -> "FElem":
        return self.elem(1)

    def omega(self) -> "FElem":
        """The generator omega of o_F over Z; 0 over Q, where o_F = Z."""
        return self.elem(0, 1) if self.n == 2 else self.zero()

    def maximal_order_basis(self) -> list["FElem"]:
        if self.n == 1:
            return [self.one()]
        return [self.one(), self.omega()]

    # -- ideals -------------------------------------------------------------

    def _to_order(self, x: "FElem") -> tuple[list[int], int]:
        """(row, den): the coordinates of x over {1, omega} are row/den."""
        return ([x.na] if self.n == 1 else [x.na, x.nb]), x.den

    def _ambient(self, row: list[int]) -> list[int]:
        """The coordinates over {1, omega} of the element of order row `row`:
        the row itself."""
        return row

    def ideal(self, *gens) -> "FIdeal":
        elems = [g if isinstance(g, FElem) else self.elem(Fraction(g)) for g in gens]
        return FIdeal.from_generators(self, elems)

    def unit_ideal(self) -> "FIdeal":
        return FIdeal.unit(self)

    # -- class group ----------------------------------------------------------

    def _init_class_group(self):
        """class_reps[j] is the first ideal met of its class by ascending norm
        up to the Minkowski bound sqrt(d_F)/2; _class_index maps its
        form_cycle key to j."""
        self.class_reps = [self.unit_ideal()]
        if self.n == 1:
            self.h_F = 1
            return
        self._class_index = {form_cycle(*self.class_reps[0].norm_form())[1]: 0}
        for idl in ideals_of_norm_up_to(self, isqrt(self.d_F) // 2):
            key = form_cycle(*idl.norm_form())[1]
            if key not in self._class_index:
                self._class_index[key] = len(self.class_reps)
                self.class_reps.append(idl)
        self.h_F = len(self.class_reps)

    def inverse_class(self, a: "FIdeal") -> int:
        """The index j with a * class_reps[j] principal: the class of
        conj(a) = N(a) a^-1."""
        return self._class_index[form_cycle(*a.conj().norm_form())[1]] if self.n == 2 else 0

    # -- misc -------------------------------------------------------------------

    def splitting(self, p: int) -> "SplittingType":
        st = self._prime_cache.get(p)
        if st is None:
            st = factor_prime(self, p)
            self._prime_cache[p] = st
        return st

    def primes_of_norm_up_to(self, bound: float) -> list["PrimeIdeal"]:
        """The primes of norm <= bound, by p and then in splitting(p)'s order."""
        return [pr for p in primes_up_to(int(bound)) for pr in self.splitting(p).primes if pr.norm() <= bound]

    def to_json(self) -> str:
        data = {
            "n": self.n,
            "m": self.m,
            "dF": self.d_F,
            "hF": self.h_F,
            "eps": ["%d/%d" % self.eps.a.as_integer_ratio(),
                    "%d/%d" % self.eps.b.as_integer_ratio()],
            "d0": self.d0,
        }
        return json.dumps(data, sort_keys=True)

    def __repr__(self):
        return "Q" if self.n == 1 else f"Q(sqrt{self.m})"

    def __eq__(self, other):
        return isinstance(other, Field) and self.n == other.n and self.m == other.m

    def __hash__(self):
        return hash((self.n, self.m))


_FIELDS: dict[tuple[int, int | None], Field] = {}


def make_field(n: int, m: int | None = None) -> Field:
    """Construct (and cache) a field descriptor; validates the radicand.

    The cache holds one object per (n, m), however the arguments are passed.
    """
    if (n, m) not in _FIELDS:
        _FIELDS[n, m] = Field(n, m)
    return _FIELDS[n, m]


def cm_radicand(F: Field, delta) -> "FElem":
    """delta as an element of F, checked to give a CM field F(sqrt delta):
    no omega-coordinate over Q (where omega = 0), integral and totally
    negative.  The checks read F alone, so a caller can make them before it
    builds the extension."""
    if not isinstance(delta, FElem):
        delta = F.elem(Fraction(delta))
    if F.n == 1 and delta.nb:
        raise InvalidArgument(f"delta has omega-coordinate {delta.b} over Q, where omega = 0")
    if not delta.is_integral():
        raise NotIntegral(f"delta = {delta} is not integral")
    if not delta.is_totally_negative():
        raise NotTotallyNegative(f"delta = {delta} is not totally negative")
    return delta


def splitting_37(F: Field) -> tuple[int, int, int]:
    """(s, e, f) with 37 o_F = (p_1 ... p_s)^e and f = n/(s e)."""
    st = F.splitting(37)
    s = len(st.primes)
    e = st.primes[0].e
    f = st.primes[0].f
    assert f == F.n // (s * e)
    return s, e, f


def parity_applicable(F: Field) -> bool:
    """[F:Q] odd, or s even in the 37-splitting (both give n + s even)."""
    s, e, f = splitting_37(F)
    if F.n % 2 == 1:
        return True
    return s % 2 == 0


def fundamental_unit_xy(m: int) -> tuple[int, int]:
    """Fundamental unit of the maximal order of Q(sqrt m), as (x, y) with
    eps = (x + y*sqrt m)/2, x, y > 0.

    For d the discriminant and b < sqrt d the largest with b = d (mod 2),
    the reduced form (1, b, (b^2 - d)/4) is the norm form of the basis
    (1, theta), theta = (b + sqrt d)/2.  The next form with |a| = 1 on its
    cycle is (-1, b, ...) or itself, at x + y theta = +-eps^(+-1).
    """
    d = m if m % 4 == 1 else 4 * m
    b = isqrt(d)
    if b * b == d:
        raise NonSquarefree(f"{m} is a perfect square")
    b -= (b - d) % 2
    (x, y), _ = form_cycle(1, b, (b * b - d) // 4)
    # x + y theta = (2x + by + y sqrt d)/2, and sqrt d is sqrt m or 2 sqrt m
    return abs(2 * x + b * y), abs(y) * (1 if d == m else 2)


def form_cycle(a: int, b: int, c: int) -> tuple[tuple[int, int] | None, tuple[int, int]]:
    """Gauss's rho on the integral form f = (a, b, c) of non-square
    discriminant D > 0 until its cycle of reduced forms closes
    (Buchmann-Vollmer, Binary Quadratic Forms, 2007, ch. 6): (xy, key).

    rho(a, b, c) = (c, b', (b'^2 - D)/4c) is the substitution
    (x, y) -> (-y, x + s y), with b' = 2cs - b the largest that is at most
    max(sqrt D, |c|).  xy is the (x, y) with f(x, y) = +-1 of the first
    form after f with |a| = 1, or None if f represents neither 1 nor -1.
    key is the least (|a|, b) over the reduced forms
    (|sqrt D - 2|a|| < b < sqrt D), one cycle; it names the cycles of f and
    of (-a, b, -c), since rho commutes with (a, c) -> (-a, -c)."""
    D = b * b - 4 * a * c
    r = isqrt(D)
    x0, y0, x1, y1 = 1, 0, 0, 1  # columns of the substitution from f
    xy = first = key = None
    while True:
        t = max(r, abs(c))
        nb = t - (t + b) % (2 * abs(c))
        s = (nb + b) // (2 * c)
        a, b, c = c, nb, (nb * nb - D) // (4 * c)
        x0, y0, x1, y1 = x1, y1, s * x1 - x0, s * y1 - y0
        if xy is None and abs(a) == 1:
            xy = (x0, y0)
        if r - 2 * abs(a) < b <= r and 2 * abs(a) - b <= r:
            if first is None:
                first, key = (a, b), (abs(a), b)
            elif (a, b) == first:
                return xy, key
            key = min(key, (abs(a), b))


class FElem:
    """Element (na + nb*omega)/den of a base field: integers over one
    denominator, normalised so that den > 0 and gcd(na, nb, den) = 1.

    Arithmetic stays on integers with one gcd per result; the coordinates
    a = na/den and b = nb/den are read-only Fraction views for reports.
    """

    __slots__ = ("F", "na", "nb", "den")

    def __init__(self, F: Field, a, b):
        if type(a) is int and type(b) is int:
            na, nb, den = a, b, 1
        else:
            a, b = Fraction(a), Fraction(b)
            den = math.lcm(a.denominator, b.denominator)
            na = a.numerator * (den // a.denominator)
            nb = b.numerator * (den // b.denominator)
        self.F = F
        self.na = na
        self.nb = nb
        self.den = den

    @property
    def a(self) -> Fraction:
        return Fraction(self.na, self.den)

    @property
    def b(self) -> Fraction:
        return Fraction(self.nb, self.den)

    def _coerce(self, other) -> "FElem":
        if not isinstance(other, FElem):
            if type(other) is int:
                return _raw(self.F, other, 0, 1)
            return FElem(self.F, other, 0)
        if other.F is not self.F and other.F != self.F:
            raise MixedFields(f"{self.F} vs {other.F}")
        return other

    def __add__(self, other):
        o = other if other.__class__ is FElem and other.F is self.F else self._coerce(other)
        d1, d2 = self.den, o.den
        if d1 == d2:
            return _felem(self.F, self.na + o.na, self.nb + o.nb, d1)
        return _felem(self.F, self.na * d2 + o.na * d1, self.nb * d2 + o.nb * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.F, -self.na, -self.nb, self.den)

    def __sub__(self, other):
        o = other if other.__class__ is FElem and other.F is self.F else self._coerce(other)
        d1, d2 = self.den, o.den
        if d1 == d2:
            return _felem(self.F, self.na - o.na, self.nb - o.nb, d1)
        return _felem(self.F, self.na * d2 - o.na * d1, self.nb * d2 - o.nb * d1, d1 * d2)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = other if other.__class__ is FElem and other.F is self.F else self._coerce(other)
        F = self.F
        a1, b1, a2, b2 = self.na, self.nb, o.na, o.nb
        if b1 and b2:
            bb = b1 * b2
            na = a1 * a2 + bb * F.c0
            nb = a1 * b2 + b1 * a2 + bb * F.c1
        else:
            na = a1 * a2
            nb = a1 * b2 + b1 * a2
        return _felem(F, na, nb, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if other.__class__ is FElem and other.F is self.F else self._coerce(other)
        F = self.F
        # x / o = x * conj(o) / N(o); with o = (a + b w)/d that is
        # x * (ca - b w) * d / N(a + b w), ca = a + c1 b, and x * d / a over Q
        a, b = o.na, o.nb
        nrm = F.norm_int(a, b)
        if nrm == 0:
            raise ZeroDivisionError
        x1, y1 = self.na, self.nb
        if F.n == 1:
            return _felem(F, x1 * o.den, y1 * o.den, self.den * nrm)
        ca = a + b * F.c1
        na = x1 * ca - y1 * b * F.c0
        nb = y1 * ca - x1 * b - y1 * b * F.c1
        return _felem(F, na * o.den, nb * o.den, self.den * nrm)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __eq__(self, other):
        if other is None:
            return False
        if not isinstance(other, FElem):
            try:
                other = FElem(self.F, other, 0)
            except (TypeError, ValueError):
                return NotImplemented
        return (
            (self.F is other.F or self.F == other.F)
            and self.na == other.na
            and self.nb == other.nb
            and self.den == other.den
        )

    def __hash__(self):
        # equal to hash((F, a, b)) on the Fraction views, so the order of
        # sets and dicts of elements is what it was with Fraction storage
        if self.den == 1:
            return hash((self.F, self.na, self.nb))
        return hash((self.F, self.a, self.b))

    def __repr__(self):
        if self.F.n == 1 or self.nb == 0:
            return str(self.a)
        return f"({self.a}+{self.b}w)"

    def conj(self) -> "FElem":
        # gcd(na + c1 nb, nb, den) = gcd(na, nb, den) = 1
        return _raw(self.F, self.na + self.nb * self.F.c1, -self.nb, self.den)

    def trace(self) -> Fraction:
        if self.F.n == 1:
            return Fraction(self.na, self.den)
        return Fraction(2 * self.na + self.nb * self.F.c1, self.den)

    def norm(self) -> Fraction:
        return Fraction(self.F.norm_int(self.na, self.nb), self.den**self.F.n)

    def is_zero(self) -> bool:
        return self.na == 0 and self.nb == 0

    def valuation(self, prime: "PrimeIdeal") -> int:
        """Exact valuation at a prime of the base field."""
        if self.na == 0 and self.nb == 0:
            raise ZeroDivisionError("valuation of zero")
        return _valuation(self.F, [(self.na, self.nb)], self.den, prime)

    def is_integral(self) -> bool:
        return self.den == 1

    def coords(self) -> tuple[Fraction, Fraction]:
        return (self.a, self.b)

    # sqrt(m)-coordinates: x = (u + v*sqrt m) / (2*den)
    def _uv(self) -> tuple[int, int]:
        return surd_uv(self.F, self.na, self.nb)

    def embedding_sign(self, i: int) -> int:
        """Exact sign of the i-th real embedding (index 0 sends sqrt m -> +)."""
        if self.F.n == 1:
            return (self.na > 0) - (self.na < 0)
        u, v = self._uv()  # den > 0 leaves the sign unchanged
        return surd_sign(u, v if i == 0 else -v, self.F.m)

    def is_totally_positive(self) -> bool:
        return all(self.embedding_sign(i) > 0 for i in range(self.F.n))

    def is_totally_negative(self) -> bool:
        return all(self.embedding_sign(i) < 0 for i in range(self.F.n))

    def embed(self, i: int) -> float:
        if self.F.n == 1:
            return self.na / self.den
        return self.na / self.den + self.nb / self.den * self.F.omega_embeddings[i]

    def is_square(self) -> bool:
        return self.square_root() is not None

    def square_root(self) -> "FElem | None":
        """Exact square root in the field, if one exists."""
        F = self.F
        if self.is_zero():
            return F.zero()
        if F.n == 1:
            r = _rat_sqrt(self.a)
            return None if r is None else F.elem(r)
        # (p + q w)^2 = p^2 + q^2 c0 + (2pq + q^2 c1) w
        a, b = self.a, self.b
        if b == 0:
            r = _rat_sqrt(a)
            if r is not None:
                return F.elem(r)
            # may be sqrt of a rational times sqrt m: (q w')^2 with w' = sqrt m
            r2 = _rat_sqrt(a / F.m)
            if r2 is not None:
                return F.elem(0, r2) if F.c1 == 0 else F.elem(-r2, 2 * r2)
            return None
        # y^2 = x gives N(y)^2 = N(x), Tr(y)^2 = Tr(x) + 2 N(y) and
        # b_x = b_y Tr(y), b the omega-coordinate
        nrm = self.norm()
        rn = _rat_sqrt(nrm) if nrm >= 0 else None
        if rn is None:
            return None
        for sign in (rn, -rn):
            tr = self.trace()
            t2 = tr + 2 * sign
            if t2 < 0:
                continue
            t = _rat_sqrt(t2)
            if t is None:
                continue
            for tt in {t, -t}:
                if tt == 0:
                    continue
                bprime = self.b / tt
                aprime = (tt - bprime * F.c1) / 2
                y = F.elem(aprime, bprime)
                if y * y == self:
                    return y
        return None


_new = object.__new__


def _raw(F: Field, na: int, nb: int, den: int) -> FElem:
    """The element (na + nb*omega)/den from integers already normalised."""
    x = _new(FElem)
    x.F = F
    x.na = na
    x.nb = nb
    x.den = den
    return x


def _valuation(F: Field, rows, den: int, prime: "PrimeIdeal") -> int:
    """Valuation at a prime of the Z-span of the nonzero integral elements
    rows[i][0] + rows[i][1]*omega, over den: the least valuation of a row,
    on integer coordinates (Cohen, GTM 138, Alg. 4.8.17).  While x * tau/p
    is integral, x lies in the prime, and x * tau/p has valuation one less
    there."""
    p, c0, c1 = prime.p, F.c0, F.c1
    ta, tb = prime.tau.na, prime.tau.nb
    least = None
    for row in rows:
        a, b = row[0], row[1] if len(row) > 1 else 0
        v = 0
        while least is None or v < least:
            x = a * ta + b * tb * c0
            y = a * tb + b * ta + b * tb * c1
            if x % p or y % p:
                break
            a, b = x // p, y // p
            v += 1
        least = v
    while den % p == 0:
        den //= p
        least -= prime.e
    return least


def _felem(F: Field, na: int, nb: int, den: int) -> FElem:
    """The element (na + nb*omega)/den, normalised with one gcd (den != 0)."""
    if den != 1:
        g = gcd(na, nb, den)
        if den < 0:
            g = -g
        if g != 1:
            na //= g
            nb //= g
            den //= g
    return _raw(F, na, nb, den)


def _rat_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    rn = isqrt(x.numerator)
    rd = isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def order_rows(ring, xs) -> tuple[list[list[int]], int]:
    """(rows, D): the coordinates of each x over the ring's Z-basis as an
    integer row over one common denominator D."""
    pairs = [ring._to_order(x) for x in xs]
    den = math.lcm(*(d for _, d in pairs))
    return [[c * (den // d) for c in row] for row, d in pairs], den


def canonical_unit_row(ring, row: list[int]) -> list[int]:
    """The representative of row modulo the units +-eps^k of the base field,
    for the element of order row `row` of F or of a CM field K over F.

    The trace form q(z) = Tr(z conj z) (Tr(z^2) on F) is strictly convex
    along the unit orbit, so its exact minimiser, ties broken by the larger
    coordinate key, is an orbit invariant; the sign is then fixed by the
    larger coordinate tuple.  Multiplication by eps and 1/eps is the
    integer matrix pair ring._unit_steps on rows (None when the units are
    +-1), q is the ring's integer trace form, and the coordinate keys
    compare as the ambient numerators ring._ambient(row), which share one
    positive denominator."""
    if ring._unit_steps is not None:
        T = ring._trace_mat
        up_mat, dn_mat = ring._unit_steps

        def q(r: list[int]) -> int:
            return sum(a * b for a, b in zip(vec_mat(r, T), r))

        def key(r: list[int]) -> tuple[int, ...]:
            c = tuple(ring._ambient(r))
            return max(c, tuple(-x for x in c))

        cur, qc = row, q(row)
        up, dn = vec_mat(cur, up_mat), vec_mat(cur, dn_mat)
        qu, qd = q(up), q(dn)
        # a step reuses two of the three values: after a step up, the new
        # down-neighbour is the old point and the new point the old up
        while True:
            if qu < qc:
                dn, qd, cur, qc = cur, qc, up, qu
                up = vec_mat(cur, up_mat)
                qu = q(up)
            elif qd < qc:
                up, qu, cur, qc = cur, qc, dn, qd
                dn = vec_mat(cur, dn_mat)
                qd = q(dn)
            else:
                break
        best = cur
        for cand, qv in ((up, qu), (dn, qd)):
            if qv == qc and key(cand) > key(best):
                best = cand
        row = best
    c = ring._ambient(row)
    return row if tuple(c) >= tuple(-x for x in c) else [-x for x in row]


def unit_steps(F: Field, mt, deg: int) -> list[list[list[int]]] | None:
    """The matrices of multiplication by eps and by 1/eps on the order rows
    of a ring of degree deg over F whose Z-basis opens with F's (1, omega),
    through its structure constants mt: the steps of canonical_unit_row.
    None over Q, whose only units are +-1."""
    if F.n == 1:
        return None
    pad = [0] * (deg - 2)
    units = [F._to_order(u)[0] + pad for u in (F.eps, F.one() / F.eps)]
    return [[_row_mul(mt, e, u) for e in _identity(deg)] for u in units]


def unit_window(ring, t) -> Fraction:
    """A bound on Tr(z conj z) that every unit orbit of nonzero z in the ring
    with |N(z)| <= t meets, on the grid 2^-20 Z.

    For a ring of degree deg over F of degree n, r = deg/n, Tr(z conj z) is
    r times the sum of y_i = |sigma_i z|^2 over one place above each real
    place of F, and their product is |N(z)|^(2/r).  Over Q that is at most
    r t^(2/r).  Over Q(sqrt m) a unit eps^k multiplies y_0/y_1 by eps^4k, so
    some multiple has y_0/y_1 in [eps^-2, eps^2] and sum at most
    |N(z)|^(1/r) (eps + 1/eps).  Both read (deg/n) t^(2/deg) S, with S = 1
    over Q and eps + 1/eps otherwise.  Its square is rational, as
    S^2 = Tr(eps)^2 - 2 N(eps) + 2 is an integer, so the window is k/2^20
    with k the least integer whose square is at least 2^40 times it: one
    isqrt."""
    F = ring if isinstance(ring, Field) else ring.F
    r = ring.deg // F.n
    x = Fraction(t) ** (4 // ring.deg) * (r * r * 2**40)
    if F.n == 2:
        x *= int(F.eps.trace()) ** 2 - 2 * int(F.eps.norm()) + 2
    m = -(-x.numerator // x.denominator)
    k = isqrt(m)
    return Fraction(k + (k * k < m), 2**20)


def _row_mul(mt, r1: list[int], r2: list[int]) -> list[int]:
    """The product of two elements given by their rows, through the
    structure constants mt[i][j] = row of b_i * b_j."""
    deg = len(r1)
    out = [0] * deg
    for i in range(deg):
        a = r1[i]
        if not a:
            continue
        for j in range(deg):
            b = r2[j]
            if not b:
                continue
            t = mt[i][j]
            ab = a * b
            for k in range(deg):
                out[k] += ab * t[k]
    return out


class LatticeIdeal:
    """Fractional ideal of the maximal order of a ring (F or K) as a scaled
    integer HNF lattice over the ring's Z-basis b_1..b_deg (Cohen, GTM 138,
    4.7).

    The ideal equals (rows of num)/den, canonical after gcd reduction, so
    equality and hashing are structural; it is integral iff den == 1.  The
    ring supplies `deg`, the integer structure constants `_mt` (_mt[i][j] is
    the row of b_i * b_j), the rows of the conjugates `_conj_mat`, the
    positive definite integer trace form `_trace_mat` (Tr(b_i conj b_j);
    conj is the identity on a totally real F), and
    `_to_order(x) -> (row, den)` for its elements.
    """

    __slots__ = ("ring", "num", "den", "_norm", "_red")

    def __init__(self, ring, num: list[list[int]], den: int):
        g = den
        for r in num:
            for x in r:
                g = gcd(g, x)
        if g > 1:
            num = [[x // g for x in r] for r in num]
            den //= g
        self.ring = ring
        self.num = num
        self.den = den
        self._norm = None
        self._red = None

    @classmethod
    def from_rows(cls, ring, rows: list[list[int]], den: int):
        h = hnf_lattice(rows)
        if len(h) != ring.deg:
            raise ZeroDivisionError("zero ideal")
        return cls(ring, h, den)

    @classmethod
    def unit(cls, ring):
        """The maximal order itself."""
        return cls(ring, _identity(ring.deg), 1)

    @classmethod
    def from_generators(cls, ring, gens):
        return cls.from_generator_rows(ring, *order_rows(ring, gens))

    @classmethod
    def from_generator_rows(cls, ring, rows: list[list[int]], den: int):
        """The ideal generated by the elements rows[i]/den, given by their
        rows over the ring's Z-basis: g * b for each basis element b is one
        product with _mt."""
        mt = ring._mt
        units = _identity(ring.deg)
        return cls.from_rows(ring, [_row_mul(mt, r, e) for r in rows for e in units], den)

    def key(self):
        return (self.den, tuple(tuple(r) for r in self.num))

    def norm(self) -> Fraction:
        """The absolute norm: the index of the lattice, over den^deg."""
        if self._norm is None:
            det = 1
            for i, r in enumerate(self.num):
                det *= r[i]
            self._norm = Fraction(abs(det), self.den**self.ring.deg)
        return self._norm

    def gram(self) -> tuple[int, list[list[int]]]:
        """The Gram matrix of the trace form on the basis rows, as the pair
        (den^2, num T num^T) that lattice.lll_reduce_gram takes."""
        rows = self.num
        T = self.ring._trace_mat
        return self.den * self.den, [
            [sum(a * b for a, b in zip(rt, s)) for s in rows] for rt in (vec_mat(r, T) for r in rows)
        ]

    def _short_rows(self, q_bound) -> list[list[int]]:
        """Integer rows, over den, of the nonzero z with Tr(z conj z) <= q_bound,
        one of each +-pair, on the ideal's one cached LLL reduction."""
        from .lattice import lll_reduce_gram, short_vectors

        if self._red is None:
            self._red = lll_reduce_gram(self.gram())
        return [vec_mat(v, self.num) for v in short_vectors(self._red, q_bound)]

    def unit_orbits(self, t) -> list[list[int]]:
        """The canonical_unit_row of each unit orbit of nonzero z in the ideal
        with |N(z)| <= t, as integer rows over den, in the order they are met
        in unit_window(ring, t), which every such orbit meets: Fincke-Pohst
        enumeration on the trace form (Cohen, GTM 138, Alg. 2.7.5), reduced
        modulo the units."""
        ring = self.ring
        cap = t * self.den**ring.deg  # |N(row/den)| <= t on the integer row
        orbits: dict = {}
        for row in self._short_rows(unit_window(ring, t)):
            if ring._abs_norm(row) <= cap:
                zr = canonical_unit_row(ring, row)
                orbits.setdefault(tuple(zr), zr)
        return list(orbits.values())

    def conj(self):
        rows = [vec_mat(r, self.ring._conj_mat) for r in self.num]
        return self.from_rows(self.ring, rows, self.den)

    def __mul__(self, other):
        ring = self.ring
        if isinstance(other, LatticeIdeal):
            rows = [_row_mul(ring._mt, r1, r2) for r1 in self.num for r2 in other.num]
            return self.from_rows(ring, rows, self.den * other.den)
        orow, den = ring._to_order(other)
        return self.from_rows(ring, [_row_mul(ring._mt, r, orow) for r in self.num], self.den * den)

    def __and__(self, other):
        """The intersection with another ideal of the same ring (the lcm of
        two integral ideals): over the common denominator D, the combinations
        of both row sets that sum to zero, read on the rows of self."""
        D = math.lcm(self.den, other.den)
        ra = [[x * (D // self.den) for x in r] for r in self.num]
        rb = [[x * (D // other.den) for x in r] for r in other.num]
        deg = self.ring.deg
        rows = [vec_mat(c[:deg], ra) for c in zspan_kernel(ra + rb)]
        return self.from_rows(self.ring, rows, D)

    def scale(self, r):
        """The ideal times the positive rational r."""
        r = Fraction(r)
        num = [[x * r.numerator for x in row] for row in self.num]
        return type(self)(self.ring, num, self.den * r.denominator)

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.unit(self.ring)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def contains(self, x) -> bool:
        row, den = self.ring._to_order(x)
        scaled = [c * self.den for c in row]
        if any(s % den for s in scaled):
            return False
        return echelon_solve(self.num, [s // den for s in scaled]) is not None

    def is_integral(self) -> bool:
        return self.den == 1

    def is_principal(self) -> bool:
        return self.principal_gen() is not None

    def __eq__(self, other):
        return (
            isinstance(other, LatticeIdeal)
            and self.ring == other.ring
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.ring, self.den, tuple(tuple(r) for r in self.num)))


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


class FIdeal(LatticeIdeal):
    """Fractional ideal of a base field, over the basis {1, omega}."""

    __slots__ = ()

    @property
    def F(self) -> Field:
        return self.ring

    def basis_elems(self) -> list[FElem]:
        if self.F.n == 1:
            return [_felem(self.F, self.num[0][0], 0, self.den)]
        return [_felem(self.F, r[0], r[1], self.den) for r in self.num]

    def inverse(self) -> "FIdeal":
        if self.F.n == 1:
            return FIdeal(self.F, [[self.den]], self.num[0][0])
        # a * conj(a) = N(a) for a real quadratic field
        return self.conj().scale(1 / self.norm())

    def __repr__(self):
        return f"FIdeal({self.num}/{self.den}, norm={self.norm()})"

    def valuation(self, prime: "PrimeIdeal") -> int:
        """Exact valuation at a prime of the base field: the least valuation
        of a basis element."""
        return _valuation(self.F, self.num, self.den, prime)

    def factor(self) -> list[tuple["PrimeIdeal", int]]:
        """The primes of nonzero valuation with their valuations, by
        ascending p and then in the order of F.splitting(p).primes.

        They lie over the primes dividing den or the norm of the integral
        ideal den times self; a fractional ideal such as P/P' can have norm 1."""
        nm = self.norm() * self.den**self.F.n
        out = []
        for p in sorted(set(prime_divisors(nm) + prime_divisors(self.den))):
            for pr in self.F.splitting(p).primes:
                v = self.valuation(pr)
                if v:
                    out.append((pr, v))
        return out

    def norm_form(self) -> tuple[int, int, int]:
        """(A, B, C) = N(x b0 + y b1)/N(J) for J = den * self and its HNF
        basis b0 = a + b omega, b1 = c omega, oriented like (1, omega).  A
        factor of negative norm turns it into (-A, B, -C) on the reoriented
        basis, so its form_cycle key names the class of the ideal."""
        F = self.F
        (a, b), (_, c) = self.num
        return F.norm_int(a, b) // (a * c), (F.c1 * a - 2 * F.c0 * b) // a, -F.c0 * c // a

    def principal_gen(self) -> FElem | None:
        """A generator, or None when the ideal is not principal.

        The cycle of the norm form decides and gives a generator g of
        J = den * self.  Of +-g eps^k, the one returned is the one the r1 scan
        (tests/oracles.principal_gen_by_scan) meets first: the least
        coordinate r1 on b1 with |r1| <= r1_max, then N > 0, then
        2 A r0 + B r1 >= 0.  The window holds the orbit's trace-form
        minimiser.  Along g eps^k, r1 = P eps^k + Q (N(eps)/eps)^k, whose
        values at even k and at odd k grow with the distance from one
        centre, so past two successive k outside, no k is inside.
        """
        F = self.F
        if F.n == 1:
            return F.elem(Fraction(self.num[0][0], self.den))
        A, B, C = self.norm_form()
        xy, _ = form_cycle(A, B, C)
        if xy is None:
            return None
        (a, b), (_, c) = self.num
        g = canonical_unit_row(F, [xy[0] * a, xy[0] * b + xy[1] * c])
        lim = math.sqrt(float(self.norm())) * F.eps.embed(0) * 1.0000001 + 1e-12
        b0, b1 = self.basis_elems()
        e00, e01 = b0.embed(0), b0.embed(1)
        e10, e11 = b1.embed(0), b1.embed(1)
        det = e00 * e11 - e01 * e10
        r1_max = int((abs(e00) + abs(e01)) * lim / abs(det)) + 2

        def coords(row: list[int]) -> tuple[int, int]:
            """(r0, r1) of the element of order row `row` on (b0, b1)."""
            return row[0] // a, (a * row[1] - b * row[0]) // (a * c)

        window = [g]
        for step in F._unit_steps:
            x, outside = g, 0
            while outside < 2:
                x = vec_mat(x, step)
                outside = outside + 1 if abs(coords(x)[1]) > r1_max else 0
                if not outside:
                    window.append(x)

        def scan_order(row: list[int]) -> tuple[int, bool, bool]:
            r0, r1 = coords(row)
            return r1, A * r0 * r0 + B * r0 * r1 + C * r1 * r1 < 0, 2 * A * r0 + B * r1 < 0

        best = min((w for x in window for w in (x, [-x[0], -x[1]])), key=scan_order)
        return _felem(F, best[0], best[1], self.den)


class PrimeIdeal(NamedTuple):
    """A prime of the base field above p; second_gen has valuation exactly 1,
    and tau is integral with ideal^-1 = o + (tau/p) o, which valuations
    multiply by: 1 when p is prime in o, else the conjugate of second_gen.
    Equality and hashing leave out tau, which ideal determines."""

    p: int
    e: int
    f: int
    ideal: FIdeal
    second_gen: FElem
    tau: FElem

    def norm(self) -> int:
        return self.p**self.f

    def __eq__(self, other):
        return isinstance(other, PrimeIdeal) and self[:5] == other[:5]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:5])

    def __repr__(self):
        return f"P({self.p};e={self.e},f={self.f})"


class SplittingType(NamedTuple):
    p: int
    primes: tuple[PrimeIdeal, ...]


def factor_prime(F: Field, p: int) -> SplittingType:
    """Kummer-Dedekind factorization of (p) via the minimal polynomial of omega.

    Z[omega] is the maximal order for both supported degrees, so the method
    applies at every prime.
    """
    if not is_prime_int(p):
        raise ValueError(f"{p} is not prime")
    if F.n == 1:
        idl = F.ideal(p)
        return SplittingType(p, (PrimeIdeal(p, 1, 1, idl, F.elem(p), F.one()),))
    c0, c1 = F.c0, F.c1
    if F.d_F % p == 0:
        # ramified: double root of x^2 - c1 x - c0 mod p
        if p == 2:
            r = next(r for r in range(2) if (r * r - c1 * r - c0) % 2 == 0)
        else:
            r = (c1 * pow(2, -1, p)) % p
        g = F.omega() - F.elem(r)
        idl = F.ideal(F.elem(p), g)
        assert idl.norm() == p
        pi = PrimeIdeal(p, 2, 1, idl, g, g.conj())
        return SplittingType(p, (pi,))
    # unramified: split iff disc is a QR mod p
    disc = c1 * c1 + 4 * c0  # equals d_F or d_F; nonzero mod p here
    if p == 2:
        roots = [r for r in range(2) if (r * r - c1 * r - c0) % 2 == 0]
        split = len(roots) == 2
        rts = roots
    else:
        s = sqrt_mod_p(disc % p, p)
        split = s is not None
        rts = [] if s is None else sorted({(c1 + s) * pow(2, -1, p) % p, (c1 - s) * pow(2, -1, p) % p})
    if not split:
        idl = F.ideal(p)
        return SplittingType(p, (PrimeIdeal(p, 1, 2, idl, F.elem(p), F.one()),))
    primes = []
    for r in rts:
        # lift r so that omega - r has valuation exactly 1 at this prime
        val = (r * r - c1 * r - c0) % (p * p)
        rr = r if val != 0 else r + p
        g = F.omega() - F.elem(rr)
        idl = F.ideal(F.elem(p), F.omega() - F.elem(r))
        assert idl.norm() == p
        primes.append(PrimeIdeal(p, 1, 1, idl, g, g.conj()))
    return SplittingType(p, tuple(primes))


def ideal_transversal(F: Field, idl: FIdeal):
    """Coset representatives of o_F / idl (idl integral)."""
    assert idl.is_integral()
    if F.n == 1:
        for x in range(idl.num[0][0]):
            yield F.elem(x)
        return
    for x in range(idl.num[0][0]):
        for y in range(idl.num[1][1]):
            yield F.elem(x, y)


def elem_with_valuation(idl: FIdeal, pr: PrimeIdeal, v: int) -> FElem:
    """A basis element of the fractional ideal with exact valuation v at pr."""
    for e in idl.basis_elems():
        if e.valuation(pr) == v:
            return e
    raise SearchBudgetExceeded(f"no basis element of valuation {v} at {pr}")


def prime_products(one, primes, bound):
    """Every product of powers of the given primes (records with .ideal and
    .norm()) of norm at most bound, as (ideal, norm), starting from the unit
    ideal `one`.

    Depth first: at prime i the product without it comes before its powers.
    Once no later prime fits under the bound, the product is yielded at once.
    """
    norms = [pr.norm() for pr in primes]
    least = norms + [bound + 1]  # least[i]: the smallest norm from prime i on
    for i in range(len(norms) - 1, -1, -1):
        least[i] = min(norms[i], least[i + 1])

    def rec(i, cur, nm):
        if nm * least[i] > bound:
            yield cur, nm
            return
        yield from rec(i + 1, cur, nm)
        while nm * norms[i] <= bound:
            nm *= norms[i]
            cur = cur * primes[i].ideal
            yield from rec(i + 1, cur, nm)

    return rec(0, one, 1)


def ideals_of_norm_up_to(F: Field, bound: int) -> list["FIdeal"]:
    """All integral ideals of norm in [2, bound], sorted by norm."""
    out = [idl for idl, nm in prime_products(F.unit_ideal(), F.primes_of_norm_up_to(bound), bound) if nm > 1]
    out.sort(key=lambda idl: idl.norm())
    return out
