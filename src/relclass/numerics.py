"""Directed-rounding interval arithmetic for certified constants.

Intervals carry float endpoints; every arithmetic result is widened by one ulp
per endpoint, and the transcendental functions add a relative guard for the
libm error, so a computed interval always contains the exact value.
"""

from __future__ import annotations

import math
from fractions import Fraction

_INF = math.inf


def _down(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


class Interval:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        if hi is None:
            hi = lo
        if isinstance(lo, Fraction):
            f = float(lo)
            lo = _down(f) if Fraction(f) > lo else f
        if isinstance(hi, Fraction):
            f = float(hi)
            hi = _up(f) if Fraction(f) < hi else f
        self.lo = float(lo)
        self.hi = float(hi)
        if not self.lo <= self.hi:
            kind = "NaN endpoint in" if math.isnan(self.lo) or math.isnan(self.hi) else "empty"
            raise ValueError(f"{kind} interval [{lo}, {hi}]")

    @staticmethod
    def exact(x) -> "Interval":
        """Interval for an int/Fraction, widened only if the float conversion is inexact."""
        if isinstance(x, int) and abs(x) < 2**53:
            return Interval(float(x), float(x))
        return Interval(Fraction(x), Fraction(x))

    def __repr__(self):
        return f"[{self.lo!r}, {self.hi!r}]"

    def __add__(self, other):
        o = _coerce(other)
        return Interval(_down(self.lo + o.lo), _up(self.hi + o.hi))

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        o = _coerce(other)
        cands = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Interval(_down(min(cands)), _up(max(cands)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o.lo <= 0.0 <= o.hi:
            raise ZeroDivisionError("division by interval containing zero")
        cands = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return Interval(_down(min(cands)), _up(max(cands)))

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("integer powers only; use ipow/iroot for real exponents")
        if k < 0:
            return Interval(1.0) / self.__pow__(-k)
        out = Interval(1.0)
        base = self
        kk = k
        while kk:
            if kk & 1:
                out = out * base
            base = base * base
            kk >>= 1
        return out


def _coerce(x) -> Interval:
    if isinstance(x, Interval):
        return x
    if isinstance(x, (int, Fraction)):
        return Interval.exact(x)
    return Interval(float(x), float(x))


_GUARD = 4.0  # ulps of slack for libm calls


def _guarded(x: float, direction: int) -> float:
    y = x
    for _ in range(int(_GUARD)):
        y = math.nextafter(y, -_INF if direction < 0 else _INF)
    return y


def iexp(x: Interval) -> Interval:
    return Interval(_guarded(math.exp(x.lo), -1), _guarded(math.exp(x.hi), +1))


def ilog(x: Interval) -> Interval:
    if x.lo <= 0:
        raise ValueError("log of interval touching zero")
    return Interval(_guarded(math.log(x.lo), -1), _guarded(math.log(x.hi), +1))


def isqrt_iv(x: Interval) -> Interval:
    if x.lo < 0:
        raise ValueError("sqrt of negative interval")
    return Interval(_guarded(math.sqrt(x.lo), -1), _guarded(math.sqrt(x.hi), +1))


def ipow(x: Interval, e: float) -> Interval:
    """x**e for a positive interval and a real exponent."""
    if x.lo <= 0:
        raise ValueError("ipow needs a positive base interval")
    vals = (x.lo**e, x.hi**e)
    return Interval(_guarded(min(vals), -1), _guarded(max(vals), +1))


PI = Interval(_guarded(math.pi, -1), _guarded(math.pi, +1))
E = Interval(_guarded(math.e, -1), _guarded(math.e, +1))
EULER_GAMMA = Interval(0.5772156649015328, 0.5772156649015330)
LOG2_E = Interval(_guarded(1.0 / math.log(2.0), -1), _guarded(1.0 / math.log(2.0), +1))
GAMMA_3_2 = Interval(0.8862269254527579, 0.8862269254527582)  # Gamma(3/2) = sqrt(pi)/2


def imax(a: Interval, b: Interval) -> Interval:
    return Interval(max(a.lo, b.lo), max(a.hi, b.hi))


def iabs(a: Interval) -> Interval:
    if a.lo >= 0:
        return a
    if a.hi <= 0:
        return -a
    return Interval(0.0, max(-a.lo, a.hi))


def factorial_iv(k: int) -> Interval:
    out = Interval(1.0)
    for i in range(2, k + 1):
        out = out * Interval.exact(i)
    return out
