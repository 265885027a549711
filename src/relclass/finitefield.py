"""Residue fields of base-field primes: GF(p) and GF(p^2) with square roots.

Elements are pairs (a0, a1) over F_p modulo the minimal polynomial of omega
(x^2 - c1 x - c0) in the inert case; a1 is always 0 when f = 1.
"""

from __future__ import annotations

from math import gcd

from .errors import SearchBudgetExceeded
from .field import Field, FElem, PrimeIdeal, sqrt_mod_p


class ResidueField:
    """GF(p^f) attached to a prime of the base field, with the reduction map."""

    def __init__(self, F: Field, prime: PrimeIdeal):
        self.F = F
        self.prime = prime
        self.p = prime.p
        self.f = prime.f
        self.q = prime.p**prime.f
        if self.f == 1:
            # omega maps to a root of its minimal polynomial mod p
            if F.n == 1:
                self.omega_image = 0
            else:
                g = prime.second_gen  # omega - r (or p itself in degree-1 situations)
                if g.b != 0:
                    self.omega_image = int((-g.a / g.b) % self.p)
                else:
                    self.omega_image = 0
        else:
            self.omega_image = None  # omega is the residue generator itself

    # elements are tuples (a0, a1) mod p; a1 = 0 unless f = 2
    def zero(self):
        return (0, 0)

    def one(self):
        return (1, 0)

    def make(self, a0: int):
        return (a0 % self.p, 0)

    def add(self, x, y):
        return ((x[0] + y[0]) % self.p, (x[1] + y[1]) % self.p)

    def sub(self, x, y):
        return ((x[0] - y[0]) % self.p, (x[1] - y[1]) % self.p)

    def mul(self, x, y):
        if self.f == 1:
            return ((x[0] * y[0]) % self.p, 0)
        c0, c1 = self.F.c0 % self.p, self.F.c1 % self.p
        a = (x[0] * y[0] + x[1] * y[1] * c0) % self.p
        b = (x[0] * y[1] + x[1] * y[0] + x[1] * y[1] * c1) % self.p
        return (a, b)

    def pow(self, x, k: int):
        out = self.one()
        base = x
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def inv(self, x):
        if x == (0, 0):
            raise ZeroDivisionError
        return self.pow(x, self.q - 2)

    def is_zero(self, x) -> bool:
        return x[0] == 0 and x[1] == 0

    def is_square(self, x) -> bool:
        if self.is_zero(x):
            return True
        if self.p == 2:
            return True  # squaring is a bijection in characteristic 2
        return self.pow(x, (self.q - 1) // 2) == self.one()

    def sqrt(self, x):
        """A square root in GF(q), or None."""
        if self.is_zero(x):
            return self.zero()
        if self.p == 2:
            # Frobenius inverse: sqrt = x^(q/2)
            return self.pow(x, self.q // 2)
        if self.f == 1:
            r = sqrt_mod_p(x[0], self.p)
            return None if r is None else (r, 0)
        if not self.is_square(x):
            return None
        # Tonelli-Shanks over GF(q)
        q1 = self.q - 1
        s = 0
        qq = q1
        while qq % 2 == 0:
            qq //= 2
            s += 1
        # GF(p) lies in the squares of GF(p^2), so the nonresidue is sought
        # among a0 + omega: their norms are the values of an irreducible
        # quadratic, and about half of them are nonsquares mod p
        z = next((a0, 1) for a0 in range(self.p) if not self.is_square((a0, 1)))
        m, c = s, self.pow(z, qq)
        t, r = self.pow(x, qq), self.pow(x, (qq + 1) // 2)
        while t != self.one():
            t2, i = t, 0
            while t2 != self.one():
                t2 = self.mul(t2, t2)
                i += 1
            b = self.pow(c, 1 << (m - i - 1))
            m, c = i, self.mul(b, b)
            t, r = self.mul(t, c), self.mul(r, b)
        return r

    def quadratic_roots(self, B, C):
        """Roots of X^2 - B X - C in GF(q), with multiplicity collapsed."""
        if self.p == 2:
            roots = []
            for a0 in range(2):
                for a1 in range(2 if self.f == 2 else 1):
                    x = (a0, a1)
                    if self.sub(self.mul(x, x), self.add(self.mul(B, x), C)) == self.zero():
                        roots.append(x)
            return roots
        disc = self.add(self.mul(B, B), self.mul(self.make(4), C))
        sd = self.sqrt(disc)
        if sd is None:
            return []
        inv2 = self.inv(self.make(2))
        r1 = self.mul(self.add(B, sd), inv2)
        r2 = self.mul(self.sub(B, sd), inv2)
        return [r1] if r1 == r2 else sorted({r1, r2})

    # -- reduction ----------------------------------------------------------

    def reduce_integral(self, x: FElem):
        """Image of an integral element."""
        assert x.is_integral()
        a, b = x.na, x.nb
        if self.f == 1:
            return ((a + b * self.omega_image) % self.p, 0)
        return (a % self.p, b % self.p)

    def reduce(self, x: FElem):
        """Image of any x with v_prime(x) >= 0 (denominators handled)."""
        F, p = self.F, self.p
        d = x.den
        num = F.elem(x.na, x.nb)  # x * d, integral
        correction = self.one()
        guard = 0
        while d % p == 0:
            guard += 1
            if guard > 64:  # pragma: no cover
                raise SearchBudgetExceeded("residue reduction loop")
            if num.na % p == 0 and num.nb % p == 0:
                num = F.elem(num.na // p, num.nb // p)
                d //= p
                continue
            # split prime: clear the conjugate-prime denominator
            t = self.prime.second_gen.conj()
            num = num * t
            correction = self.mul(correction, self.reduce_integral(t))
            g = gcd(num.na, num.nb, d)
            if g > 1:
                num = F.elem(num.na // g, num.nb // g)
                d //= g
        img = self.reduce_integral(num)
        dinv = self.inv(self.make(d % p))
        out = self.mul(img, dinv)
        if correction != self.one():
            out = self.mul(out, self.inv(correction))
        return out

    def unit_residue(self, x: FElem, val: int):
        """Image of x * pi^(-val), pi the stored uniformizer; nonzero by construction."""
        pi = self.prime.second_gen
        y = x
        for _ in range(val):
            y = y / pi
        for _ in range(-val):
            y = y * pi
        return self.reduce(y)

    def legendre(self, x) -> int:
        """Quadratic character of a nonzero residue: +1 square, -1 nonsquare."""
        if self.is_zero(x):
            return 0
        if self.p == 2:
            return 1
        return 1 if self.is_square(x) else -1
