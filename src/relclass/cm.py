"""Totally imaginary quadratic extensions K = F(sqrt(delta)) of a real base field.

The maximal order is assembled from local data: at each prime the largest j
with an integral (b + sqrt(delta))/pi^j is found (odd primes: j = v(delta)//2
with b = 0; primes over 2: bounded residue search), and the global module
o_K = o_F + c^{-1}(b + sqrt(delta)) is glued by CRT.  Ideals of K are
field.LatticeIdeal lattices over the Z-basis of o_K, as ideals of F are over
{1, omega}; products, conjugates and trace forms run through precomputed
integer structure constants.

The class group is built by one subgroup closure with discrete-log
bookkeeping, for every base class number: the extensions of the classes of F
come first, then the prime generators, so conjugation (A -> A^-1 N(A) o_K, a
linear map on logs) and the image of Cl(F) come from the group structure.
The closure builds each generator when it reaches it, and stops at h_K where
a class number formula certifies h_K (over Q, and for biquadratic K without
extra units).

Fields with o_K^x != o_F^x (the finitely many unit-exceptional extensions,
F(zeta_6) = F(sqrt(-3)) among them) are constructed and flagged; the
classification machinery stamps their reports non-applicable.

This module holds what classify and every corpus row run.  The line scan of
the norm counts and the measure mu_K (line_norms, norm_class_reps) lives in
relclass.dseries, and the decomposition of ideals against the class
representatives, which no command runs, in relclass.constructions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from typing import NamedTuple

from .errors import (
    DecompositionFailed,
    LemmaViolation,
    SearchBudgetExceeded,
)
from .field import (
    FElem,
    Field,
    FIdeal,
    LatticeIdeal,
    PrimeIdeal,
    _felem,
    _row_mul,
    cm_radicand,
    elem_with_valuation,
    ideal_transversal,
    omega_root,
    residue_char,
    sqrt_mod_p,
    unit_steps,
    unit_window,
)
from .intmat import hnf_lattice, solve_exact, vec_mat, zspan_kernel, zspan_solve


class KElem:
    """Element x + y*sqrt(delta) of K, with x, y in F."""

    __slots__ = ("K", "x", "y")

    def __init__(self, K: "CMField", x: FElem, y: FElem):
        self.K = K
        self.x = x
        self.y = y

    def __add__(self, o):
        return KElem(self.K, self.x + o.x, self.y + o.y)

    def __sub__(self, o):
        return KElem(self.K, self.x - o.x, self.y - o.y)

    def __neg__(self):
        return KElem(self.K, -self.x, -self.y)

    def __mul__(self, o):
        if isinstance(o, FElem):
            return KElem(self.K, self.x * o, self.y * o)
        d = self.K.delta
        return KElem(
            self.K,
            self.x * o.x + self.y * o.y * d,
            self.x * o.y + self.y * o.x,
        )

    def scale(self, r) -> "KElem":
        f = self.K.F.elem(r)
        return KElem(self.K, self.x * f, self.y * f)

    def conj(self) -> "KElem":
        return KElem(self.K, self.x, -self.y)

    def rel_norm(self) -> FElem:
        return self.x * self.x - self.K.delta * self.y * self.y

    def rel_trace(self) -> FElem:
        return self.x + self.x

    def abs_norm(self) -> Fraction:
        return self.rel_norm().norm()

    def is_zero(self) -> bool:
        return self.x.is_zero() and self.y.is_zero()

    def is_integral(self) -> bool:
        return self.rel_trace().is_integral() and self.rel_norm().is_integral()

    def inverse(self) -> "KElem":
        n = self.rel_norm()
        if n.is_zero():
            raise ZeroDivisionError
        c = self.conj()
        inv = self.K.F.one() / n
        return KElem(self.K, c.x * inv, c.y * inv)

    def __truediv__(self, o):
        if isinstance(o, FElem):
            return KElem(self.K, self.x / o, self.y / o)
        return self * o.inverse()

    def __eq__(self, o):
        return isinstance(o, KElem) and self.K is o.K and self.x == o.x and self.y == o.y

    def __hash__(self):
        return hash((id(self.K), self.x, self.y))

    def coords(self) -> list[Fraction]:
        """Coordinates over {1, omega, sqrt d, omega sqrt d} (length 2n)."""
        if self.K.F.n == 1:
            return [self.x.a, self.y.a]
        return [self.x.a, self.x.b, self.y.a, self.y.b]

    def __repr__(self):
        return f"({self.x}) + ({self.y})*sqrt(d)"


class KPrime(NamedTuple):
    """Prime of K above a base prime; rel_f is the residue degree of K/F."""

    base: PrimeIdeal
    rel_f: int
    ramified: bool
    ideal: "KIdeal"

    def norm(self) -> int:
        return self.base.norm() ** self.rel_f

    def __repr__(self):
        kind = "ram" if self.ramified else ("inert" if self.rel_f == 2 else "split")
        return f"KP({self.base.p},{kind},N={self.norm()})"


class CMField:
    def __init__(self, F: Field, delta: FElem):
        self.F = F
        self.delta = cm_radicand(F, delta)
        self.deg = 2 * F.n
        self._build_order()
        self._build_mult_tables()
        self._class_data = None
        self._counts = None
        self._local_cache: dict = {}
        self._line_scans: dict = {}  # dseries.line_norms: ideal key -> widest scan

    # -- multiplication structure over the Z-basis of o_K ------------------------

    def _build_mult_tables(self):
        """Structure constants, conjugation matrix, and trace forms of o_K.

        KIdeal rows live in coordinates over the order basis, so a module is
        integral exactly when its canonical denominator is 1, and covolumes
        are plain determinants.  Besides the absolute trace form
        Tr(b_i conj b_j) of the Gram matrices, the tables keep the relative
        one, Tr_{K/F}(b_i conj b_j) in o_F, as the integer coefficients of
        the relative norm form: relative norms of ideals and absolute norms
        of elements are read off it from integer rows.
        """
        deg = self.deg
        basis = self.order_basis
        amb = [z.coords() for z in basis]  # rows: ambient coordinates
        # column b of amb^-1 solves amb * x = e_b; amb^-1 is an integer matrix
        # because Z[omega, sqrt(delta)] lies in o_K
        cols = [solve_exact(amb, [int(a == b) for a in range(deg)]) for b in range(deg)]
        assert all(c.denominator == 1 for col in cols for c in col)
        self._order_mat = [[int(col[a]) for col in cols] for a in range(deg)]
        # amb itself over one denominator, for _from_order
        self._amb_den = math.lcm(*(c.denominator for row in amb for c in row))
        self._amb = [[int(c * self._amb_den) for c in row] for row in amb]

        def integral_row(z: KElem) -> tuple[int, ...]:
            row, den = self._to_order(z)
            assert all(c % den == 0 for c in row)
            return tuple(c // den for c in row)

        table = [[None] * deg for _ in range(deg)]
        for i in range(deg):
            for j in range(i, deg):
                t = integral_row(basis[i] * basis[j])
                table[i][j] = t
                table[j][i] = t
        self._mt = table
        conj_rows = []
        g = [[0] * deg for _ in range(deg)]
        terms = []
        for i in range(deg):
            conj_rows.append(integral_row(basis[i].conj()))
            for j in range(deg):
                tr = (basis[i] * basis[j].conj()).rel_trace()
                assert tr.is_integral()
                g[i][j] = int(tr.trace())
                if j == i:  # Tr(b conj b) = 2 N(b)
                    assert tr.na % 2 == 0 and tr.nb % 2 == 0
                    terms.append((i, i, tr.na // 2, tr.nb // 2))
                elif j > i and not tr.is_zero():
                    terms.append((i, j, tr.na, tr.nb))
        self._conj_mat = conj_rows
        self._trace_mat = g
        # N_{K/F}(sum x_i b_i) = sum over i <= j of x_i x_j (a + b omega)
        # for (i, j, a, b) in _norm_form: the relative trace form
        # Tr_{K/F}(b_i conj b_j) off the diagonal, half of it on it
        self._norm_form = terms
        self._unit_rows = [[int(i == j) for j in range(deg)] for i in range(deg)]
        self._unit_steps = unit_steps(self.F, table, deg)

    def _rel_norm_row(self, row) -> list[int]:
        """N_{K/F}(z) = x + y*omega as [x, y] (y = 0 over Q), for the integral
        z of order row `row`."""
        x = y = 0
        for i, j, a, b in self._norm_form:
            t = row[i] * row[j]
            if t:
                x += a * t
                y += b * t
        return [x, y]

    def _abs_norm(self, row) -> int:
        """|N_{K/Q}(z)| for the integral z of order row `row`: F's norm of
        its relative norm."""
        return abs(self.F.norm_int(*self._rel_norm_row(row)))

    def _ambient(self, row) -> list[int]:
        """The ambient numerators of the element of order row `row`: its
        coordinates (x, y) over F, times _amb_den, flattened."""
        return vec_mat(row, self._amb)

    def _from_order(self, row, den: int) -> "KElem":
        """The element with coordinates row/den over the order basis."""
        F = self.F
        c = self._ambient(row)
        D = den * self._amb_den
        if F.n == 1:
            return KElem(self, _felem(F, c[0], 0, D), _felem(F, c[1], 0, D))
        return KElem(self, _felem(F, c[0], c[1], D), _felem(F, c[2], c[3], D))

    def _to_order(self, z: KElem) -> tuple[list[int], int]:
        """(row, den): the coordinates of z over the order basis are row/den,
        with den the common denominator of z's ambient coordinates."""
        x, y = z.x, z.y
        d = x.den * y.den // gcd(x.den, y.den)
        sx, sy = d // x.den, d // y.den
        if self.F.n == 1:
            c = (x.na * sx, y.na * sy)
        else:
            c = (x.na * sx, x.nb * sx, y.na * sy, y.nb * sy)
        return vec_mat(c, self._order_mat), d

    # -- order construction ------------------------------------------------------

    def _build_order(self):
        F = self.F
        delta = self.delta
        local: list[tuple[PrimeIdeal, int, FElem]] = []
        c_ideal = F.unit_ideal()
        ram_data = []
        for pr, v4d in F.ideal(delta * F.elem(4)).factor():
            if pr.p != 2:
                j = v4d // 2  # v(4 delta) = v(delta) at an odd prime
                b = F.zero()
            else:
                j, b = self._two_adic_j(pr, v4d)
            if j > 0:
                local.append((pr, j, b))
                c_ideal = c_ideal * (pr.ideal**j)
            vdisc = v4d - 2 * j
            if vdisc > 0:
                ram_data.append((pr, vdisc))
        self.c_inv = c_ideal.inverse()
        self.b_shift = self._crt_shift(local)
        self.rel_disc_primes = sorted(
            ram_data, key=lambda t: (t[0].p, t[0].norm(), str(t[0].second_gen))
        )
        self.rel_disc = F.ideal(delta * F.elem(4)) * (self.c_inv**2)
        assert self.rel_disc.is_integral()
        self.rel_disc_norm = int(self.rel_disc.norm())
        self.abs_disc = F.d_F**2 * self.rel_disc_norm
        beta = KElem(self, self.b_shift, F.one())
        basis: list[KElem] = [KElem(self, t, F.zero()) for t in F.maximal_order_basis()]
        for t in self.c_inv.basis_elems():
            basis.append(beta * t)
        for z in basis:
            assert z.is_integral()
        self.order_basis = basis
        self._max_order: "KIdeal | None" = None
        self._order_covol: Fraction | None = None
        self.unit_equal = self._units_equal()

    def _two_adic_j(self, pr: PrimeIdeal, v4d: int) -> tuple[int, FElem]:
        F = self.F
        jmax = v4d // 2
        for j in range(jmax, 0, -1):
            p2j = pr.ideal ** (2 * j)
            pj = pr.ideal**j
            for b in ideal_transversal(F, p2j):
                if pj.contains(b + b) and p2j.contains(b * b - self.delta):
                    return (j, b)
        return (0, F.zero())

    def _crt_shift(self, local) -> FElem:
        F = self.F
        nontrivial = [(pr, j, b) for (pr, j, b) in local if not b.is_zero()]
        if not nontrivial:
            return F.zero()
        modulus_odd = F.unit_ideal()
        for pr, j, b in local:
            if b.is_zero() and j > 0:
                modulus_odd = modulus_odd * (pr.ideal**j)
        sol = F.zero()
        mod_sol = modulus_odd
        for pr, j, b in nontrivial:
            mod_new = pr.ideal ** (2 * j)
            e = _split_one(F, mod_sol, mod_new)
            sol = sol + (b - sol) * e
            mod_sol = mod_sol * mod_new
        return sol

    def _units_equal(self) -> bool:
        for v in _exceptional_radicands(self.F):
            if (self.delta * v).is_square():
                return False
        return True

    # -- elements -----------------------------------------------------------------

    def elem(self, x, y=0) -> KElem:
        F = self.F
        xx = x if isinstance(x, FElem) else F.elem(x)
        yy = y if isinstance(y, FElem) else F.elem(y)
        return KElem(self, xx, yy)

    def zero(self) -> KElem:
        return self.elem(0, 0)

    def one(self) -> KElem:
        return self.elem(1, 0)

    def maximal_order(self) -> "KIdeal":
        if self._max_order is None:
            self._max_order = KIdeal.unit(self)
        return self._max_order

    def extend_ideal(self, a: FIdeal) -> "KIdeal":
        """a o_K: o_F's basis opens the order basis, so the rows of a, padded
        with zeros, are its generators' order rows."""
        pad = [0] * self.F.n
        return KIdeal.from_generator_rows(self, [r + pad for r in a.num], a.den)

    # -- primes ---------------------------------------------------------------------

    def _residue_roots(self, pr: PrimeIdeal, w: KElem) -> list[FElem]:
        """Representatives in o_F of the roots in o/pr of X^2 - Tr(w) X + N(w),
        ascending.  At odd p with f = 1 they come from a square root of the
        discriminant's image in F_p.  At p = 2 or f = 2 a scan of o/pr stops
        at the first root r1, and the other is Tr(w) - r1 reduced into the
        transversal (x mod h00 by the row (h00, h01), then y mod h11), so it
        comes later in the scan."""
        F = self.F
        t, n = w.rel_trace(), w.rel_norm()
        p = pr.p
        if p == 2 or pr.f == 2:
            r1 = next((r for r in ideal_transversal(F, pr.ideal) if pr.ideal.contains(r * r - t * r + n)), None)
            if r1 is None:
                return []
            r2, num = t - r1, pr.ideal.num
            q, x = divmod(r2.na, num[0][0])
            r2 = F.elem(x) if F.n == 1 else F.elem(x, (r2.nb - q * num[0][1]) % num[1][1])
            return [r1] if r2 == r1 else [r1, r2]
        R = omega_root(pr, 1)
        disc = t * t - 4 * n
        s = sqrt_mod_p(disc.na + disc.nb * R, p)
        b, inv2 = t.na + t.nb * R, (p + 1) // 2
        return [F.elem(r) for r in sorted({(b + s) * inv2 % p, (b - s) * inv2 % p})]

    def _local(self, pr: PrimeIdeal) -> list:
        """The cache entry [splitting kind, w, primes above or None] of pr,
        where w is an integral element of K that generates o_K over o_F
        locally at pr.

        pr ramifies iff it divides the relative discriminant.  Otherwise w
        reduces modulo the primes above pr to the roots of
        X^2 - Tr(w) X + N(w) in o/pr (Kummer-Dedekind; Cohen, GTM 138,
        4.8), so pr splits iff there are two: at odd p iff the discriminant
        is a square mod pr."""
        key = (pr.p, pr.second_gen)
        entry = self._local_cache.get(key)
        if entry is None:
            j = -self.c_inv.valuation(pr)
            tau = elem_with_valuation(self.c_inv, pr, -j)
            w = KElem(self, tau * self.b_shift, tau)
            assert w.is_integral()
            if self.rel_disc.valuation(pr) > 0:
                kind = "ramified"
            elif pr.p == 2:
                kind = "split" if self._residue_roots(pr, w) else "inert"
            else:
                t, n = w.rel_trace(), w.rel_norm()
                kind = "split" if residue_char(pr, t * t - 4 * n) == 1 else "inert"
            entry = self._local_cache[key] = [kind, w, None]
        return entry

    def primes_above(self, pr: PrimeIdeal) -> list[KPrime]:
        entry = self._local(pr)
        kind, w, out = entry
        if out is not None:
            return out
        pK = self.extend_ideal(pr.ideal)
        out = []
        if kind == "inert":
            out.append(KPrime(pr, 2, False, pK))
        else:
            roots = self._residue_roots(pr, w)
            assert len(roots) == (1 if kind == "ramified" else 2), f"residue roots vs discriminant at {pr}"
            for r in roots:
                # pr o_K + g o_K: pK is an o_K-module, so its Z-basis serves,
                # beside g times the order basis
                g = w - KElem(self, r, self.F.zero())
                grow, den = self._to_order(g)
                rows = [[x * den for x in row] for row in pK.num]
                rows += [_row_mul(self._mt, grow, e) for e in self._unit_rows]
                ideal = KIdeal.from_rows(self, rows, den).two_element()
                out.append(KPrime(pr, 1, kind == "ramified", ideal))
        for kp in out:
            expected = pr.norm() ** kp.rel_f
            assert kp.ideal.norm() == expected, (pr, kp.ideal.norm(), expected)
        entry[2] = out
        return out

    def splitting_kind(self, pr: PrimeIdeal) -> str:
        """'split', 'inert' or 'ramified', without building the primes above pr."""
        return self._local(pr)[0]

    # -- class group -------------------------------------------------------------------

    def minkowski_bound(self) -> float:
        nk = self.deg
        fac = math.factorial(nk) / nk**nk
        return fac * (4 / math.pi) ** self.F.n * math.sqrt(self.abs_disc) * (1 + 1e-12)

    def class_data(self) -> "ClassData":
        if self._class_data is None:
            self._class_data = _class_data_by_closure(self)
        return self._class_data

    def __repr__(self):
        return f"{self.F}(sqrt({self.delta}))"


def make_cm(F: Field, delta) -> CMField:
    """Construct K = F(sqrt delta), delta integral and totally negative."""
    return CMField(F, delta)


class KIdeal(LatticeIdeal):
    """Fractional ideal of K as an integer HNF lattice over the order basis,
    divided by one denominator."""

    __slots__ = ("_basis", "_relnorm", "_conj", "_gens")

    def __init__(self, K: CMField, num: list[list[int]], den: int):
        super().__init__(K, num, den)
        self._basis = None
        self._relnorm = None
        self._conj = None
        self._gens = None  # (l, alpha): the ideal is l o_K + alpha o_K, alpha a row

    @property
    def K(self) -> CMField:
        return self.ring

    def basis_kelems(self) -> list[KElem]:
        if self._basis is None:
            self._basis = [self.K._from_order(r, self.den) for r in self.num]
        return self._basis

    def rel_norm(self) -> FIdeal:
        """Norm ideal of F, generated by the N(z_i) and Tr_{K/F}(z_i conj z_j)
        of the basis rows z_i over den, read off the integer relative norm
        form as rows over den^2."""
        if self._relnorm is None:
            K = self.K
            rows = self.num
            norms = [K._rel_norm_row(r) for r in rows]
            gens = list(norms)
            for i, r in enumerate(rows):
                for j in range(i + 1, len(rows)):
                    # Tr(z conj w) = N(z + w) - N(z) - N(w)
                    s = K._rel_norm_row([a + b for a, b in zip(r, rows[j])])
                    gens.append([u - v - w for u, v, w in zip(s, norms[i], norms[j])])
            gens = [g[: K.F.n] for g in gens]
            self._relnorm = FIdeal.from_generator_rows(K.F, gens, self.den * self.den)
        return self._relnorm

    def conj(self) -> "KIdeal":
        """The conjugate ideal, cached both ways; it inherits a two-element
        form."""
        if self._conj is None:
            c = self._conj = super().conj()
            c._conj = self
            if self._gens is not None:
                c._gens = self._conj_gens()
        return self._conj

    def two_element(self) -> "KIdeal":
        """Find and keep a two-element form l o_K + alpha o_K of this integral
        ideal (Cohen, GTM 138, 4.7.2), so that its products take 2 * deg rows
        where they take deg^2; returns self.

        l is the least positive integer in the ideal, and alpha the first
        combination of basis rows with coefficients in {-1, 0, 1} (fewest
        rows first) with gcd(N(alpha)/N(a), l^deg/N(a)) = 1:
        then the quotient of a by l o_K + alpha o_K divides two ideals of
        coprime norms, so it is trivial.  Without such an alpha the ideal
        keeps its n^2-row products.  The conjugate ideal shares the form."""
        if self._gens is not None or self.den != 1:
            return self
        K = self.K
        num = self.num
        deg = K.deg
        # l e_0 = y H with H = num upper triangular, so l is the least common
        # denominator of the solution y of y H = e_0; y = Y/q on integers
        Y, q = [], 1
        for j in range(deg):
            h = num[j][j]
            s = sum(Yi * num[i][j] for i, Yi in enumerate(Y))
            Y = [Yi * h for Yi in Y] + [q * int(j == 0) - s]
            q *= h
        l = q // gcd(q, *Y)
        na = q  # the product of the pivots
        rest = l**deg // na
        for alpha in _combinations(num):
            if gcd(K._abs_norm(alpha) // na, rest) == 1:
                self._gens = (l, alpha)
                if self._conj is not None:
                    self._conj._gens = self._conj_gens()
                break
        return self

    def _conj_gens(self) -> tuple[int, list[int]]:
        l, alpha = self._gens
        return l, vec_mat(alpha, self.K._conj_mat)

    def __mul__(self, other):
        if isinstance(other, KIdeal):
            a, b = (self, other) if self._gens is not None else (other, self)
            if a._gens is not None:
                l, alpha = a._gens
                mt = self.K._mt
                rows = [[l * x for x in r] for r in b.num] + [_row_mul(mt, alpha, r) for r in b.num]
                return KIdeal.from_rows(self.K, rows, self.den * other.den)
        return super().__mul__(other)

    def inverse(self) -> "KIdeal":
        nm = self.rel_norm()
        cj = self.conj()
        inv = self.K.extend_ideal(nm.inverse())
        return cj * inv

    def __repr__(self):
        return f"KIdeal(N={self.norm()})"

    # -- metric structure ---------------------------------------------------------

    def _small_row(self, bound: Fraction) -> list[int]:
        """The row of a nonzero element of least absolute norm among short
        vectors.  The bound doubles until vectors appear; the first of equal
        norms wins."""
        rows = []
        while not rows:
            rows = self._short_rows(bound)
            bound = bound * 2
        return min(rows, key=self.K._abs_norm)

    def small_nonzero(self) -> KElem:
        """A nonzero element of least absolute norm among short vectors."""
        base = float(2 * self.K.deg) * float(self.norm()) ** (1.0 / self.K.F.n) + 1.0
        bound = Fraction(math.ceil(base * 2**10), 2**10)
        return self.K._from_order(self._small_row(bound), self.den)

    def principal_gen(self) -> KElem | None:
        """Search z in the module with |N(z)| = N(module), unit-window bounded.

        Any generator moves into unit_window(K, N) under multiplication by
        units, so an empty window certifies non-principality.  Norms are
        read off the integer rows; only the generator becomes an element.
        """
        t = self.norm()
        K = self.K
        target = t * self.den**K.deg
        for row in self._short_rows(unit_window(K, t)):
            if K._abs_norm(row) == target:
                return K._from_order(row, self.den)
        return None

    def in_same_class(self, other: "KIdeal") -> bool:
        """Over h_F = 1, conj(other) = N(other) other^-1 with N(other) principal."""
        q = self * (other.conj() if self.K.F.h_F == 1 else other.inverse())
        return q.scale(q.den).is_principal()

    def small_class_rep(self) -> "KIdeal":
        """Integral ideal of small norm in the same class.

        For a short z in q = den * self, q^-1 z is integral, and its conjugate
        R is q conj(z) N(q)^-1 o_K because q conj(q) = N(q) o_K.  Its rows are
        the products of q's rows, conj(z) and the basis of N(q)^-1: one HNF,
        and no inverse of an ideal of K.  R lies in the class of q times that
        of N(q)^-1 o_K, which is trivial over h_F = 1.  Otherwise R is
        multiplied by a o_K for the class representative a of F with N(R) a
        principal, since N(R) = N(z) N(q)^-1 lies in the class of N(q)^-1.
        """
        q = self.scale(self.den) if self.den != 1 else self
        K = self.K
        F = K.F
        n = F.n
        base = float(2 * q.norm() ** Fraction(1, n))
        z = q._small_row(Fraction(math.ceil(base * n * 1.2 * 2**10), 2**10))
        mt = K._mt
        zc = vec_mat(z, K._conj_mat)
        inv = q.rel_norm().inverse()
        pad = [0] * n
        w = [_row_mul(mt, zc, r + pad) for r in inv.num]
        R = KIdeal.from_rows(K, [_row_mul(mt, r, x) for r in q.num for x in w], inv.den)
        if F.h_F > 1:
            j = F.inverse_class(R.rel_norm())
            if j:
                R = R * K.extend_ideal(F.class_reps[j])
        return R


class ClassData(NamedTuple):
    """Class representatives of K, the conjugation action on them, and
    representatives of Cl(K) modulo the image of Cl(F)."""

    reps: list[KIdeal]
    conj_pairs: list[int]  # conj_pairs[i]: index of the class of conj(reps[i])
    N_reps: list[KIdeal]

    @property
    def h_K(self) -> int:
        return len(self.reps)

    @property
    def h(self) -> int:
        return len(self.N_reps)

    @property
    def orbit_reps(self) -> list[KIdeal]:
        """The first representative of each conjugation orbit."""
        seen = set()
        out = []
        for i, j in enumerate(self.conj_pairs):
            if i not in seen:
                seen.update((i, j))
                out.append(self.reps[i])
        return out

    @property
    def orbits(self) -> int:
        return len(self.orbit_reps)


def _class_data_by_closure(K: CMField) -> ClassData:
    """Subgroup closure over generators with discrete logs (Cohen, GTM 138,
    ch. 6), for every h_F.

    The generators come from _closure_generators, built as the loop reaches
    them.  The loop stops once it holds h_K classes when _certified_h_K
    knows h_K: the closure proves its classes distinct and the formula that
    there are no others, and later generators would only add relations.
    Conjugation A -> A^-1 N(A) o_K is, on logs, v -> -v - sum_g v_g e_j(g),
    with e_j the log of a_j o_K (e_0 = 0) and N(g) a_j principal: inversion
    over h_F = 1.  N_reps holds the first class of each coset of the image
    of Cl(F), logs reduced modulo the relations and the e_j.
    """
    F = K.F
    count = _certified_h_K(K)
    gens = _closure_generators(K)
    mo = K.maximal_order()
    # logs grow by one coordinate per generator taken
    elements: list[tuple[tuple[int, ...], KIdeal]] = [((), mo)]
    relations: list[list[int]] = []
    # conj(g) lies in the class -[g] - [gens[shift[g]]], or -[g] when shift[g] < 0
    shift: list[int] = []
    while len(elements) != count:
        g = next(gens, None)
        if g is None:
            break
        i = len(shift)
        shift.append(F.inverse_class(g.rel_norm()) - 1 if F.h_F > 1 else -1)
        elements = [(vec + (0,), rep) for vec, rep in elements]
        cur = mo
        powers: list[KIdeal] = []
        d = 0
        rel = None
        while rel is None:
            cur = (cur * g).small_class_rep()
            d += 1
            for vec, rep in elements:
                if cur.in_same_class(rep):
                    rel = [-x for x in vec]
                    rel[i] = d
                    break
            if rel is None:
                powers.append(cur.two_element())
            if d > 10_000:
                raise SearchBudgetExceeded("generator order runaway")
        relations.append(rel)
        if powers:
            new_elements = list(elements)
            for e in range(1, d):
                pw = powers[e - 1]
                for vec, rep in elements:
                    nv = list(vec)
                    nv[i] += e
                    prod = (pw * rep).small_class_rep().two_element()
                    new_elements.append((tuple(nv), prod))
            elements = new_elements
    if count is not None and len(elements) != count:
        raise LemmaViolation(f"the closure holds {len(elements)} classes where the class number formula gives {count}")
    k = len(shift)
    relations = [r + [0] * (k - len(r)) for r in relations]
    rel_rows = hnf_lattice(relations) if relations else []
    index = {_reduce(vec, rel_rows): i for i, (vec, rep) in enumerate(elements)}
    assert len(index) == len(elements), "discrete logs do not separate classes"
    conj_pairs = []
    for vec, rep in elements:
        c = [-x for x in vec]
        for t, s in enumerate(shift):
            if s >= 0:
                c[s] -= vec[t]
        conj_pairs.append(index[_reduce(c, rel_rows)])
    # the first generators are the extensions of F's nontrivial classes
    unit = [[int(t == i) for t in range(k)] for i in range(min(len(F.class_reps) - 1, k))]
    image_rows = hnf_lattice(relations + unit) if unit else rel_rows
    cosets: dict[tuple[int, ...], KIdeal] = {}
    for vec, rep in elements:
        cosets.setdefault(_reduce(vec, image_rows), rep)
    return ClassData([rep for _, rep in elements], conj_pairs, list(cosets.values()))


def _closure_generators(K: CMField):
    """The closure's generators, each built when the closure reaches it.

    The extensions a o_K of F's nontrivial class representatives come first,
    so the image of Cl(F) is the first subgroup built; then, by (norm, p,
    second_gen), one prime above each base prime that splits or ramifies
    below the Minkowski bound, the first by HNF key of a split pair.  An
    inert prime lies in the image, and the second prime of a split pair in
    the image times the first.
    """
    F = K.F
    for a in F.class_reps[1:]:
        yield K.extend_ideal(a).two_element()
    bound = K.minkowski_bound()
    base = F.primes_of_norm_up_to(bound)
    base.sort(key=lambda pr: (pr.norm(), pr.p, str(pr.second_gen)))
    for pr in base:
        if K.splitting_kind(pr) != "inert":
            yield min((kp.ideal for kp in K.primes_above(pr)), key=KIdeal.key)


def _certified_h_K(K: CMField) -> int | None:
    """h_K from a class number formula, or None where none applies.

    Over Q it counts Gauss's reduced forms (read from the counts when
    class_counts ran first).  Over Q(sqrt m) with rational delta, K is the
    biquadratic Q(sqrt m, sqrt delta), and Kuroda's formula
    2 h_K = Q h(m) h(delta) h(m delta) holds (Lemmermeyer, Acta Arith. 72
    (1995)).  Its unit index Q is 1 when o_K^x = o_F^x: then w_K = 2 and
    E_K = +-E_F.
    """
    F = K.F
    if F.n == 1:
        if K._counts is not None:
            return K._counts.h_K
        from .imagquad import class_group_counts

        return class_group_counts(-K.rel_disc_norm)[0]
    if K.delta.nb or not K.unit_equal:
        return None
    from .imagquad import class_group_counts, field_disc

    d = K.delta.na
    return F.h_F * class_group_counts(field_disc(d))[0] * class_group_counts(field_disc(F.m * d))[0] // 2


def _reduce(v, rows) -> tuple[int, ...]:
    """The canonical residue of the vector v modulo the lattice of the HNF
    rows."""
    v = list(v)
    for r in rows:
        c = next(t for t, x in enumerate(r) if x)
        q = v[c] // r[c]
        if q:
            v = [a - q * b for a, b in zip(v, r)]
    return tuple(v)


class ClassCounts(NamedTuple):
    h_K: int
    h: int  # h_K / |image of Cl(F) in Cl(K)|
    orbits: int  # conjugation orbits on Cl(K)


def class_counts(K: CMField) -> ClassCounts:
    """h_K, h and the conjugation orbit count: the one entry point for counts.

    Degree-1 fields count Gauss's reduced forms of discriminant
    -rel_disc_norm through imagquad, which builds no representatives (h = h_K
    over Q); other fields read them off the class data.  They are computed
    once per K.
    """
    if K._counts is None:
        if K.F.n == 1:
            from .imagquad import class_group_counts

            h_K, orbits = class_group_counts(-K.rel_disc_norm)
            K._counts = ClassCounts(h_K, h_K, orbits)
        else:
            cd = K.class_data()
            K._counts = ClassCounts(cd.h_K, cd.h, cd.orbits)
    return K._counts


def lower_bound_t(K: CMField) -> tuple[int, int]:
    """(t, 2^(t-1)) with t the number of prime divisors of the relative
    discriminant; the bound 2^(t+n-1)/2^n <= h_K is asserted."""
    t = len(K.rel_disc_primes)
    bound = 2 ** (t + K.F.n - 1) // K.F.unit_sq_index
    h_K = class_counts(K).h_K
    assert bound <= h_K, f"genus bound {bound} exceeds h_K = {h_K}"
    return t, bound


# -- unit-exceptional extensions ----------------------------------------------------


def _exceptional_radicands(F: Field) -> list[FElem]:
    """Totally negative v (mod squares) whose sqrt generates extra units."""
    cands = [F.elem(-1), F.elem(-3)]
    if F.n == 2:
        eps = F.eps
        if eps.is_totally_positive():
            cands.append(-eps)
    out: list[FElem] = []
    for v in cands:
        if not v.is_totally_negative():
            continue
        if not any((v * w).is_square() for w in out):
            out.append(v)
    return out


# -- lines of K over F --------------------------------------------------------------


def line_colon_ideal(K: CMField, alpha: KElem, module: KIdeal) -> FIdeal:
    """The fractional F-ideal {x in F : x*alpha in module}, the F-part of
    module * alpha^-1.

    o_F's basis opens the order basis, so an element lies in F iff its order
    coordinates past the first n vanish: the F-part is the kernel of those
    coordinates on the product's rows, read on the first n."""
    n = K.F.n
    arow, aden = K._to_order(alpha.inverse())
    rows = [_row_mul(K._mt, r, arow) for r in module.num]
    ker = zspan_kernel([r[n:] for r in rows])
    return FIdeal.from_rows(K.F, [vec_mat(c, rows)[:n] for c in ker], module.den * aden)


# -- small helpers -------------------------------------------------------------------


def _split_one(F: Field, a: FIdeal, b: FIdeal) -> FElem:
    """e in a with 1 - e in b (a, b coprime integral ideals)."""
    assert a.den == 1 and b.den == 1
    rows_a = [list(r) for r in a.num]
    rows_b = [list(r) for r in b.num]
    one = [1] + [0] * (F.n - 1)
    sol = zspan_solve(rows_a + rows_b, one)
    if sol is None:
        raise DecompositionFailed("ideals not coprime")
    e = F.zero()
    for c, r in zip(sol[: len(rows_a)], rows_a):
        if F.n == 1:
            e = e + F.elem(c * r[0])
        else:
            e = e + F.elem(c * r[0], c * r[1])
    return e


def _combinations(rows):
    """The nonzero combinations of rows with coefficients in {-1, 0, 1}, up
    to sign: by number of rows, then in the order of itertools.combinations,
    and at each size with every sign pattern whose first sign is +."""
    for k in range(1, len(rows) + 1):
        for pick in combinations(rows, k):
            for signs in product((1, -1), repeat=k - 1):
                out = list(pick[0])
                for s, r in zip(signs, pick[1:]):
                    out = [a + s * b for a, b in zip(out, r)]
                yield out

