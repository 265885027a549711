"""Totally imaginary quadratic extensions K = F(sqrt(delta)) of a real base field.

The maximal order is assembled from local data: at each prime the largest j
with an integral (b + sqrt(delta))/pi^j is found (odd primes: j = v(delta)//2
with b = 0; primes over 2: bounded residue search), and the global module
o_K = o_F + c^{-1}(b + sqrt(delta)) is glued by CRT.  Ideals of K are
field.LatticeIdeal lattices over the Z-basis of o_K, as ideals of F are over
{1, omega}; products, conjugates and trace forms run through precomputed
integer structure constants.

The class group is built by subgroup closure over the prime generators with
discrete-log bookkeeping, so conjugation (which is inversion on classes when
the base class group is trivial) and the orbit count come from the group
structure; a slower pairwise-partition fallback covers nontrivial base class
groups.

Fields with o_K^x != o_F^x (the finitely many unit-exceptional extensions,
F(zeta_6) = F(sqrt(-3)) among them) are constructed and flagged; the
classification machinery stamps their reports non-applicable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd, isqrt
from typing import NamedTuple

from .errors import (
    DecompositionFailed,
    NotIntegral,
    NotTotallyNegative,
    SearchBudgetExceeded,
)
from .field import (
    FElem,
    Field,
    FIdeal,
    LatticeIdeal,
    PrimeIdeal,
    elem_with_valuation,
    ideal_transversal,
    order_rows,
    prime_products,
    primes_up_to,
)
from .finitefield import ResidueField
from .imagquad import class_group_counts, reduced_forms
from .intmat import hnf_lattice, solve_exact, vec_mat, zspan_kernel, zspan_solve
from .lattice import lll_reduce_gram, short_vectors


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

    def abs_trace(self) -> Fraction:
        return self.rel_trace().trace()

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
        if not isinstance(delta, FElem):
            delta = F.elem(Fraction(delta))
        if not delta.is_integral():
            raise NotIntegral(f"delta = {delta} is not integral")
        if not delta.is_totally_negative():
            raise NotTotallyNegative(f"delta = {delta} is not totally negative")
        self.F = F
        self.delta = delta
        self.deg = 2 * F.n
        self._build_order()
        self._build_mult_tables()
        self._class_data = None
        self._counts = None
        self._kprime_cache: dict = {}
        self._local_cache: dict = {}

    # -- multiplication structure over the Z-basis of o_K ------------------------

    def _build_mult_tables(self):
        """Structure constants, conjugation matrix, and trace form of o_K.

        KIdeal rows live in coordinates over the order basis, so a module is
        integral exactly when its canonical denominator is 1, and covolumes
        are plain determinants.
        """
        deg = self.deg
        basis = self.order_basis
        amb = [z.coords() for z in basis]  # rows: ambient coordinates
        # column b of amb^-1 solves amb * x = e_b; amb^-1 is an integer matrix
        # because Z[omega, sqrt(delta)] lies in o_K
        cols = [solve_exact(amb, [int(a == b) for a in range(deg)]) for b in range(deg)]
        assert all(c.denominator == 1 for col in cols for c in col)
        self._order_mat = [[int(col[a]) for col in cols] for a in range(deg)]

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
        for i in range(deg):
            conj_rows.append(integral_row(basis[i].conj()))
            for j in range(deg):
                tr = (basis[i] * basis[j].conj()).abs_trace()
                assert tr.denominator == 1
                g[i][j] = int(tr)
        self._conj_mat = conj_rows
        self._trace_mat = g

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

    def ideal(self, *gens) -> "KIdeal":
        elems = [g if isinstance(g, KElem) else self.elem(g) for g in gens]
        return KIdeal.from_generators(self, elems)

    def extend_ideal(self, a: FIdeal) -> "KIdeal":
        gens = [KElem(self, e, self.F.zero()) for e in a.basis_elems()]
        return KIdeal.from_generators(self, gens)

    # -- primes ---------------------------------------------------------------------

    def _local_quadratic(self, pr: PrimeIdeal):
        """(w, rf, roots, kind): an integral w of K that generates o_K over
        o_F locally at pr, the residue field rf of pr, the roots in rf of
        X^2 - B X - C (B, C the residues of Tr(w) and -N(w), so that w
        reduces to one of them), and the splitting kind of pr in K, read
        from the number of roots (Cohen, GTM 138, 1.5).  Cached per base
        prime."""
        key = (pr.p, pr.second_gen)
        if key in self._local_cache:
            return self._local_cache[key]
        F = self.F
        j = -self.c_inv.valuation(pr)
        tau = elem_with_valuation(self.c_inv, pr, -j)
        w = KElem(self, tau * self.b_shift, tau)
        assert w.is_integral()
        rf = ResidueField(F, pr)
        B, C = rf.reduce_integral(w.rel_trace()), rf.reduce_integral(-w.rel_norm())
        roots = rf.quadratic_roots(B, C)
        kind = {2: "split", 1: "ramified", 0: "inert"}[len(roots)]
        ram = self.rel_disc.valuation(pr) > 0
        assert (kind == "ramified") == ram, f"residue roots vs discriminant at {pr}"
        self._local_cache[key] = w, rf, roots, kind
        return w, rf, roots, kind

    def primes_above(self, pr: PrimeIdeal) -> list[KPrime]:
        key = (pr.p, pr.second_gen)
        if key in self._kprime_cache:
            return self._kprime_cache[key]
        F = self.F
        w, rf, roots, kind = self._local_quadratic(pr)
        pK = self.extend_ideal(pr.ideal)
        out: list[KPrime] = []
        if kind == "inert":
            out.append(KPrime(pr, 2, False, pK))
        else:
            for r in roots:
                g = w - KElem(self, _lift_residue(F, rf, r), F.zero())
                ideal = KIdeal.from_generators(self, pK.basis_kelems() + [g])
                out.append(KPrime(pr, 1, kind == "ramified", ideal))
        for kp in out:
            expected = pr.norm() ** kp.rel_f
            assert kp.ideal.norm() == expected, (pr, kp.ideal.norm(), expected)
        self._kprime_cache[key] = out
        return out

    def splitting_kind(self, pr: PrimeIdeal) -> str:
        """'split', 'inert' or 'ramified', without building the primes above pr."""
        return self._local_quadratic(pr)[3]

    def kprimes_up_to(self, bound: float) -> list[KPrime]:
        out = []
        for p in primes_up_to(int(bound)):
            for pr in self.F.splitting(p).primes:
                if pr.norm() > bound:
                    continue
                for kp in self.primes_above(pr):
                    if kp.norm() <= bound:
                        out.append(kp)
        out.sort(key=lambda kp: (kp.norm(), kp.base.p, str(kp.base.second_gen), kp.ideal.key()))
        return out

    # -- class group -------------------------------------------------------------------

    def minkowski_bound(self) -> float:
        nk = self.deg
        fac = math.factorial(nk) / nk**nk
        return fac * (4 / math.pi) ** self.F.n * math.sqrt(self.abs_disc) * (1 + 1e-12)

    def class_data(self) -> "ClassData":
        if self._class_data is None:
            self._class_data = _compute_class_data(self)
        return self._class_data

    def integral_ideals_up_to(self, bound: float) -> list["KIdeal"]:
        """All integral ideals of norm in [1, bound] (prime products)."""
        uniq = {}
        for idl, _ in prime_products(self.maximal_order(), self.kprimes_up_to(bound), bound):
            uniq.setdefault(idl.key(), idl)
        return sorted(uniq.values(), key=lambda i: (i.norm(), i.key()))

    def __repr__(self):
        return f"{self.F}(sqrt({self.delta}))"


def make_cm(F: Field, delta) -> CMField:
    """Construct K = F(sqrt delta), delta integral and totally negative."""
    return CMField(F, delta if isinstance(delta, FElem) else F.elem(Fraction(delta)))


class KIdeal(LatticeIdeal):
    """Fractional ideal of K as an integer HNF lattice over the order basis,
    divided by one denominator."""

    __slots__ = ("_basis", "_relnorm", "_gram", "_red")

    def __init__(self, K: CMField, num: list[list[int]], den: int):
        super().__init__(K, num, den)
        self._basis = None
        self._relnorm = None
        self._gram = None
        self._red = None

    @property
    def K(self) -> CMField:
        return self.ring

    def basis_kelems(self) -> list[KElem]:
        if self._basis is None:
            ob = self.K.order_basis
            out = []
            for r in self.num:
                z = None
                for c, b in zip(r, ob):
                    if c:
                        t = b.scale(Fraction(c, self.den))
                        z = t if z is None else z + t
                out.append(z if z is not None else self.K.zero())
            self._basis = out
        return self._basis

    def rel_norm(self) -> FIdeal:
        """Norm ideal of F, generated by element norms."""
        if self._relnorm is None:
            bs = self.basis_kelems()
            gens = [z.rel_norm() for z in bs]
            for i in range(len(bs)):
                for jj in range(i + 1, len(bs)):
                    gens.append((bs[i] * bs[jj].conj()).rel_trace())
            self._relnorm = FIdeal.from_generators(self.K.F, gens)
        return self._relnorm

    def inverse(self) -> "KIdeal":
        nm = self.rel_norm()
        cj = self.conj()
        inv = self.K.extend_ideal(nm.inverse())
        return cj * inv

    def __repr__(self):
        return f"KIdeal(N={self.norm()})"

    # -- metric structure ---------------------------------------------------------

    def gram(self) -> list[list[Fraction]]:
        """Exact Gram matrix of Tr(z conj z) on the basis rows."""
        if self._gram is None:
            G = self.K._trace_mat
            n = len(self.num)
            d2 = self.den * self.den
            out = []
            for i in range(n):
                ri = self.num[i]
                row = []
                Gri = [sum(ri[a] * G[a][b] for a in range(n)) for b in range(n)]
                for j in range(n):
                    rj = self.num[j]
                    row.append(Fraction(sum(Gri[b] * rj[b] for b in range(n)), d2))
                out.append(row)
            self._gram = out
        return self._gram

    def shortest_vectors(self, q_bound) -> list[KElem]:
        """Nonzero z with Tr(z conj z) <= q_bound, one of each +-pair, on the
        module's one cached LLL reduction."""
        if self._red is None:
            self._red = lll_reduce_gram(self.gram())
        return [self._vec_to_elem(v) for v in short_vectors(self._red, q_bound)]

    def small_nonzero(self, bound: Fraction | None = None) -> KElem:
        """A nonzero element of least absolute norm among short vectors.

        The bound doubles until vectors appear; the first of equal norms wins.
        """
        if bound is None:
            base = float(2 * self.K.deg) * float(self.norm()) ** (1.0 / self.K.F.n) + 1.0
            bound = Fraction(math.ceil(base * 2**10), 2**10)
        vecs = []
        while not vecs:
            vecs = self.shortest_vectors(bound)
            bound = bound * 2
        return min(vecs, key=lambda z: z.abs_norm())

    def principal_gen(self) -> KElem | None:
        """Search z in the module with |N(z)| = N(module), unit-window bounded.

        Any generator moves into the window {Tr(z conj z) <= 2 sqrt(N) (eps+1/eps)}
        under multiplication by units, so an empty window certifies
        non-principality.
        """
        t = self.norm()
        for z in self.shortest_vectors(unit_window(self.K, t)):
            if z.abs_norm() == t:
                return z
        return None

    def is_principal(self) -> bool:
        return self.principal_gen() is not None

    def in_same_class(self, other: "KIdeal") -> bool:
        if self.K.F.h_F == 1:
            q = self * other.conj()
            q = q.scale(q.den)
            return q.is_principal()
        q = self * other.inverse()
        q = q.scale(q.den)
        return q.is_principal()

    def small_class_rep(self) -> "KIdeal":
        """Integral ideal of Minkowski-bounded norm in the same class."""
        q = self.scale(self.den) if self.den != 1 else self
        base = float(2 * q.norm() ** Fraction(1, self.K.F.n))
        z = q.small_nonzero(Fraction(math.ceil(base * self.K.F.n * 1.2 * 2**10), 2**10))
        red = (q.inverse() * z).conj()
        return red.scale(red.den)

    def _vec_to_elem(self, v) -> KElem:
        bs = self.basis_kelems()
        z = None
        for c, b in zip(v, bs):
            if c:
                t = b.scale(c)
                z = t if z is None else z + t
        return z


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


def _compute_class_data(K: CMField) -> ClassData:
    if K.F.h_F == 1:
        return _class_data_by_closure(K)
    return _class_data_by_partition(K)


def _class_data_by_closure(K: CMField) -> ClassData:
    """Subgroup closure over prime generators with discrete logs.

    Valid when the base class group is trivial: conjugation is then inversion
    on classes, and the orbit count equals (h + #2-torsion)/2.
    """
    bound = K.minkowski_bound()
    kps = K.kprimes_up_to(bound)
    gens: list[KPrime] = []
    seen_base = set()
    for kp in kps:
        if kp.rel_f == 2:
            continue  # inert primes extend base primes: principal over h_F = 1
        bkey = (kp.base.p, kp.base.second_gen)
        if bkey in seen_base:
            continue  # one prime per split pair; the other is its inverse class
        seen_base.add(bkey)
        gens.append(kp)
    k = len(gens)
    mo = K.maximal_order()
    elements: list[tuple[tuple[int, ...], KIdeal]] = [(tuple([0] * k), mo)]
    relations: list[list[int]] = []
    for i, g in enumerate(gens):
        cur = mo
        powers: list[KIdeal] = []
        d = 0
        rel = None
        while rel is None:
            cur = (cur * g.ideal).small_class_rep()
            d += 1
            for vec, rep in elements:
                if cur.in_same_class(rep):
                    rvec = [0] * k
                    rvec[i] = d
                    for t in range(k):
                        rvec[t] -= vec[t]
                    rel = rvec
                    break
            if rel is None:
                powers.append(cur)
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
                    prod = (pw * rep).small_class_rep()
                    new_elements.append((tuple(nv), prod))
            elements = new_elements
    # canonical residue reduction for dlog vectors modulo the relation lattice
    rel_rows = hnf_lattice(relations) if relations else []

    def reduce_vec(v):
        v = list(v)
        for r in rel_rows:
            c = next(kk for kk in range(k) if r[kk] != 0)
            q = v[c] // r[c]
            if q:
                for t in range(k):
                    v[t] -= q * r[t]
        return tuple(v)

    index = {reduce_vec(vec): i for i, (vec, rep) in enumerate(elements)}
    assert len(index) == len(elements), "discrete logs do not separate classes"
    conj_pairs = []
    for vec, rep in elements:
        inv = reduce_vec([-x for x in vec])
        conj_pairs.append(index[inv])
    reps = [rep for _, rep in elements]
    return ClassData(reps, conj_pairs, list(reps))


def _class_data_by_partition(K: CMField) -> ClassData:
    """Pairwise-partition fallback (nontrivial base class group)."""
    ideals = K.integral_ideals_up_to(K.minkowski_bound())
    reps: list[KIdeal] = []
    for idl in ideals:
        if not any(idl.in_same_class(r) for r in reps):
            reps.append(idl)
    conj_pairs = []
    for r in reps:
        rc = r.conj()
        idx = next((ri for ri, r2 in enumerate(reps) if rc.in_same_class(r2)), None)
        if idx is None:
            raise SearchBudgetExceeded("conjugate class not found among representatives")
        conj_pairs.append(idx)
    im_indices = {0}
    base_images = []
    for a in K.F.class_reps[1:]:
        ext = K.extend_ideal(a)
        base_images.append(next(ri for ri, r in enumerate(reps) if ext.in_same_class(r)))
    changed = True
    while changed:
        changed = False
        for bi in base_images:
            for i in list(im_indices):
                prod = reps[i] * reps[bi]
                kk = next(ri for ri, r in enumerate(reps) if prod.in_same_class(r))
                if kk not in im_indices:
                    im_indices.add(kk)
                    changed = True
    assert len(reps) % len(im_indices) == 0
    N_reps = []
    covered: set[int] = set()
    for i, r in enumerate(reps):
        if i in covered:
            continue
        N_reps.append(r)
        for j in im_indices:
            prod = reps[i] * reps[j]
            covered.add(next(ri for ri, r2 in enumerate(reps) if prod.in_same_class(r2)))
    assert len(N_reps) * len(im_indices) == len(reps)
    return ClassData(reps, conj_pairs, N_reps)


class ClassCounts(NamedTuple):
    h_K: int
    h: int  # h_K / |image of Cl(F) in Cl(K)|
    orbits: int  # conjugation orbits on Cl(K)


def class_counts(K: CMField) -> ClassCounts:
    """h_K, h and the conjugation orbit count: the one entry point for counts.

    Degree-1 fields go through the integer-only lattice pipeline of imagquad,
    which builds no representatives (h = h_K over Q); other fields read them
    off the class data.  They are computed once per K.
    """
    if K._counts is None:
        if K.F.n == 1:
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


def norm_class_reps(K: CMField) -> list[KIdeal]:
    """One ideal in each class of Cl(K) modulo the image of Cl(F).

    Over Q they come from imagquad's reduced forms (a, b, c) of discriminant
    D = -N(d_K/F), as the ideals a Z + ((-b + sqrt D)/2) Z, and no class data
    is built; otherwise they are the class data's N_reps.  The two paths
    choose different ideals, so only readers of class invariants may call
    this: classify and decompose_ideal print or return their
    representatives and read the class data themselves.
    """
    if K.F.n == 1:
        D = -K.rel_disc_norm
        r = D / K.delta.a  # sqrt D = s sqrt(delta) with s^2 = r
        s = Fraction(isqrt(r.numerator), isqrt(r.denominator))
        assert s * s == r
        return [
            KIdeal.from_generators(K, [K.elem(a), K.elem(Fraction(-b, 2), s / 2)])
            for a, b, _ in reduced_forms(D)
        ]
    return K.class_data().N_reps


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


def exceptional_extensions(F: Field) -> list[CMField]:
    """All totally imaginary quadratic K/F with o_K^x != o_F^x, up to isomorphism.

    These are F(zeta_6) = F(sqrt -3) together with F(sqrt v) for totally
    negative unit products v.
    """
    return [make_cm(F, v) for v in _exceptional_radicands(F)]


# -- decomposition of ideals against the class representatives ------------------------


def line_colon_ideal(K: CMField, alpha: KElem, module: KIdeal) -> FIdeal:
    """The fractional F-ideal {x in F : x*alpha in module}.

    Computed as (module intersect F*alpha) / alpha: basis vectors of the
    module landing on the line are integer kernel combinations of the
    cross products with alpha."""
    F = K.F
    bs = module.basis_kelems()
    rows, _ = order_rows(F, [b.x * alpha.y - b.y * alpha.x for b in bs])
    ker = zspan_kernel(rows)
    gens = []
    for comb in ker:
        v = None
        for c, b in zip(comb, bs):
            if c:
                piece = b.scale(c)
                v = piece if v is None else v + piece
        if v is None or v.is_zero():
            continue
        x = v / alpha
        assert x.y.is_zero(), "intersection vector not on the line"
        gens.append(x.x)
    if not gens:
        raise DecompositionFailed("module meets the line trivially")
    return FIdeal.from_generators(F, gens)


def canonical_unit_rep(K: CMField, alpha: KElem) -> KElem:
    """Deterministic representative of alpha modulo o_F^x = {+-eps^k}.

    The trace form q(z) = Tr(z conj z) is strictly convex along the unit
    orbit, so its exact minimizer (ties broken by coordinate key) is an
    orbit invariant; the sign is then fixed by the larger coordinate tuple.
    """
    F = K.F
    if F.n == 2:

        def q(z: KElem) -> Fraction:
            return (z * z.conj()).abs_trace()

        eps = F.eps
        eps_inv = F.one() / eps
        cur, qc = alpha, q(alpha)
        up, dn = cur * eps, cur * eps_inv
        qu, qd = q(up), q(dn)
        # a step reuses two of the three values: after a step up, the new
        # down-neighbour is the old point and the new point the old up
        while True:
            if qu < qc:
                dn, qd, cur, qc = cur, qc, up, qu
                up = cur * eps
                qu = q(up)
            elif qd < qc:
                up, qu, cur, qc = cur, qc, dn, qd
                dn = cur * eps_inv
                qd = q(dn)
            else:
                break
        best = cur
        for cand, qv in ((up, qu), (dn, qd)):
            if qv == qc:
                ck = max(tuple(cand.coords()), tuple((-cand).coords()))
                bk = max(tuple(best.coords()), tuple((-best).coords()))
                if ck > bk:
                    best = cand
        alpha = best
    key = tuple(alpha.coords())
    neg = tuple((-alpha).coords())
    return alpha if key >= neg else -alpha


def decompose_ideal(K: CMField, M: KIdeal):
    """Write an integral module as a * (o alpha) * N_i^{-1}, alpha canonical.

    Returns (i, a: FIdeal, alpha: KElem) with o*alpha saturated in N_i;
    recomposition is verified exactly.
    """
    if K.F.h_F != 1:
        raise DecompositionFailed("decomposition implemented for trivial base class group")
    cd = K.class_data()
    for i, Ni in enumerate(cd.N_reps):
        prod = M * Ni
        prod_int = prod.scale(prod.den)
        gen = prod_int.principal_gen()
        if gen is None:
            continue
        alpha = gen.scale(Fraction(1, prod.den))
        b = line_colon_ideal(K, alpha, Ni)
        g = b.principal_gen()
        if g is None:
            raise DecompositionFailed("coefficient ideal not principal over h_F = 1 base")
        alpha_sat = canonical_unit_rep(K, alpha * g)
        a_ideal = b.inverse()
        recomposed = (
            K.extend_ideal(a_ideal) * KIdeal.from_generators(K, [alpha_sat]) * Ni.inverse()
        )
        if recomposed.num == M.num and recomposed.den == M.den:
            return (i, a_ideal, alpha_sat)
    raise DecompositionFailed("no representative matched")


# -- enumeration of rank-1 lines (for the series and measure layers) -------------------


def unit_window(K: CMField, t: Fraction) -> Fraction:
    """Bound on Tr(z conj z) that every unit orbit with |N(z)| <= t meets.

    For n = 1 the trace form is 2|N(z)|; for n = 2 a unit multiple has
    Tr(z conj z) <= 2 sqrt(t) (eps + 1/eps), rounded up to 2^-20.
    """
    if K.F.n == 1:
        return 2 * t
    e1 = K.F.eps.embed(0)
    bf = 2.0 * math.sqrt(float(t)) * (e1 + 1.0 / e1) * (1 + 1e-9)
    return Fraction(math.ceil(bf * 2**20), 2**20)


def line_norms(K: CMField, Ni: KIdeal, x_max: Fraction):
    """Values |N(alpha)|/N(N_i) <= x_max over lines o*alpha in N_i, alpha up to units.

    Returns (lines, exclude): lines is the sorted list of (value, alpha), alpha
    canonical, and exclude the alpha of the first saturated line (the one of
    least value), or None when no line is saturated.
    """
    nN = Ni.norm()
    t_abs = Fraction(x_max) * nN
    seen: dict = {}
    for z in Ni.shortest_vectors(unit_window(K, t_abs)):
        if z.abs_norm() > t_abs:
            continue
        zc = canonical_unit_rep(K, z)
        seen.setdefault(tuple(zc.coords()), zc)
    lines = [(zc.abs_norm() / nN, zc) for zc in seen.values()]
    lines.sort(key=lambda t: (t[0], tuple(t[1].coords())))
    for _, zc in lines:
        b = line_colon_ideal(K, zc, Ni)
        if b.norm() == 1 and b.is_integral():
            return lines, zc
    return lines, None


def on_line(z: KElem, w: KElem) -> bool:
    """z lies on the F-line through w (cross product of (x, y) pairs vanishes)."""
    return (z.x * w.y - z.y * w.x).is_zero()


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


def _lift_residue(F: Field, rf: ResidueField, r) -> FElem:
    if rf.f == 1:
        return F.elem(r[0])
    return F.elem(r[0], r[1])
