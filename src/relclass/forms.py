"""Binary quadratic forms on rank-2 modules over the base ring.

A form lives on M = o*alpha + a*beta with coefficient triple (a, b, c); its
discriminant and norm ideals are patched from local data, fundamentality is
decided prime by prime (with the quadratic-residue-mod-4 search at primes
over 2), and definite fundamental forms correspond to ideal classes of
K = F(sqrt(b^2-4ac)) up to conjugation.

Genus characters are local norm-residue symbols of represented values, all in
closed form: tame symbols at odd primes, signs at real places, and at a prime
over 2 either Hilbert reciprocity (when it is the only one) or Serre's formula
over Q_2 (when 2 splits).

This is the code classify runs.  Representability, genus prescription and
the unique-line search, which only the acceptance gate and the unit tests
reach, live in relclass.constructions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .cm import CMField, KElem, KIdeal, class_counts, line_colon_ideal, make_cm
# re-exported: benchmark spans and acceptance tests name forms.lower_bound_t
from .cm import lower_bound_t  # noqa: F401
from .errors import (
    DegenerateForm,
    LemmaViolation,
    NontrivialBaseClassGroup,
    NoRepresentedValueFound,
    NotFundamental,
    SearchBudgetExceeded,
)
from .field import (
    FElem,
    Field,
    FIdeal,
    PrimeIdeal,
    elem_with_valuation,
    ideal_transversal,
    omega_root,
    order_rows,
    prime_divisors,
    residue_char,
)
from .intmat import zspan_solve


class PseudoForm(NamedTuple):
    """q(x alpha + y beta) = a x^2 + b xy + c y^2 on o*alpha + steinitz*beta."""

    F: Field
    steinitz: FIdeal
    a: FElem
    b: FElem
    c: FElem

    def field_disc(self) -> FElem:
        return self.b * self.b - 4 * self.a * self.c

    def disc_ideal(self) -> FIdeal:
        """Product of the local discriminant ideals; equals (b^2-4ac) * steinitz^2."""
        d = self.field_disc()
        if d.is_zero():
            raise DegenerateForm("zero discriminant")
        return self.F.ideal(d) * (self.steinitz * self.steinitz)

    def norm_ideal(self) -> FIdeal:
        """Ideal generated by represented values: (a) + b*steinitz + c*steinitz^2."""
        F = self.F
        gens = [self.a]
        for t in self.steinitz.basis_elems():
            gens.append(self.b * t)
        for t in (self.steinitz * self.steinitz).basis_elems():
            gens.append(self.c * t)
        gens = [g for g in gens if not g.is_zero()]
        return FIdeal.from_generators(F, gens)

    def value(self, x: FElem, y: FElem) -> FElem:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def is_definite(self) -> bool:
        d = self.field_disc()
        if d.is_zero():
            raise DegenerateForm("zero discriminant")
        return d.is_totally_negative()

    def is_positive_definite(self) -> bool:
        return self.is_definite() and self.a.is_totally_positive()

    def scaled(self, u: FElem) -> "PseudoForm":
        return PseudoForm(self.F, self.steinitz, self.a * u, self.b * u, self.c * u)

    def module_lattice(self) -> list[tuple[FElem, FElem]]:
        """Z-basis of the module as (x, y) coordinate pairs."""
        F = self.F
        out = [(t, F.zero()) for t in F.maximal_order_basis()]
        out += [(F.zero(), s) for s in self.steinitz.basis_elems()]
        return out

    def key(self):
        return (
            self.steinitz.key(),
            self.a.coords(),
            self.b.coords(),
            self.c.coords(),
        )


# -- fundamentality ------------------------------------------------------------------


def is_quadratic_residue_mod4(F: Field, d: FElem, pr: PrimeIdeal) -> bool:
    """Whether u^2 = d mod 4 o_p is solvable, with u allowed anywhere in o_p.

    (u + 2w)^2 = u^2 mod 4, so representatives of o/(2 * pr) decide the
    condition exactly; the test on each candidate is an exact ideal
    membership at pr."""
    two = F.ideal(F.elem(2))
    four_p = (two * two).valuation(pr)
    for u in ideal_transversal(F, two * pr.ideal):
        diff = u * u - d
        if diff.is_zero() or diff.valuation(pr) >= four_p:
            return True
    return False


def is_fundamental_local(F: Field, d: FElem, pr: PrimeIdeal) -> bool:
    """The local fundamentality test for a p-integral d of valuation >= 0.

    Odd p: d not in p^2.  p | 2: quadratic residue mod 4, and either pi^2
    does not divide d or d/pi^2 is not a residue mod 4 (any u in o_p is
    allowed in the residue test).

    is_fundamental passes d* = d t^2/n^2 with v(t) = v(steinitz) and
    v(n) = v(norm ideal), so v(d*) is the valuation of the ideal
    D* = disc ideal / norm ideal^2, which is integral because
    (b^2 - 4ac) steinitz^2 lies in the square of the norm ideal.  At an odd
    prime not dividing D*, v(d*) = 0 and the test holds trivially.  (The
    norm ideal counts: the form (1/3, 0, 3) over Q has discriminant -4 and
    d* = -36 at 3.)"""
    v = d.valuation(pr)
    assert v >= 0
    if pr.p != 2:
        return v <= 1
    if not is_quadratic_residue_mod4(F, d, pr):
        return False
    if v < 2:
        return True
    d2 = d / (pr.second_gen * pr.second_gen)
    return not is_quadratic_residue_mod4(F, d2, pr)


def is_fundamental(Q: PseudoForm) -> bool:
    """Fundamentality of a definite form, local tests at all relevant primes."""
    F = Q.F
    d = Q.field_disc()
    if d.is_zero():
        raise DegenerateForm("zero discriminant")
    nq = Q.norm_ideal()
    for pr in _relevant_primes(Q, nq):
        t_a = elem_with_valuation(Q.steinitz, pr, Q.steinitz.valuation(pr))
        n_t = elem_with_valuation(nq, pr, nq.valuation(pr))
        d_star = d * t_a * t_a / (n_t * n_t)
        if not is_fundamental_local(F, d_star, pr):
            return False
    return True


def _relevant_primes(Q: PseudoForm, nq: FIdeal) -> list[PrimeIdeal]:
    """The primes of F above 2 or above a prime dividing the norm of the
    integral ideal D* = disc ideal / nq^2 (nq the norm ideal), by ascending
    p: at any other prime is_fundamental_local holds trivially.  That norm is
    |N(b^2 - 4ac)| N(steinitz)^2 / N(nq)^2, the one integer trial-divided;
    the norms of a, b and c can be far larger."""
    nm = abs(Q.field_disc().norm()) * (Q.steinitz.norm() / nq.norm()) ** 2
    assert nm.denominator == 1
    ps = {2, *prime_divisors(nm.numerator)}
    return [pr for p in sorted(ps) for pr in Q.F.splitting(p).primes]


def form_field(Q: PseudoForm) -> CMField:
    """K = F(sqrt(b^2 - 4ac)), via an integral totally negative scaling."""
    d = Q.field_disc()
    delta = d * Q.F.elem(d.den * d.den)
    return make_cm(Q.F, delta)


# -- correspondence -------------------------------------------------------------------


def free_module_basis(K: CMField, A: KIdeal) -> tuple[KElem, KElem]:
    """A free o_F-basis (alpha, beta) of a rank-2 module over an h_F = 1 base.

    beta spans the sqrt(delta)-content; alpha generates the intersection with F.
    """
    F = K.F
    if F.h_F != 1:
        raise NontrivialBaseClassGroup("free bases need h_F = 1; pseudo-bases are not implemented")
    vs = A.basis_kelems()
    # content ideal of the sqrt(delta)-coordinates; h_F = 1 makes it principal
    ygens = [v.y for v in vs if not v.y.is_zero()]
    C = FIdeal.from_generators(F, ygens)
    g = C.principal_gen()
    if g is None:
        raise SearchBudgetExceeded("content generator not found")
    # beta = sum c_i (v_i t) with integral coefficients and y-part exactly g
    mults = F.maximal_order_basis()
    pieces = [v * KElem(K, t, F.zero()) for v in vs for t in mults]
    rows, _ = order_rows(F, [z.y for z in pieces] + [g])
    target = rows.pop()
    sol = zspan_solve(rows, target)
    if sol is None:
        raise SearchBudgetExceeded("content not attained by module combination")
    beta = None
    for c, z in zip(sol, pieces):
        if c:
            piece = z.scale(c)
            beta = piece if beta is None else beta + piece
    A0 = line_colon_ideal(K, K.one(), A)  # the intersection with F
    alpha_f = A0.principal_gen()
    if alpha_f is None:
        raise SearchBudgetExceeded("intersection generator not found")
    alpha = KElem(K, alpha_f, F.zero())
    check = KIdeal.from_rows(K, *order_rows(K, [z * t for z in (alpha, beta) for t in mults]))
    assert check.num == A.num and check.den == A.den, "free basis does not span the module"
    return alpha, beta


def ideal_to_form(K: CMField, A: KIdeal) -> PseudoForm:
    """The norm form q = N_{K/F} on a free basis of the module.

    Postconditions asserted: positive definite, generates K, fundamental,
    and disc ideal = rel disc * N(A)^2.
    """
    alpha, beta = free_module_basis(K, A)
    F = K.F
    a = alpha.rel_norm()
    b = (alpha.conj() * beta).rel_trace()
    c = beta.rel_norm()
    Q = PseudoForm(F, F.unit_ideal(), a, b, c)
    assert Q.is_positive_definite()
    d = Q.field_disc()
    assert (d * K.delta).is_square()
    nrm = A.rel_norm()
    assert Q.disc_ideal() == K.rel_disc * (nrm * nrm)
    assert Q.norm_ideal() == nrm
    assert is_fundamental(Q)
    return Q


def form_to_ideal(Q: PseudoForm) -> tuple[CMField, KIdeal, FElem]:
    """The module o*(2a) + steinitz*(-b + sqrt(b^2-4ac)) as an ideal of F(Q).

    Returns (K, A, scale) with 4a * Q = Q_A after the coordinate change;
    ideal-ness (stability under the maximal order) is verified, as is the
    scale identity.
    """
    if not is_fundamental(Q):
        raise NotFundamental("only fundamental definite forms correspond to ideals")
    K = form_field(Q)
    F = Q.F
    d = Q.field_disc()
    # sqrt(d) = sqrt(delta)/d.den with delta = d * d.den^2 (form_field)
    sqrt_d = KElem(K, F.zero(), F.elem(Fraction(1, d.den)))
    two_a = KElem(K, Q.a + Q.a, F.zero())
    second = KElem(K, -Q.b, F.zero()) + sqrt_d
    pieces = [two_a * KElem(K, t, F.zero()) for t in F.maximal_order_basis()]
    pieces += [second * KElem(K, s, F.zero()) for s in Q.steinitz.basis_elems()]
    A = KIdeal.from_rows(K, *order_rows(K, pieces))
    # stability under the maximal order (the ideal criterion)
    for z in A.basis_kelems():
        for t in K.order_basis:
            assert A.contains(z * t), "module is not stable under the maximal order"
    # scale identity 4a Q = Q_A on the basis images
    xim = -two_a  # image of alpha
    yim = second  # image of beta
    four_a = 4 * Q.a
    assert xim.rel_norm() == four_a * Q.a
    assert (xim.conj() * yim).rel_trace() == four_a * Q.b
    assert yim.rel_norm() == four_a * Q.c
    return K, A, four_a


def weakly_equivalent(Q1: PseudoForm, Q2: PseudoForm) -> bool:
    """Weak equivalence, decided through the ideal correspondence."""
    K1, A1, _ = form_to_ideal(Q1)
    K2, A2, _ = form_to_ideal(Q2)
    if K1.rel_disc_norm != K2.rel_disc_norm or not (Q1.field_disc() * Q2.field_disc()).is_square():
        return False
    # move A2 into K1 via the shared generator of the field
    A2_in_K1 = _transport(K1, K2, A2)
    return A1.in_same_class(A2_in_K1) or A1.in_same_class(A2_in_K1.conj())


def _transport(K1: CMField, K2: CMField, A: KIdeal) -> KIdeal:
    """Rewrite a module over K2 = F(sqrt d2) inside K1 = F(sqrt d1), d2*d1 square."""
    if K1 is K2:
        return A
    ratio2 = (K2.delta * K1.delta).square_root()
    if ratio2 is None:
        raise LemmaViolation("transport between non-isomorphic extensions")
    # sqrt(d2) = ratio / sqrt(d1) * d1 ... : sqrt(d2) = (ratio2 / d1) * sqrt(d1)
    fac = ratio2 / K1.delta
    gens = []
    for z in A.basis_kelems():
        gens.append(KElem(K1, z.x, z.y * fac))
    return KIdeal.from_generators(K1, gens)


# -- classification -----------------------------------------------------------------


def classify(K: CMField):
    """(strong class refinements, weak class representatives) for K.

    Weak classes are the conjugation orbits of the class group, realized by
    norm forms of orbit representatives.  Strong classes are refined by the
    unit-square scaling action separated through genus vectors, a certified
    lower bound on the strong count.
    """
    weak = [ideal_to_form(K, r) for r in K.class_data().orbit_reps]
    units = _unit_square_reps(K.F)
    strong = []
    strong_keys = set()
    for Q in weak:
        for u in units:
            Qu = Q.scaled(u)
            gv = genus_vector(Qu, K)
            key = (Q.key(), tuple(sorted(gv.items())))
            if key not in strong_keys:
                strong_keys.add(key)
                strong.append((Qu, gv))
    counts = class_counts(K)
    assert len(weak) == counts.orbits
    assert len(weak) <= counts.h_K <= 2 * len(weak)
    return strong, weak


def _unit_square_reps(F: Field) -> list[FElem]:
    if F.n == 1:
        return [F.one(), -F.one()]
    return [F.one(), -F.one(), F.eps, -F.eps]


# -- genus characters and Hilbert symbols ----------------------------------------------


def hilbert_symbol(F: Field, s: FElem, d: FElem, place) -> int:
    """(s, d) at a real embedding index or a prime of F."""
    if isinstance(place, int):
        return -1 if s.embedding_sign(place) < 0 and d.embedding_sign(place) < 0 else 1
    pr: PrimeIdeal = place
    if s.is_zero() or d.is_zero():
        raise ValueError("symbol arguments must be nonzero")
    if pr.p != 2:
        return _tame_symbol(F, s, d, pr)
    if len(F.splitting(2).primes) == 1:
        return _symbol_by_reciprocity(F, s, d)
    return _q2_symbol(_q2_image(F, s, pr), _q2_image(F, d, pr))


def _tame_symbol(F: Field, s: FElem, d: FElem, pr: PrimeIdeal) -> int:
    """(s, d) at an odd prime: the quadratic character of o/pr at the unit
    (-1)^(alpha beta) s^beta d^-alpha, alpha = v(s) and beta = v(d) (Serre,
    A Course in Arithmetic, III 1.2)."""
    alpha, beta = s.valuation(pr), d.valuation(pr)
    x = F.elem(-1 if alpha * beta % 2 else 1)
    for y, k in ((s, beta), (d, -alpha)):
        for _ in range(abs(k)):
            x = x * y if k > 0 else x / y
    return residue_char(pr, x)


def _symbol_by_reciprocity(F: Field, s: FElem, d: FElem) -> int:
    """(s, d) at the only prime above 2, as the product of the symbols at all
    other places (Hilbert reciprocity; Serre, A Course in Arithmetic, III 2.1).

    At an odd prime where s and d are both units the symbol is 1, so the
    product runs over the real places and the odd primes of s or d."""
    out = 1
    for i in range(F.n):
        out *= hilbert_symbol(F, s, d, i)
    odd = []
    for x in (s, d):
        odd += [pr for pr, _ in F.ideal(x).factor() if pr.p != 2 and pr not in odd]
    for pr in odd:
        out *= _tame_symbol(F, s, d, pr)
    return out


def _q2_image(F: Field, x: FElem, pr: PrimeIdeal) -> tuple[int, int]:
    """(v, u mod 8) with x = 2^v u in F_P = Q_2, for P above a split 2.

    omega goes to the root R of X^2 - c1 X - c0 with omega - R in P, which
    field.omega_root lifts by Newton steps (the derivative 2R - c1 is odd).
    The numerator na + nb R has valuation at most that of its norm, so R is
    needed to that many digits plus 3."""
    nm = F.norm_int(x.na, x.nb)
    k = _v2(nm) + 3
    num = (x.na + x.nb * omega_root(pr, k)) % 2**k
    vn, vd = _v2(num), _v2(x.den)
    # odd u has u^-1 = u mod 8
    return vn - vd, (num >> vn) * (x.den >> vd) % 8


def _v2(n: int) -> int:
    return (n & -n).bit_length() - 1


def _q2_symbol(a: tuple[int, int], b: tuple[int, int]) -> int:
    """(2^va ua, 2^vb ub)_2 over Q_2 (Serre, A Course in Arithmetic, III 1.2 Thm 1)."""
    (va, ua), (vb, ub) = a, b
    eps = lambda u: (u - 1) // 2
    omega = lambda u: (u * u - 1) // 8
    e = eps(ua) * eps(ub) + va * omega(ub) + vb * omega(ua)
    return -1 if e % 2 else 1


def represented_value(Q: PseudoForm) -> FElem:
    """A canonical nonzero represented value (q(alpha) = a for definite forms)."""
    if not Q.a.is_zero():
        return Q.a
    raise NoRepresentedValueFound("degenerate leading coefficient")


def genus_char(Q: PseudoForm, K: CMField, place) -> int:
    """e_v(Q) = (s, disc)_v for a represented value s."""
    s = represented_value(Q)
    return hilbert_symbol(Q.F, s, K.delta, place)


def genus_places(K: CMField):
    """The places v | infinity * rel_disc as (real indices, primes)."""
    reals = list(range(K.F.n))
    primes = [pr for (pr, v) in K.rel_disc_primes]
    return reals, primes


def genus_vector(Q: PseudoForm, K: CMField) -> dict:
    reals, primes = genus_places(K)
    out = {}
    for i in reals:
        out[("inf", i)] = genus_char(Q, K, i)
    for pr in primes:
        out[("p", pr.p, str(pr.second_gen))] = genus_char(Q, K, pr)
    return out
