"""Eigenvalue tables of the rank-three source: the level-37 curve
y^2 + y = x^3 + x^2 - 23x - 50, its quadratic twist by the conductor-139
character, and quadratic base change to real quadratic fields.

Point counting is a per-prime table loop; eigenvalues transport along base
change via the symmetric-function identity at inert primes.  Euler factors
are exact integer polynomials in q^-s; the numeric epsilon residual and the
partial Euler products of L(1, sym^2) are flagged heuristic.
"""

from __future__ import annotations

import math
from typing import NamedTuple


from .cm import CMField
from .errors import (
    DegreeUnsupported,
    InsufficientCoefficients,
    LevelNotSquarefree,
    NonQuadraticCharacter,
    OutOfTableRange,
)
from .field import Field, FIdeal, PrimeIdeal, make_field, prime_divisors, primes_up_to

CURVE = (1, -23, -50)  # y^2 + y = x^3 + x^2 - 23x - 50 coefficients (x^2, x, 1)
CURVE_LEVEL = 37
CURVE_AP_AT_LEVEL = 1  # configured split-multiplicative sign
TWIST_DISC = -139


def ap_curve(p: int) -> int:
    """Trace of Frobenius at p by exhaustive point counting.

    Good p: a_p = p + 1 - #E(F_p).  At p = 37 (multiplicative reduction) the
    nonsingular locus is counted, a_p = p - #E_ns; a mismatch against the
    configured value would be reported by the caller, not silently patched.
    """
    if p == CURVE_LEVEL:
        return _ap_multiplicative(p)
    c2, c1, c0 = 1, CURVE[1], CURVE[2]
    # tally y^2 + y over F_p, then count x with matching right side
    cnt = [0] * p
    for y in range(p):
        cnt[(y * y + y) % p] += 1
    total = 0
    for x in range(p):
        rhs = (x * x * (x + c2) + c1 * x + c0) % p
        total += cnt[rhs]
    n_points = total + 1
    ap = p + 1 - n_points
    assert ap * ap <= 4 * p, f"Hasse bound violated at {p}"
    return ap


def _ap_multiplicative(p: int) -> int:
    c1, c0 = CURVE[1] % p, CURVE[2] % p
    sing = None
    for x in range(p):
        for y in range(p):
            if (y * y + y - (x * x * x + x * x + c1 * x + c0)) % p:
                continue
            if (2 * y + 1) % p == 0 and (3 * x * x + 2 * x + c1) % p == 0:
                sing = (x, y)
    cnt = [0] * p
    for y in range(p):
        cnt[(y * y + y) % p] += 1
    total = 0
    for x in range(p):
        rhs = (x * x * x + x * x + c1 * x + c0) % p
        total += cnt[rhs]
    smooth_affine = total - (1 if sing else 0)
    n_ns = smooth_affine + 1
    return p - n_ns


def _pkey(pr: PrimeIdeal):
    return (pr.p, pr.second_gen.a, pr.second_gen.b)


class EigenvalueTable:
    """lambda(p) for primes of the base field, with level and sign data.

    eps_sign is set once the root number is known; discrepancy notes a
    computed eigenvalue at the level that differs from the configured one."""

    __slots__ = ("F", "level", "pmax", "lam_map", "eps_sign", "provenance", "discrepancy")

    def __init__(
        self,
        F: Field,
        level: FIdeal,
        pmax: int,
        lam_map: dict,
        eps_sign: int | None,
        provenance: str,
        discrepancy: str | None = None,
    ):
        self.F = F
        self.level = level
        self.pmax = pmax
        self.lam_map = lam_map
        self.eps_sign = eps_sign
        self.provenance = provenance
        self.discrepancy = discrepancy

    def __eq__(self, other):
        if type(other) is not EigenvalueTable:
            return NotImplemented
        return all(getattr(self, a) == getattr(other, a) for a in self.__slots__)

    def lam(self, pr: PrimeIdeal) -> int:
        key = _pkey(pr)
        if key not in self.lam_map:
            raise OutOfTableRange(f"prime over {pr.p} outside table range {self.pmax}")
        return self.lam_map[key]

    def level_val(self, pr: PrimeIdeal) -> int:
        return self.level.valuation(pr)

    def primes(self) -> list[PrimeIdeal]:
        out = []
        for p in primes_up_to(self.pmax):
            out.extend(self.F.splitting(p).primes)
        return out


def gz_table(pmax: int = 1000) -> EigenvalueTable:
    """The source table over Q: eigenvalues of the level-37 curve."""
    Q = make_field(1)
    lam = {}
    report_flag = None
    for p in primes_up_to(pmax):
        ap = ap_curve(p)
        if p == CURVE_LEVEL and ap != CURVE_AP_AT_LEVEL:
            report_flag = f"computed a_{p} = {ap} != configured {CURVE_AP_AT_LEVEL}"
        pr = Q.splitting(p).primes[0]
        lam[_pkey(pr)] = ap
    return EigenvalueTable(Q, Q.ideal(CURVE_LEVEL), pmax, lam, None, "point-count", report_flag)


class QuadChar(NamedTuple):
    """The quadratic character attached to a CM extension K/F."""

    K: CMField

    def conductor(self) -> FIdeal:
        return self.K.rel_disc

    def star(self, pr: PrimeIdeal) -> int:
        kind = self.K.splitting_kind(pr)
        return {"split": 1, "inert": -1, "ramified": 0}[kind]

    def star_ideal(self, idl: FIdeal) -> int:
        """chi* on an ideal coprime to the conductor (by factorization)."""
        out = 1
        for pr, v in idl.factor():
            s = self.star(pr)
            if s == 0:
                raise NonQuadraticCharacter("ideal shares a ramified prime")
            out *= s**v
        return out

    def chi_f_minus_one(self) -> int:
        # totally imaginary K: every real place contributes a sign
        return (-1) ** self.K.F.n


def twist_table(table: EigenvalueTable, chi: QuadChar) -> EigenvalueTable:
    """Eigenvalues of the twisted newform.

    For a squarefree source level a = a1 * a2 (a2 | cond) the new level is
    exactly a1 * cond^2.  Otherwise the recorded level is the standard upper
    bound lcm(a, cond^2); eigenvalues away from cond and the level are exact
    either way, which is all the twist-involution contract uses.  Only a
    twist of a twist reaches that branch (test_hecke's
    test_epsilon_needs_squarefree_level): the tables that CLI commands and
    the gate criteria build have squarefree levels."""
    F = table.F
    if F != chi.K.F:
        raise NonQuadraticCharacter("character lives over a different base field")
    cond = chi.conductor()
    try:
        a1, a2 = _split_level(table, cond)
        new_level = a1 * cond * cond
    except LevelNotSquarefree:
        new_level = table.level & (cond * cond)  # lcm = intersection
    lam = {}
    for pr in table.primes():
        v_new = new_level.valuation(pr)
        if v_new >= 2:
            lam[_pkey(pr)] = 0
        else:
            lam[_pkey(pr)] = chi.star(pr) * table.lam(pr)
    return EigenvalueTable(F, new_level, table.pmax, lam, None, "twist")


def _split_level(table: EigenvalueTable, cond: FIdeal) -> tuple[FIdeal, FIdeal]:
    """a = a1 * a2 with gcd(a1, cond) = 1 and a2 | cond; needs a squarefree."""
    F = table.F
    a1 = F.unit_ideal()
    a2 = F.unit_ideal()
    for pr, v in table.level.factor():
        if v > 1:
            raise LevelNotSquarefree(f"level has {pr} squared")
        if cond.valuation(pr) > 0:
            a2 = a2 * pr.ideal
        else:
            a1 = a1 * pr.ideal
    return a1, a2


def base_change_table(table: EigenvalueTable, F: Field) -> EigenvalueTable:
    """Transport of a rational table to a real quadratic field.

    split: lambda(p) = a_p (both primes); inert: a_p^2 - 2p; ramified: a_p.
    The level becomes the radical of the source level extended to F, with
    lambda = a_p^f at its divisors."""
    if table.F.n != 1:
        raise DegreeUnsupported("source table must be over the rationals")
    if F.n != 2:
        raise DegreeUnsupported("base change implemented for real quadratic targets")
    lam = {}
    level = F.unit_ideal()
    level_ps = set(prime_divisors(int(table.level.norm())))
    Q = table.F
    for p in primes_up_to(table.pmax):
        ap = table.lam_map[_pkey(Q.splitting(p).primes[0])]
        for pr in F.splitting(p).primes:
            if p in level_ps:
                lam[_pkey(pr)] = ap**pr.f
                if level.valuation(pr) == 0:
                    level = level * pr.ideal
            elif pr.f == 2:
                lam[_pkey(pr)] = ap * ap - 2 * p
            else:
                lam[_pkey(pr)] = ap
    return EigenvalueTable(F, level, table.pmax, lam, table.eps_sign, "base-change")


def _lam_power(table: EigenvalueTable, pr: PrimeIdeal, k: int) -> int:
    if k == 0:
        return 1
    lam = table.lam(pr)
    if table.level_val(pr) > 0:
        return lam**k
    q = pr.norm()
    prev, cur = 1, lam
    for _ in range(k - 1):
        prev, cur = cur, lam * cur - q * prev
    return cur


def dirichlet_coeffs(table: EigenvalueTable, N: int) -> list[int]:
    """Coefficients c_n of D(s, f) = sum c_n n^-s for n <= N (norm-indexed):
    the Euler product of the local series sum_k lambda(pr^k) N(pr)^-ks."""
    from .dseries import euler_coeffs

    factors = []
    for p in primes_up_to(N):
        if p > table.pmax:
            raise InsufficientCoefficients(f"need eigenvalues at {p}")
        for pr in table.F.splitting(p).primes:
            q, cs = pr.norm(), []
            while q ** len(cs) <= N:
                cs.append(_lam_power(table, pr, len(cs)))
            factors.append((q, cs))
    return euler_coeffs(factors, N)


# -- Euler factors -----------------------------------------------------------------


def poly_mul(a: tuple, b: tuple) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


class EulerFactor(NamedTuple):
    """num(T)/den(T) with T = q^-s, integer coefficients, degrees <= 2."""

    q: int
    num: tuple
    den: tuple



def d_factor(table: EigenvalueTable, pr: PrimeIdeal) -> EulerFactor:
    """Local factor of D(s, f) at pr."""
    lam = table.lam(pr)
    q = pr.norm()
    if table.level_val(pr) > 0:
        return EulerFactor(q, (1,), (1, -lam))
    return EulerFactor(q, (1,), (1, -lam, q))


def symsq_factor(table: EigenvalueTable, pr: PrimeIdeal) -> EulerFactor:
    """Local factor of the shifted L(2s-1, sym^2) at pr.

    In the shifted variable T = q^-s the three good-prime pieces become
    (1 - lam T + q T^2)(1 - q T^2)(1 + lam T + q T^2)."""
    q = pr.norm()
    v = table.level_val(pr)
    if v >= 2:
        return EulerFactor(q, (1,), (1,))
    lam = table.lam(pr)
    if v == 1:
        # (1 - q^(-1-s'))^-1 becomes (1 - T^2)^-1 in the shifted variable
        return EulerFactor(q, (1,), (1, 0, -1))
    den = poly_mul(poly_mul((1, -lam, q), (1, 0, -q)), (1, lam, q))
    return EulerFactor(q, (1,), den)


def psi_factor(table: EigenvalueTable, chi: QuadChar, pr: PrimeIdeal,
               twisted: EigenvalueTable) -> EulerFactor:
    """The three-case local factor of Psi."""
    q = pr.norm()
    v = table.level_val(pr)
    cond2_v = 2 * chi.conductor().valuation(pr)
    gcd_v = min(v, cond2_v)
    if v == 0:
        # (1 - q^(1-2s)) * L(2s-1, sym2): numerator (1 - q T^2) cancels
        lam = table.lam(pr)
        den = poly_mul((1, -lam, q), (1, lam, q))
        return EulerFactor(q, (1,), den)
    if gcd_v < 2:
        return symsq_factor(table, pr)
    return d_factor(twisted, pr)


def euler_factors(table: EigenvalueTable, chi: QuadChar, pr: PrimeIdeal):
    """(D_p, sym2_p, Psi_p, Phi_p) with Phi = D(f) D(f tensor chi) / Psi.

    Phi is returned unreduced (numerator and denominator collected); the
    defining identity Phi * Psi = D * D_chi holds exactly by construction and
    the root bounds of the reduced quotient are checked numerically."""
    twisted = twist_table(table, chi)
    Dp = d_factor(table, pr)
    Dx = d_factor(twisted, pr)
    sym = symsq_factor(table, pr)
    psi = psi_factor(table, chi, pr, twisted)
    phi_num = poly_mul(poly_mul(Dp.num, Dx.num), psi.den)
    phi_den = poly_mul(poly_mul(Dp.den, Dx.den), psi.num)
    phi = EulerFactor(pr.norm(), phi_num, phi_den)
    assert check_root_bounds(phi_reduced(table, chi, pr), pr.norm()), f"root bound fails at {pr}"
    return Dp, sym, psi, phi


def phi_reduced(table: EigenvalueTable, chi: QuadChar, pr: PrimeIdeal) -> EulerFactor:
    """Phi_p with the common factors cancelled; degrees stay <= 2."""
    q = pr.norm()
    v = table.level_val(pr)
    twisted = twist_table(table, chi)
    if v == 0:
        lam = table.lam(pr)
        lamx = twisted.lam(pr)
        return EulerFactor(q, (1, lam, q), (1, -lamx, q))
    cond_v = chi.conductor().valuation(pr)
    gcd_v = min(v, 2 * cond_v)
    if gcd_v >= 2:
        # Psi cancels D(f tensor chi) exactly
        lam = table.lam(pr)
        return EulerFactor(q, (1,), (1, -lam))
    if v == 1:
        lam = table.lam(pr)
        lamx = twisted.lam(pr)
        return EulerFactor(q, (1, 0, -1), poly_mul((1, -lam), (1, -lamx)))
    # v >= 2 with p not dividing the conductor: everything is trivial
    return EulerFactor(q, (1,), (1, -table.lam(pr)))


def check_root_bounds(phi: EulerFactor, q: int) -> bool:
    """|alpha| <= sqrt(q) + 1e-9 for the inverse roots of numerator and
    denominator."""
    for poly in (phi.num, phi.den):
        for r in _poly_inverse_roots(poly):
            if abs(r) > math.sqrt(q) + 1e-9:
                return False
    return True


def _poly_inverse_roots(poly: tuple) -> list[complex]:
    """Inverse roots alpha with poly(T) = prod (1 - alpha T) (deg <= 2)."""
    cs = list(poly)
    while cs and cs[-1] == 0:
        cs.pop()
    if len(cs) <= 1:
        return []
    if len(cs) == 2:
        return [complex(-cs[1] / cs[0])]
    a, b, c = cs[2], cs[1], cs[0]
    disc = complex(b * b - 4 * a * c)
    s = disc**0.5
    return [complex((-b + s) / (2 * c)), complex((-b - s) / (2 * c))]


def epsilon_factor(table: EigenvalueTable, chi: QuadChar, eps_f: int) -> int:
    """Sign of the twisted functional equation from the product formula.

    Requires a squarefree source level a = a1 a2 (a2 | conductor):
    eps = chi_f(-1) chi*(a1) prod_{p | a2} (-lambda(p)) * eps_f.
    """
    a1, a2 = _split_level(table, chi.conductor())
    out = chi.chi_f_minus_one() * chi.star_ideal(a1) * eps_f
    for pr, _ in a2.factor():
        out *= -table.lam(pr)
    return out


def epsilon_numeric(table: EigenvalueTable) -> tuple[int, float]:
    """Functional-equation residual selection of eps over Q.

    g(y) = sum a_n e^(-2 pi n y) satisfies g(1/(N y)) = eps N y^2 g(y); the
    sign with the smaller residual wins, and the residual ratio is returned.
    """
    if table.F.n != 1:
        raise DegreeUnsupported("numeric epsilon requires a rational table")
    N = int(table.level.norm())
    n_terms = min(max(60, int(50 * math.sqrt(N))), table.pmax)
    if n_terms < 8 * math.sqrt(N):
        raise InsufficientCoefficients(
            f"need coefficients to ~8 sqrt(level) = {8 * math.sqrt(N):.0f}"
        )
    coeffs = dirichlet_coeffs(table, n_terms)

    def g(y: float) -> float:
        return sum(a * math.exp(-2 * math.pi * n * y) for n, a in enumerate(coeffs, start=1))

    resid = {}
    for eps in (1, -1):
        acc = 0.0
        scale = 0.0
        for y in (1.05 / math.sqrt(N), 1.3 / math.sqrt(N), 0.8 / math.sqrt(N)):
            lhs = g(1.0 / (N * y))
            rhs = eps * N * y * y * g(y)
            acc += abs(lhs - rhs)
            scale += abs(lhs) + abs(rhs)
        resid[eps] = acc / max(scale, 1e-30)
    eps = 1 if resid[1] < resid[-1] else -1
    ratio = resid[eps] / max(resid[-eps], 1e-300)
    return eps, ratio


def symsq_L1(table: EigenvalueTable, P: int) -> dict:
    """Partial Euler product of L(1, sym^2) with a last-decade drift diagnostic."""
    def partial(bound: int) -> float:
        out = 1.0
        for p in primes_up_to(bound):
            if p > table.pmax:
                raise OutOfTableRange(f"prime {p} beyond table range")
            for pr in table.F.splitting(p).primes:
                q = pr.norm()
                v = table.level_val(pr)
                if v >= 2:
                    continue
                if v == 1:
                    out *= 1.0 / (1.0 - q**-2)
                    continue
                lam = table.lam(pr)
                f1 = 1.0 - lam / q + 1.0 / q
                f2 = 1.0 - 1.0 / q
                f3 = 1.0 + lam / q + 1.0 / q
                out *= 1.0 / (f1 * f2 * f3)
        return out

    full = partial(P)
    prev = partial(max(2, P // 10))
    drift = abs(full - prev) / max(abs(full), 1e-30)
    return {"value": full, "drift_last_decade": drift, "heuristic": True}


def symsq_log_deriv_L1(table: EigenvalueTable, P: int) -> dict:
    """Central-difference estimate of L'(1, sym2)/L(1, sym2) on the partial
    product; heuristic like every truncated L-quantity here."""
    h = 1e-4

    def logL(s: float) -> float:
        acc = 0.0
        for p in primes_up_to(P):
            for pr in table.F.splitting(p).primes:
                q = pr.norm()
                v = table.level_val(pr)
                if v >= 2:
                    continue
                if v == 1:
                    acc += -math.log(1.0 - q ** (-1 - s))
                    continue
                lam = table.lam(pr)
                u = q ** (-(s + 1) / 2)
                w = q**-s
                acc += -math.log((1 - lam * u + w) * (1 - w) * (1 + lam * u + w))
        return acc

    val = (logL(1 + h) - logL(1 - h)) / (2 * h)
    return {"value": val, "heuristic": True}
