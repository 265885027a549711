"""The effective-constant cascade: lattice point bounds, norm-count constants,
the per-extension parameters (m, V, U, R), the D/B/G/E/F constants, and the
final class-number lower bound.

Every constant that can be certified is an outward-rounded interval and only
ever errs in the conservative direction (C_T0 upward, the final C downward).
The G-layer rests on truncated L-data and is flagged heuristic unless values
are injected; reports carry a rigor ledger saying which is which.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .errors import (
    AssumptionViolated,
    BoundViolated,
    InequalityViolated,
    LambdaTooSmall,
    LemmaViolation,
    NoFeasibleLambda,
    ParityFails,
    StrategyUnavailable,
)
from .field import Field, FIdeal, PrimeIdeal, canonical_unit_row, kronecker, primes_up_to
from .intmat import vec_mat
from .numerics import (
    EULER_GAMMA,
    GAMMA_3_2,
    LOG2_E,
    PI,
    E,
    Interval,
    factorial_iv,
    iabs,
    iexp,
    ilog,
    imax,
    ipow,
    isqrt_iv,
)

if TYPE_CHECKING:
    from .cm import CMField
    from .hecke import EigenvalueTable

LOG_37 = Interval(3.6109179126442243, 3.6109179126442248)
# prime norms up to this enter the F2 products
F2_CAP = 131


def _sqrt_m_interval(m: int) -> Interval:
    lo = math.nextafter(math.sqrt(m), 0.0)
    hi = math.nextafter(math.sqrt(m), math.inf)
    while lo * lo > m:
        lo = math.nextafter(lo, 0.0)
    while hi * hi < m:
        hi = math.nextafter(hi, math.inf)
    return Interval(lo, hi)


def embed_interval(x, i: int) -> Interval:
    """Certified enclosure of the i-th embedding of a base-field element."""
    F = x.F
    a = Interval(Fraction(x.a))
    if F.n == 1:
        return a
    b = Interval(Fraction(x.b))
    s = _sqrt_m_interval(F.m)
    if F.c1 == 0:
        om = s if i == 0 else -s
    else:
        om = (Interval(1.0) + s) / Interval(2.0) if i == 0 else (Interval(1.0) - s) / Interval(2.0)
    return a + b * om


def d0_interval(F: Field) -> Interval:
    if F.n == 1:
        return Interval(0.0)
    eps1 = embed_interval(F.eps, 0)
    return isqrt_iv(Interval(2.0)) * ilog(eps1)


def _sqrt_n_n1(n: int) -> Interval:
    """An enclosure of sqrt(n(n - 1)): exactly 0 for n = 1, sqrt 2 for n = 2."""
    return Interval(0.0) if n == 1 else isqrt_iv(Interval.exact(2))


def t0_interval(F: Field, d0: Interval) -> Interval:
    n = F.n
    expo = iexp(_sqrt_n_n1(n) * d0 / Interval(2.0))
    return ipow(PI, n / 2.0) * expo / (Interval(2.0) ** n * isqrt_iv(Interval.exact(F.d_F)))


def covering_count_bound(F: Field, T0: Interval) -> Interval:
    """Certified upper bound for the translate-covering supremum.

    For each class-representative lattice: any set of diameter D fits in a
    box, the Minkowski difference with the fundamental cell has per-axis
    width D + diam(cell), and lattice points in a convex set C are at most
    prod_k (floor(|u_k| diam-width) + 1) over the dual basis u_k.
    """
    n = F.n
    if n == 1:
        return Interval(1.0)
    out = Interval(0.0)
    for ai in F.class_reps:
        bas = ai.basis_elems()
        rows = [[embed_interval(b, i) for i in range(n)] for b in bas]
        # diameter of the fundamental cell: max vertex distance
        diam2 = Interval(0.0)
        for signs in ((1, 1), (1, -1)):
            v = [rows[0][i] + signs[1] * rows[1][i] for i in range(n)]
            d2 = v[0] * v[0] + v[1] * v[1]
            diam2 = imax(diam2, d2)
        diam = isqrt_iv(diam2)
        nm = Interval(Fraction(ai.norm()))
        dE = (
            Interval(4.0)
            * iexp(Interval(math.sqrt(n - 1)) * d0_interval(F) / (Interval(2.0) * isqrt_iv(Interval(float(n)))))
            * ipow(T0 * nm, 1.0 / n)
            * Interval(math.sqrt(n - 1))
        )
        width = dE + diam
        # dual basis of the embedding lattice
        det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
        u1 = [rows[1][1] / det, -rows[1][0] / det]
        u2 = [-rows[0][1] / det, rows[0][0] / det]
        cnt = Interval(1.0)
        for u in (u1, u2):
            norm_u = isqrt_iv(u[0] * u[0] + u[1] * u[1])
            cnt = cnt * (norm_u * width + Interval(1.0))
        out = imax(out, cnt)
    return out


class LatticeConstants(NamedTuple):
    d0: Interval
    T0: Interval
    C_T0: Interval
    C_1: Interval
    A1: Interval
    A2: Interval


def lattice_constants(F: Field) -> LatticeConstants:
    d0 = d0_interval(F)
    T0 = t0_interval(F, d0)
    C_T0 = covering_count_bound(F, T0)
    C_1 = covering_count_bound(F, Interval(1.0))
    n = F.n
    base = Interval(2.0) ** n / isqrt_iv(Interval.exact(F.d_F))
    fac1 = base + Interval(2.0 * n) * C_T0 / T0
    fac2 = base + Interval(2.0 * n) * C_1
    A1 = Interval(2.0) ** (n - 1) * iexp(_sqrt_n_n1(n) * d0) * fac1 * fac2
    A2 = iexp(_sqrt_n_n1(n) * d0 / Interval(2.0)) * fac2
    return LatticeConstants(d0, T0, C_T0, C_1, A1, A2)


# -- box counting ---------------------------------------------------------------------


def count_box(F: Field, idl: FIdeal, x0: tuple, c: tuple) -> int:
    """Exact number of lattice points of the ideal in the box
    |sigma_j(x) - x0_j| <= c_j.

    For n = 2 the points r*b0 + s*b1 are counted one line of fixed r at a
    time.  On a line sigma_j(x) is linear in s, so each side of the box bounds
    s by sigma_j((q - r*b0)/b1) for an end q of the box, the ends swapped where
    sigma_j(b1) < 0; the line holds an integer interval of s.  Every bound is
    an exact floor of an embedding."""
    x0 = tuple(Fraction(v) for v in x0)
    c = tuple(Fraction(v) for v in c)
    if F.n == 1:
        g = Fraction(idl.num[0][0], idl.den)
        lo = (x0[0] - c[0]) / g
        hi = (x0[0] + c[0]) / g
        return math.floor(hi) - math.ceil(lo) + 1
    b0, b1 = idl.basis_elems()
    r_lo, r_hi = _line_range(b0, b1, x0, c)
    w = b0 / b1
    ends = []  # (j, e_lo, e_hi): sigma_j(e_lo - r*w) <= s <= sigma_j(e_hi - r*w)
    for j in range(2):
        e = [F.elem(x0[j] - c[j]) / b1, F.elem(x0[j] + c[j]) / b1]
        if b1.embedding_sign(j) < 0:
            e.reverse()
        ends.append((j, *e))
    count = 0
    for r in range(r_lo, r_hi + 1):
        rw = w * r
        s_lo = max(-(rw - e_lo).embedding_floor(j) for j, e_lo, _ in ends)
        s_hi = min((e_hi - rw).embedding_floor(j) for j, _, e_hi in ends)
        count += max(0, s_hi - s_lo + 1)
    return count


def _line_range(b0, b1, x0: tuple, c: tuple) -> tuple[int, int]:
    """Least and greatest r whose line r*b0 + s*b1 (s real) meets the box.

    r = Tr(b0* x) for the trace-dual element b0* = (Tr(b1^2) b0 - Tr(b0 b1) b1)/det,
    so r = sum_j sigma_j(b0*) sigma_j(x) is extreme at the corner q of the box
    that the signs of sigma_j(b0*) pick, where it is sigma_0(b0* q_0 + conj(b0*) q_1).
    """
    t00, t01, t11 = (b0 * b0).trace(), (b0 * b1).trace(), (b1 * b1).trace()
    dual = (b0 * t11 - b1 * t01) / (t00 * t11 - t01 * t01)
    dc = dual.conj()
    sg = [dual.embedding_sign(j) for j in range(2)]
    top = dual * (x0[0] + sg[0] * c[0]) + dc * (x0[1] + sg[1] * c[1])
    bottom = dual * (x0[0] - sg[0] * c[0]) + dc * (x0[1] - sg[1] * c[1])
    return -(-bottom).embedding_floor(0), top.embedding_floor(0)


def box_bound_check(F: Field, consts: LatticeConstants, idl: FIdeal, x0: tuple, c: tuple) -> dict:
    """Exact count against the certified covering bound."""
    c = tuple(Fraction(v) for v in c)
    prod_c = Fraction(1)
    for v in c:
        prod_c *= v
    nm = idl.norm()
    pre_ok = prod_c >= Fraction(consts.T0.hi) * nm
    count = count_box(F, idl, x0, c)
    n = F.n
    bound = (
        (Interval(2.0) ** n / isqrt_iv(Interval.exact(F.d_F)) + Interval(2.0 * n) * consts.C_T0 / consts.T0)
        * Interval(prod_c)
        / Interval(Fraction(nm))
    )
    ok = count <= bound.lo
    if pre_ok and not ok:
        raise BoundViolated(f"count {count} exceeds certified bound {bound}")
    return {"count": count, "bound": bound.lo, "precondition": pre_ok, "ok": ok or not pre_ok}


# -- norm counting --------------------------------------------------------------------


def count_norm_orbits_F(F: Field, idl: FIdeal, t: Fraction) -> int:
    """#{[a] in (ideal - 0)/units : |N(a)| <= t * N(ideal)}, exact."""
    from .lattice import lll_reduce_gram, short_vectors

    tprime = Fraction(t) * idl.norm()
    if F.n == 1:
        g = Fraction(idl.num[0][0], idl.den)
        return math.floor(tprime / g)
    # a unit multiple of x has sigma_0(x)^2/|N(x)| in [1/eps, eps], so
    # Tr(x^2) <= t' (eps + 1/eps); the window is that, rounded up to 2^-16
    window = (F.eps + F.one() / F.eps) * (tprime * 2**16)
    q_bound = Fraction(-(-window).embedding_floor(0), 2**16)
    # an element is row/den on the integer row v * num; |N(row/den)| <= t'
    # reads |a^2 + c1 a b - c0 b^2| <= t' den^2 on the row (a, b)
    cap = tprime * idl.den**2
    seen = set()
    for v in short_vectors(lll_reduce_gram(idl.gram()), q_bound):
        a, b = vec_mat(v, idl.num)
        if abs(a * a + F.c1 * a * b - F.c0 * b * b) <= cap:
            seen.add(tuple(canonical_unit_row(F, [a, b])))
    return len(seen)


def norm_count_check_K(K: CMField, Ni, t: Fraction, lat: LatticeConstants) -> dict:
    """Inequality (a): orbits off the minimal line against A1 t / sqrt(disc)."""
    # the excluded line has minimal |N(L o_K)| among saturated lines; scan far
    # enough that it is certainly found.  Each entry of line_norms is one unit
    # orbit, so the count reads off the same scan.
    from .cm import line_norms, on_line

    mink = (2 / math.pi) ** K.F.n * math.sqrt(K.abs_disc) + 2
    lines, exclude = line_norms(K, Ni, max(Fraction(t), Fraction(mink)))
    count = sum(1 for v, z in lines if v <= t and (exclude is None or not on_line(z, exclude)))
    rhs = lat.A1 * Interval(Fraction(t)) / isqrt_iv(Interval.exact(K.rel_disc_norm))
    ok = count <= rhs.hi
    if not ok:
        raise InequalityViolated(f"norm-count (a): {count} > {rhs}")
    return {"count": count, "rhs": rhs.hi, "ok": ok}


def norm_count_check_F(F: Field, idl: FIdeal, t: Fraction, lat: LatticeConstants) -> dict:
    count = count_norm_orbits_F(F, idl, Fraction(t))
    rhs = lat.A2 * Interval(Fraction(t))
    ok = count <= rhs.hi
    if not ok:
        raise InequalityViolated(f"norm-count (b): {count} > {rhs}")
    return {"count": count, "rhs": rhs.hi, "ok": ok}


# -- per-extension parameters -----------------------------------------------------------


class BoundParams(NamedTuple):
    t: int
    m: Fraction
    V: float
    U: float
    R: int
    P_UK: list[PrimeIdeal]
    P_K: list[PrimeIdeal]
    h: int
    h_K: int


def bound_params(K: CMField) -> BoundParams:
    """m, V, U, R and the ramified-prime sets, with the three scan checks."""
    n = K.F.n
    d = K.rel_disc_norm
    if d <= 4**n:
        raise AssumptionViolated(f"|disc| = {d} <= 4^{n}")
    if not K.unit_equal:
        raise AssumptionViolated("extension has extra units")
    from .cm import class_counts

    h_K, h, _ = class_counts(K)
    u = K.F.unit_sq_index
    r = 1
    while 2 * r * r + 2 * r < u * h_K:
        r += 1
    m = Fraction(max(Fraction(r), Fraction(3, 2)))
    # brute-force cross-check of the minimal r
    assert 2 * r * r + 2 * r >= u * h_K and (r == 1 or 2 * (r - 1) ** 2 + 2 * (r - 1) < u * h_K)
    V = (d / 4**n) ** (1.0 / h)
    U = (math.sqrt(d) / 2**n) ** (1.0 / float(m))
    if U <= 1:
        raise LemmaViolation("U <= 1 under the standing assumptions")
    ram = [pr for (pr, v) in K.rel_disc_primes]
    R = max(pr.norm() for pr in ram)
    P_K = [pr for pr in ram if pr.norm() < R]
    P_UK = [pr for pr in ram if pr.norm() < U]
    # scan checks
    for p in primes_up_to(int(max(V, U)) + 1):
        for pr in K.F.splitting(p).primes:
            if pr.norm() >= max(V, U):
                continue
            kind = K.splitting_kind(pr)
            if kind == "split" and pr.norm() < V:
                raise LemmaViolation(f"split prime {pr} below V = {V}")
    split_below_U = 0
    for p in primes_up_to(int(U) + 1):
        for pr in K.F.splitting(p).primes:
            if pr.norm() < U and K.splitting_kind(pr) == "split":
                split_below_U += 1
    if split_below_U > 1:
        raise LemmaViolation(f"{split_below_U} split primes below U")
    if R < U:
        raise LemmaViolation(f"R = {R} < U = {U}")
    assert all(pr in P_K for pr in P_UK)
    return BoundParams(len(ram), m, V, U, R, P_UK, P_K, h, h_K)


# -- D constants ---------------------------------------------------------------------


def d_constants_lambda(n: int, lam: float) -> dict:
    """The uniform lambda-forms; requires exp(lam/2) > 2^n.

    Beyond the float-exp range the exact limiting enclosures are used
    (each within 1e-250 of its limit, in the conservative direction)."""
    if lam / 2 < 700 and math.exp(lam / 2) <= 2**n:
        raise LambdaTooSmall(f"exp(lambda/2) <= 2^{n}")
    L = Interval(lam)
    u = Interval(float(2**n))
    c16 = factorial_iv(16) * Interval(3.0) ** 16 * ipow(Interval(2.0), 2 * n / 3 + 16) * u**8
    head = Interval(1.0) + c16 / L**16
    if lam / 2 >= 700:
        near_one_up = Interval(1.0, 1.0 + 1e-250)
        near_one_dn = Interval(1.0 - 1e-250, 1.0)
        tiny = Interval(0.0, 1e-250)
        return {"D1": head * near_one_up, "D2": near_one_dn, "D3": tiny, "D4": near_one_up}
    e_l = iexp(L)
    e_l2 = iexp(L / Interval(2.0))
    e_l4 = iexp(L / Interval(4.0))
    two_n = Interval(float(2**n))
    four_n = Interval(float(4**n))
    D1 = head * (e_l + four_n) / (e_l - four_n)
    D2 = ((e_l2 - two_n) / (e_l2 + two_n)) ** 2
    D3 = ipow(Interval(2.0), n + 2) / (e_l2 - two_n)
    D4 = (e_l2 + two_n) ** 2 / (e_l4 - ipow(Interval(2.0), n / 2)) ** 4
    return {"D1": D1, "D2": D2, "D3": D3, "D4": D4}


# -- B constants ------------------------------------------------------------------------


def zeta_F_2_interval(F: Field) -> Interval:
    """zeta_F(2) = zeta(2) * L(2, chi_dF): 4000 terms and a certified
    alternating tail."""
    z2 = PI * PI / Interval(6.0)
    if F.n == 1:
        return z2
    X = 4000
    part = Interval(0.0)
    for nn in range(1, X + 1):
        ch = kronecker(F.d_F, nn)
        if ch:
            part = part + Interval(float(ch)) / Interval(float(nn * nn))
    tail = Interval(-1.0, 1.0) / Interval(float(X))
    return z2 * (part + tail)


def m_prime(F: Field, level: FIdeal) -> Interval:
    """M' = (2 pi)^(-2n) |level * different^2|."""
    n = F.n
    val = Interval(Fraction(int(level.norm()) * F.d_F**2))
    return val / ipow(Interval(2.0) * PI, 2 * n)


def b_constants(F: Field, lat: LatticeConstants, Mp: Interval) -> dict:
    n = F.n
    B1 = lat.A2 * Interval(float(F.h_F**2)) * Mp / Interval(96.0)
    B2 = Interval(16.0) * lat.A1 * ipow(Mp, 1.5) * GAMMA_3_2 * zeta_F_2_interval(F)
    B3 = (
        Interval(4.0)
        * lat.A1**2
        * E
        * ipow(Mp, 1.5)
        * imax(Interval(2.0), ilog(ipow(Interval(4.0), n) * Mp))
    )
    return {"B1": B1, "B2": B2, "B3": B3}


# -- G constants -------------------------------------------------------------------------


def zeta_F_numeric(F: Field, s: complex) -> complex:
    """Numeric zeta_F via zeta * L(s, chi) (quadratic) or zeta (rational)."""
    import mpmath

    z = complex(mpmath.zeta(s))
    if F.n == 1:
        return z
    D = F.d_F
    # L(s, chi_D) by Hurwitz zeta over residues mod |D|
    q = abs(D)
    acc = mpmath.mpc(0)
    for a in range(1, q + 1):
        ch = kronecker(D, a) if math.gcd(a, q) == 1 else 0
        if ch:
            acc += ch * mpmath.zeta(s, mpmath.mpf(a) / q)
        # chi(a) for gcd > 1 is 0
    L = acc * mpmath.mpf(q) ** (-s)
    return complex(z * L)


def zeta_F_a_inv_prime_at_1(F: Field, level: FIdeal) -> float:
    """(zeta_{F,a}^{-1})'(1) by the residue closed form.

    zeta_{F,a} has residue rho_F prod_{p | a}(1 - q^-1) at 1, so the inverse
    has derivative 1/that."""
    # residue of zeta_F at 1: 2^(n-1) h_F R_F / sqrt(d_F) (two roots of unity)
    rho = 2 ** (F.n - 1) * F.h_F * F.regulator / math.sqrt(F.d_F)
    prod = 1.0
    for pr, _ in level.factor():
        prod *= 1.0 - 1.0 / pr.norm()
    return 1.0 / (rho * prod)


def zeta_F_a_inv_second_over_first(F: Field, level: FIdeal) -> float:
    """(zeta^{-1})''(1)/(zeta^{-1})'(1) by central differences of step 1e-4
    on the pole-removed factor; heuristic."""

    level_primes = [pr for pr, _ in level.factor()]

    def inv_zeta_fa(s: float) -> float:
        z = zeta_F_numeric(F, s).real
        for pr in level_primes:
            z *= 1.0 - float(pr.norm()) ** (-s)
        return 1.0 / z

    # g(s) = inv_zeta(s)/(s-1): second/first derivative of inv at 1 equals 2 g'(1)/g(1)
    h = 1e-4
    g_plus = inv_zeta_fa(1 + h) / h
    g_minus = inv_zeta_fa(1 - h) / (-h)
    g_mid = (g_plus + g_minus) / 2
    g_prime = (g_plus - g_minus) / (2 * h)
    return 2 * g_prime / g_mid


class GConstants(NamedTuple):
    G1: float
    G2: float
    G3: float
    provenance: str
    details: dict


def g_constants(
    table: EigenvalueTable,
    strategy: str = "heuristic",
    injected: dict | None = None,
    prime_cap: int = 400,
) -> GConstants:
    """G1 (lower), G2/G3 (upper) for the chosen Dirichlet-series pair.

    heuristic: truncated symmetric-square data and contour quadrature;
    injected: caller-supplied finite positive reals pass through verbatim."""
    if strategy == "injected":
        given = injected if isinstance(injected, dict) else {}
        bad = [
            k
            for k in ("G1", "G2", "G3")
            if isinstance(given.get(k), bool)
            or not isinstance(given.get(k), numbers.Real)
            or not 0 < given[k] < math.inf
        ]
        if bad:
            raise StrategyUnavailable(
                f"injected G constants must be finite positive reals: {', '.join(bad)}"
            )
        return GConstants(injected["G1"], injected["G2"], injected["G3"], "injected", {})
    if strategy != "heuristic":
        raise StrategyUnavailable(f"unknown strategy {strategy}")
    from .hecke import symsq_L1, symsq_log_deriv_L1

    F = table.F
    n = F.n
    level_norm = int(table.level.norm())
    twopi = (2 * math.pi) ** (2 * n)
    L1 = symsq_L1(table, prime_cap)["value"]
    zprime = zeta_F_a_inv_prime_at_1(F, table.level)
    sq_primes = _square_level_primes(table)
    corr1 = 1.0
    for q in sq_primes:
        corr1 *= q / (math.sqrt(q) + 1) ** 2
    G1 = abs(2.0 * F.d_F**2 / (twopi * level_norm**n) * L1 * zprime * corr1)
    logderiv = abs(2 * symsq_log_deriv_L1(table, prime_cap)["value"])
    zsecond = abs(zeta_F_a_inv_second_over_first(F, table.level))
    corr2 = 0.0
    for q in sq_primes:
        corr2 += (2 * math.sqrt(q) + 2) / (math.sqrt(q) - 1) ** 2 * math.log(q)
    G2 = (
        abs(math.log(level_norm * F.d_F**2 / twopi))
        + 2 * n * EULER_GAMMA.hi
        + logderiv
        + zsecond
        + corr2
    )
    G3 = _g3_quadrature(table, prime_cap, 0.125)
    return GConstants(
        G1,
        G2,
        G3,
        "heuristic",
        {"L1_sym2": L1, "zeta_inv_prime": zprime, "log_deriv": logderiv},
    )


def _square_level_primes(table: EigenvalueTable) -> list[int]:
    return [pr.norm() for pr, v in table.level.factor() if v >= 2]


def _g3_quadrature(table: EigenvalueTable, prime_cap: int, eta: float, panels: int = 64) -> float:
    """Contour integral along the indented path, truncated where the Gamma
    factor is negligible; the symmetric-square factor is a truncated Euler
    product (heuristic)."""
    F = table.F
    n = F.n
    level_norm = int(table.level.norm())
    sq_primes = _square_level_primes(table)
    pref = max(
        level_norm * F.d_F**2 / (2 * math.pi) ** (2 * n),
        F.d_F ** 1.5 / ((2 * math.pi) ** (1.5 * n) * level_norm ** (0.75 * n)),
    )
    for q in sq_primes:
        pref *= math.sqrt(q) / (q**0.25 - 1) ** 2

    import cmath

    import mpmath

    primes_data = []
    for p in primes_up_to(min(prime_cap, 150)):
        for pr in F.splitting(p).primes:
            v = table.level_val(pr)
            lq = math.log(pr.norm())
            primes_data.append((lq, v, 0 if v else table.lam(pr), math.exp(-lq)))

    # The exponents -w and -(w + 1)/2, exp(-lq) and lam * u are each formed
    # once, by the same float operations as inline, so every node is bit for
    # bit what it was.
    def L_sym_over_zeta_fa(w: complex) -> complex:
        out = complex(1.0)
        mw = -w
        mh = -(w + 1) / 2
        for lq, v, lam, q_inv in primes_data:
            t = cmath.exp(mw * lq)
            if v >= 2:
                out *= 1 - t  # only the zeta factor survives
                continue
            if v == 1:
                out *= (1 - t) / (1 - t * q_inv)
                continue
            lu = lam * cmath.exp(mh * lq)
            out *= 1.0 / ((1 - lu + t) * (1 + lu + t))
        return out

    # Adjacent Simpson segments share end nodes, and the stop test reads the
    # next segment's first node, so each node is evaluated once.  Gamma is
    # taken in mpmath's double-precision context: the sum is in doubles.
    values: dict[complex, float] = {}

    def integrand(s: complex) -> float:
        v = values.get(s)
        if v is None:
            g = mpmath.fp.gamma(s + 0.5) ** (2 * n)
            v = values[s] = abs(g * L_sym_over_zeta_fa(2 * s) / (s - 0.5) ** 3)
        return v

    eta_p = eta
    # path pieces: two horizontals, one left vertical, two infinite verticals
    total = 0.0
    # horizontal segments at +- i eta'
    for sgn in (1, -1):
        total += _simpson(lambda x: integrand(complex(x, sgn * eta_p)), 0.5 - eta, 0.5, panels)
    # left vertical segment
    total += _simpson(lambda y: integrand(complex(0.5 - eta, y)), -eta_p, eta_p, panels)
    # infinite verticals at Re = 1/2, |Im| >= eta'
    y = eta_p
    step = 0.05
    while True:
        seg = _simpson(lambda t: integrand(complex(0.5, t)), y, y + step, 8)
        total += 2 * seg  # symmetric in the sign of the imaginary part
        y += step
        if y > 60 or integrand(complex(0.5, y)) < 1e-14:
            break
    return pref * total / (2 * math.pi)


def _simpson(f, a: float, b: float, panels: int) -> float:
    h = (b - a) / panels
    acc = f(a) + f(b)
    for i in range(1, panels):
        acc += f(a + i * h) * (4 if i % 2 else 2)
    return acc * h / 3


# -- the cascade ---------------------------------------------------------------------------


class ConstantBundle(NamedTuple):
    F: Field
    table: EigenvalueTable
    lat: LatticeConstants
    Mp: Interval
    B: dict
    G: GConstants
    F2: Interval
    lambda_grid: list[float]
    rigor: dict


def f2_uniform(F: Field) -> Interval:
    """K-independent product over candidate prime norms <= F2_CAP of
    sqrt(q)/(q^(1/4)-1)^2."""
    out = Interval(1.0)
    seen = set()
    for p in primes_up_to(F2_CAP):
        for pr in F.splitting(p).primes:
            q = pr.norm()
            if q > F2_CAP or q in seen:
                continue
            seen.add(q)
            qi = Interval(float(q))
            out = out * isqrt_iv(qi) / (ipow(qi, 0.25) - Interval(1.0)) ** 2
    return out


def make_bundle(
    F: Field,
    table: EigenvalueTable,
    strategy: str = "heuristic",
    injected: dict | None = None,
    lambda_grid: list[float] | None = None,
    prime_cap: int = 400,
) -> ConstantBundle:
    lat = lattice_constants(F)
    Mp = m_prime(F, table.level)
    B = b_constants(F, lat, Mp)
    G = g_constants(table, strategy, injected, prime_cap=prime_cap)
    F2 = f2_uniform(F)
    grid = lambda_grid if lambda_grid is not None else [1, 2, 5, 10, 20, 50, 100, 200]
    rigor = {
        "d0": "interval",
        "T0": "interval",
        "C_T0": "interval-upper",
        "A1": "interval",
        "A2": "interval",
        "M_prime": "interval",
        "B1": "interval",
        "B2": "interval",
        "B3": "interval",
        "G1": G.provenance,
        "G2": G.provenance,
        "G3": G.provenance,
        "F2": "interval",
        "final_C": "conservative-min" if G.provenance == "injected" else "heuristic",
    }
    return ConstantBundle(F, table, lat, Mp, B, G, F2, [float(x) for x in grid], rigor)


def f1_lambda(bundle: ConstantBundle, lam: float) -> Interval:
    n = bundle.F.n
    u = Interval(float(2**n))
    L = Interval(lam)
    B1q = ipow(bundle.B["B1"], 0.25)
    logMp = iabs(ilog(bundle.Mp))
    t1 = (
        ipow(Interval(2.0), (n + 90) / 12.0)
        * ipow(Interval(3.0), 2.5)
        * ipow(factorial_iv(16), 3.0 / 32.0)
        * ipow(u, 1.25)
        * B1q
        / ipow(L, 1.5)
    )
    t2 = (
        ipow(Interval(2.0), (n + 24) / 48.0)
        * ipow(Interval(3.0), 0.5)
        * ipow(factorial_iv(16), 1.0 / 32.0)
        * ipow(u, 0.25)
        * B1q
        * (logMp + Interval(float(2 * n + 6)))
        / ipow(L, 0.5)
    )
    return (t1 + t2) ** 4


def e_constants(bundle: ConstantBundle, lam: float) -> dict:
    n = bundle.F.n
    u = 2**n
    d_l = d_constants_lambda(n, lam)
    F1 = f1_lambda(bundle, lam)
    E1 = F1 + bundle.B["B2"] * d_l["D1"] + Interval(2.0) * bundle.B["B3"] / Interval(lam)
    G1 = Interval(bundle.G.G1)
    G2 = Interval(bundle.G.G2)
    G3 = Interval(bundle.G.G3)
    E2 = Interval(1.0) - (
        Interval(8.0 * u) * LOG2_E / Interval(lam)
        + d_l["D3"] / Interval(3.0)
        + G2 / Interval(lam)
        + G3 * d_l["D4"] * bundle.F2 * Interval(float(u)) / (G1 * Interval(lam))
    )
    return {"D": d_l, "F1": F1, "E1": E1, "E2": E2}


def final_C(bundle: ConstantBundle) -> dict:
    """max over the grid of min(1/lambda, G1 D2 E2 / E1), with E2 > 0 required."""
    best = None
    rows = []
    for lam in bundle.lambda_grid:
        try:
            ec = e_constants(bundle, lam)
        except LambdaTooSmall:
            rows.append({"lambda": lam, "feasible": False, "reason": "lambda too small"})
            continue
        E2 = ec["E2"]
        if E2.lo <= 0:
            rows.append({"lambda": lam, "feasible": False, "E2": E2.lo})
            continue
        Cval = min(1.0 / lam, (Interval(bundle.G.G1) * ec["D"]["D2"] * E2 / ec["E1"]).lo)
        rows.append({"lambda": lam, "feasible": True, "C": Cval, "E2": E2.lo})
        if best is None or Cval > best[1]:
            best = (lam, Cval, ec)
    if best is None:
        raise NoFeasibleLambda("no grid point with E2 > 0")
    return {"lambda": best[0], "C": best[1], "rows": rows, "breakdown": best[2]}


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


def final_bound(K: CMField, bundle: ConstantBundle, C: float | None = None) -> dict:
    """Both branches of the effective bound, their min, and the soundness check."""
    F = K.F
    n = F.n
    if not parity_applicable(F):
        raise ParityFails("the 37-splitting parity condition fails for this base field")
    params = bound_params(K)
    s, e, f = splitting_37(F)
    d = K.rel_disc_norm
    branch1 = math.log(d / 4**n) / (f * LOG_37.hi)
    if C is None:
        C = final_C(bundle)["C"]
    prod = 1.0
    factors = {}
    for pr in params.P_K:
        q = pr.norm()
        fac = 1.0 - 2.0 * math.sqrt(q) / (1.0 + q)
        factors[str(q)] = fac
        prod *= fac
    branch2 = C * prod * math.log(d)
    bound = min(branch1, branch2)
    h_K = params.h_K
    ok = bound <= h_K + 1e-9
    if not ok:
        raise BoundViolated(f"final bound {bound} exceeds h_K = {h_K}")
    return {
        "branch_split": branch1,
        "branch_main": branch2,
        "bound": bound,
        "h_K": h_K,
        "slack": h_K - bound,
        "ramified_factors": factors,
        "C": C,
        "s37": s,
        "e37": e,
        "f37": f,
        "n_plus_s_even": (n + s) % 2 == 0,
        "places_above_37": s,
        "rigor": bundle.rigor,
        "ok": ok,
    }
