"""The effective-constant cascade: lattice point bounds, norm-count constants,
the per-extension parameters (m, V, U, R), and the final class-number lower
bound.

The D/B/G/E/F constants live in relclass.cascade, which make_bundle and
final_C import inside their bodies: verify (norm counts, bound_params) and
the box counts never compile them.

Every constant that can be certified is an outward-rounded interval and only
ever errs in the conservative direction (C_T0 upward, the final C downward).
The G-layer rests on truncated L-data and is flagged heuristic unless values
are injected; reports carry a rigor ledger saying which is which.
"""

from __future__ import annotations

import math
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
)
from .field import (
    Field,
    FIdeal,
    PrimeIdeal,
    parity_applicable,
    primes_up_to,
    splitting_37,
    surd_floor,
    surd_sign,
    surd_uv,
)
from .numerics import PI, Interval, iexp, ilog, imax, ipow, isqrt_iv

if TYPE_CHECKING:
    from .cascade import GConstants
    from .cm import CMField
    from .hecke import EigenvalueTable

LOG_37 = Interval(3.6109179126442243, 3.6109179126442248)


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
    fac1: Interval  # 2^n/sqrt(d_F) + 2n C_T0/T0: the covering factor of the box counts


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
    return LatticeConstants(d0, T0, C_T0, C_1, A1, A2, fac1)


# -- box counting ---------------------------------------------------------------------


def _box_sides(x0: tuple, c: tuple) -> tuple[int, list[tuple[int, int]]]:
    """(L, [(L*(x0_j - c_j), L*(x0_j + c_j))]): the box's sides as integers over
    L, the lcm of the denominators of x0 and c (ints or Fractions)."""
    L = math.lcm(*(v.denominator for v in (*x0, *c)))
    sides = []
    for x, w in zip(x0, c):
        xs, ws = L // x.denominator * x.numerator, L // w.denominator * w.numerator
        sides.append((xs - ws, xs + ws))
    return L, sides


def count_box(F: Field, idl: FIdeal, x0: tuple, c: tuple) -> int:
    """Exact number of lattice points of the ideal in the box
    |sigma_j(x) - x0_j| <= c_j (x0 and c hold ints or Fractions; a box with
    a negative width holds no point).

    For n = 2 the points r*b0 + s*b1 are counted one line of fixed r at a
    time, on integers alone.  With sigma_j(b_i) = (u_i + t v_i sqrt m)/e_i
    (t = 1 for j = 0, -1 for j = 1) and the box scaled by L to integer sides
    Y, sigma_j(r*b0 + s*b1) = Y/L reads
        s = (P0 + r*P1 + t*(Q0 + r*Q1) sqrt m) / d
    after multiplying by the conjugate of u1 + t v1 sqrt m, with integers
    P0, Q0 (one pair per side Y), P1, Q1 and d > 0 fixed once per box.  The
    two sides of each embedding bound s, the lower from Y = L(x0_j - c_j)
    unless sigma_j(b1) < 0 swaps them, so a line costs four exact floors.
    The basis is read off the ideal's integer rows, b_i = (row_i . (1,
    omega))/den, so e_0 = e_1 = 2 den; the sides (L, Y) and the (u_i, v_i)
    are taken once per box and shared with _line_range."""
    L, sides = _box_sides(x0, c)
    den = idl.den
    if F.n == 1:
        # the points k*a/den; L*(x0 - c) <= k*a*L/den <= L*(x0 + c)
        [(lo, hi)] = sides
        a = idl.num[0][0]
        return max(0, (hi * den) // (L * a) + (-lo * den) // (L * a) + 1)
    m = F.m
    row0, row1 = idl.num
    uv0, uv1 = surd_uv(F, *row0), surd_uv(F, *row1)
    r_lo, r_hi = _line_range(m, den, uv0, uv1, L, sides)
    (u0, v0), (u1, v1) = uv0, uv1
    e0 = 2 * den
    d = e0 * L * (u1 * u1 - m * v1 * v1)
    g = e0 if d > 0 else -e0
    d = abs(d)
    p1 = g * L * (m * v0 * v1 - u0 * u1)
    q1 = g * L * (u0 * v1 - v0 * u1)
    low, high = [], []  # (P0, t*Q0) of each embedding's bounds, the lower negated for its ceiling
    for (y_lo, y_hi), t in zip(sides, (1, -1)):
        if surd_sign(u1, t * v1, m) < 0:
            y_lo, y_hi = y_hi, y_lo
        low.append((-g * e0 * u1 * y_lo, t * g * e0 * v1 * y_lo))
        high.append((g * e0 * u1 * y_hi, -t * g * e0 * v1 * y_hi))
    (lp0, lq0), (lp1, lq1) = low
    (hp0, hq0), (hp1, hq1) = high
    count = 0
    for r in range(r_lo, r_hi + 1):
        p, q = r * p1, r * q1
        s_lo = -min(surd_floor(lp0 - p, lq0 - q, m, d), surd_floor(lp1 - p, lq1 + q, m, d))
        s_hi = min(surd_floor(hp0 + p, hq0 + q, m, d), surd_floor(hp1 + p, hq1 - q, m, d))
        if s_hi >= s_lo:
            count += s_hi - s_lo + 1
    return count


def _line_range(m: int, den0: int, uv0: tuple, uv1: tuple, L: int, sides: list) -> tuple[int, int]:
    """Least and greatest r whose line r*b0 + s*b1 (s real) meets the box.

    The basis enters as its (u_i, v_i) and den0 (den_1 cancels), and the box
    as _box_sides gives it: the integer sides Y over L.
    r = Tr(b0* x) = sigma_0(b0*) sigma_0(x) + sigma_1(b0*) sigma_1(x) for the
    trace-dual element b0*; by Cramer's rule, with sigma_j(b_i) =
    (u_i + t v_i sqrt m)/(2 den_i) and D = v0 u1 - u0 v1,
        r = den_0 ((y0 - y1) u1 sqrt m - (y0 + y1) v1 m) / (m D)
    at the point of embeddings (y0, y1), so sigma_j(b0*) has the sign of D times
    that of sigma_1(b1) for j = 0 and of -sigma_0(b1) for j = 1.  r is extreme
    at the two corners those signs pick: one exact floor each."""
    (u0, v0), (u1, v1) = uv0, uv1
    D = v0 * u1 - u0 * v1
    g = den0 if D > 0 else -den0
    top, bottom = [], []
    for (lo, hi), k in zip(sides, (surd_sign(u1, -v1, m), -surd_sign(u1, v1, m))):
        top.append(hi if k * g > 0 else lo)
        bottom.append(lo if k * g > 0 else hi)
    d = m * abs(D) * L
    r_hi = surd_floor(-g * (top[0] + top[1]) * v1 * m, g * (top[0] - top[1]) * u1, m, d)
    r_lo = -surd_floor(g * (bottom[0] + bottom[1]) * v1 * m, -g * (bottom[0] - bottom[1]) * u1, m, d)
    return r_lo, r_hi


def box_bound_check(F: Field, consts: LatticeConstants, idl: FIdeal, x0: tuple, c: tuple) -> dict:
    """Exact count against the certified covering bound fac1 * prod(c) / N(a).

    The comparison runs on integers, one product per side.  With
    prod(c) = P/Q, N(a) = a/b and the dyadic rationals T0.hi = t/tq and
    fac1.lo = f/fq (floats are exact ratios), the precondition
    prod(c) >= T0.hi N(a) reads P b tq >= t a Q, and the count is within the
    bound when count Q a fq <= f P b.  The bound reported is that exact
    rational fac1.lo * prod(c) / N(a): under the precondition prod(c) > 0,
    so it is a certified lower end of the bound, and it is never below the
    outward-rounded interval product's lower end."""
    P = Q = 1
    for v in c:
        P *= v.numerator
        Q *= v.denominator
    nm = idl.norm()
    a, b = nm.numerator, nm.denominator
    t, tq = consts.T0.hi.as_integer_ratio()
    f, fq = consts.fac1.lo.as_integer_ratio()
    pre_ok = P * b * tq >= t * a * Q
    count = count_box(F, idl, x0, c)
    top, bottom = f * P * b, Q * a * fq
    ok = count * bottom <= top
    bound = Fraction(top, bottom)
    if pre_ok and not ok:
        raise BoundViolated(f"count {count} exceeds certified bound {bound}")
    return {"count": count, "bound": bound, "precondition": pre_ok, "ok": ok or not pre_ok}


# -- norm counting --------------------------------------------------------------------


def norm_count_scan_bound(K: CMField, t) -> Fraction:
    """The bound of norm_count_check_K's line scan: t, or the Minkowski-type
    bound below which the minimal saturated line lies if that is larger."""
    mink = (2 / math.pi) ** K.F.n * math.sqrt(K.abs_disc) + 2
    return max(Fraction(t), Fraction(mink))


def norm_count_check_K(K: CMField, Ni, t: Fraction, lat: LatticeConstants) -> dict:
    """Inequality (a): orbits off the minimal line against A1 t / sqrt(disc)."""
    # the excluded line has minimal |N(L o_K)| among saturated lines; scan far
    # enough that it is certainly found.  Each entry of line_norms is one unit
    # orbit, so the count reads off the same scan.
    from .dseries import line_norms, on_line

    lines, exclude = line_norms(K, Ni, norm_count_scan_bound(K, t))
    count = sum(1 for v, z in lines if v <= t and (exclude is None or not on_line(z, exclude)))
    rhs = lat.A1 * Interval(Fraction(t)) / isqrt_iv(Interval.exact(K.rel_disc_norm))
    ok = count <= rhs.hi
    if not ok:
        raise InequalityViolated(f"norm-count (a): {count} > {rhs}")
    return {"count": count, "rhs": rhs.hi, "ok": ok}


def norm_count_check_F(idl: FIdeal, t: Fraction, lat: LatticeConstants) -> dict:
    """Inequality (b): the unit orbits of nonzero a in the ideal with
    |N(a)| <= t N(ideal) against A2 t."""
    count = len(idl.unit_orbits(Fraction(t) * idl.norm()))
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
    # scan checks: no split prime below V, at most one below U
    split_below_U = 0
    for p in primes_up_to(int(max(V, U)) + 1):
        for pr in K.F.splitting(p).primes:
            q = pr.norm()
            if q >= max(V, U) or K.splitting_kind(pr) != "split":
                continue
            if q < V:
                raise LemmaViolation(f"split prime {pr} below V = {V}")
            if q < U:
                split_below_U += 1
    if split_below_U > 1:
        raise LemmaViolation(f"{split_below_U} split primes below U")
    if R < U:
        raise LemmaViolation(f"R = {R} < U = {U}")
    assert all(pr in P_K for pr in P_UK)
    return BoundParams(len(ram), m, V, U, R, P_UK, P_K, h, h_K)


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


def make_bundle(
    F: Field,
    table: EigenvalueTable,
    strategy: str = "heuristic",
    injected: dict | None = None,
    lambda_grid: list[float] | None = None,
    prime_cap: int = 400,
) -> ConstantBundle:
    from .cascade import b_constants, f2_uniform, g_constants, m_prime

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


def final_C(bundle: ConstantBundle) -> dict:
    """max over the grid of min(1/lambda, G1 D2 E2 / E1), with E2 > 0 required."""
    from .cascade import e_constants

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
