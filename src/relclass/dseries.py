"""Coefficientwise Dirichlet series: zeta functions of the corpus fields,
the positive quotient zeta_K/zeta_F(2s), and the measure comparisons feeding
the contour estimates.  The lines of K that the measure mu_K and the norm
counts of bounds.norm_count_check_K read (line_norms over norm_class_reps)
live here, so classify, which runs neither, does not compile them.

Each series is one Euler product, with each local factor read from how a
prime of F splits (F.splitting, CMField.splitting_kind): no ideal of K is
built.  The references that enumerate ideals instead live in
tests/oracles.py.  Coefficients are exact integers; the only real
arithmetic happens at the final inequality of each check, rounded outward.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cm import CMField, KElem, KIdeal, class_counts, line_colon_ideal
from .errors import InequalityViolated, OutOfRegion, TruncationTooLarge
from .field import Field

MAX_TRUNCATION = 10**4


def euler_coeffs(local_factors: list[tuple[int, list[int]]], X: int) -> list[int]:
    """Expand a product of local series sum_k c_{p,k} (p^k)^-s up to X.

    local_factors: (prime power base q, [c_0, c_1, ...]) per prime."""
    out = [0] * X
    out[0] = 1
    for q, cs in local_factors:
        if q > X:
            continue
        new = [0] * X
        for n in range(1, X + 1):
            if out[n - 1] == 0:
                continue
            qk = 1
            k = 0
            while n * qk <= X and k < len(cs):
                if cs[k]:
                    new[n * qk - 1] += out[n - 1] * cs[k]
                qk *= q
                k += 1
        out = new
    return out


def _geom(X: int, q: int) -> list[int]:
    ln = 0
    qk = 1
    while qk <= X:
        qk *= q
        ln += 1
    return [1] * ln


def zeta_coeffs_field(F: Field, X: int) -> list[int]:
    """The numbers of integral ideals of F of norm 1..X: the Euler product of
    (1 - N(p)^-s)^-1 over the primes p of F."""
    if X > MAX_TRUNCATION:
        raise TruncationTooLarge(f"X = {X} > {MAX_TRUNCATION}")
    return euler_coeffs([(pr.norm(), _geom(X, pr.norm())) for pr in F.primes_of_norm_up_to(X)], X)


def zeta_coeffs_cm(K: CMField, X: int) -> list[int]:
    """The numbers of integral ideals of K of norm 1..X.  The local factor at
    a prime p of F of norm q is (1 - q^-s)^-2 if p splits in K,
    (1 - q^-2s)^-1 if it is inert and (1 - q^-s)^-1 if it ramifies."""
    if X > MAX_TRUNCATION:
        raise TruncationTooLarge(f"X = {X} > {MAX_TRUNCATION}")
    factors = []
    for pr in K.F.primes_of_norm_up_to(X):
        cs = _geom(X, pr.norm())
        kind = K.splitting_kind(pr)
        if kind == "split":
            cs = list(range(1, len(cs) + 1))
        elif kind == "inert":
            cs = [1 - k % 2 for k in range(len(cs))]
        factors.append((pr.norm(), cs))
    return euler_coeffs(factors, X)


def vseries(K: CMField, X: int) -> list[int]:
    """The coefficients v_1..v_X of zeta_K(s)/zeta_F(2s), all >= 0."""
    zk = zeta_coeffs_cm(K, X)
    zf = zeta_coeffs_field(K.F, math.isqrt(X))
    # divide by sum_m zf[m - 1] (m^2)^-s, whose leading coefficient is 1
    out = zk[:]
    for n in range(1, X + 1):
        for m in range(2, math.isqrt(n) + 1):
            if n % (m * m) == 0:
                out[n - 1] -= zf[m - 1] * out[n // (m * m) - 1]
    assert all(v >= 0 for v in out)
    return out


def vsum_check(K: CMField) -> dict:
    """sum of v_n over n < sqrt|disc|/2^n_F compared with h = h_K/|im phi|."""
    threshold = math.sqrt(K.rel_disc_norm) / 2**K.F.n
    X = max(16, int(threshold) + 2)
    # exact comparison: n < sqrt(d)/2^nf iff n^2 4^nf < d
    total = sum(v for n, v in enumerate(vseries(K, X), 1) if n * n * 4**K.F.n < K.rel_disc_norm)
    h = class_counts(K).h
    ok = total <= h
    if not ok:
        raise InequalityViolated(f"vsum {total} > h = {h}")
    return {
        "threshold": threshold,
        "partial_sum": total,
        "h": h,
        "ok": ok,
        "margin": h - total,
    }


# -- measures and Mellin transforms --------------------------------------------------


class StepMeasure:
    """Atoms plus optional power-law density pieces c * t^gamma on [lo, hi]."""

    __slots__ = ("atoms", "density")

    def __init__(self):
        self.atoms: list[tuple[float, float]] = []
        # density entries: (c, gamma, lo, hi); hi = inf allowed
        self.density: list[tuple[float, float, float, float]] = []

    def __eq__(self, other):
        if type(other) is not StepMeasure:
            return NotImplemented
        return (self.atoms, self.density) == (other.atoms, other.density)

    def integral_of_mass(self, x: float) -> float:
        """int_0^x mass([0,t]) dt; exact for atom-only measures, panelwise
        closed-form for the density pieces."""
        out = 0.0
        for loc, m in self.atoms:
            if loc < x:
                out += m * (x - loc)
        for c, gamma, lo, hi in self.density:
            upper = min(x, hi)
            if upper > lo:
                # int_lo^upper (x - t) c t^gamma dt
                if gamma == -1:
                    raise OutOfRegion("log-divergent density")
                g1 = gamma + 1
                g2 = gamma + 2
                out += c * (
                    x * (upper**g1 - lo**g1) / g1 - (upper**g2 - lo**g2) / g2
                )
        return out


def mellin_closed(kind: str, params: dict, s: complex) -> complex:
    """Closed-form Mellin transforms of the comparison measures.

    kind "gamma": integral of t^-s e^(-1/t) t^(u-1) dt = Gamma(s - u).
    """
    s = complex(s)
    if kind == "gamma":
        u = params.get("u", 0.0)
        if s.real - u <= 0:
            raise OutOfRegion("Gamma transform needs Re(s) > u")
        import mpmath

        return complex(mpmath.gamma(s - u))
    raise ValueError(f"unknown kind {kind}")


def mellin_quadrature(u: float, s: complex) -> complex:
    """Numerical check of the Gamma transform."""
    import mpmath

    f = mpmath.quad(lambda t: t ** (-s) * mpmath.e ** (-1 / t) * t ** (u - 1), [0, mpmath.inf])
    return complex(f)


def norm_class_reps(K: CMField) -> list[KIdeal]:
    """One ideal in each class of Cl(K) modulo the image of Cl(F).

    Over Q they come from Gauss's reduced forms (a, b, c) of discriminant
    D = -N(d_K/F), one per class, which imagquad lists by a scan over
    3a^2 <= -D: the ideals a Z + ((-b + sqrt D)/2) Z, with no class data
    built; otherwise they are the class data's N_reps.  The two paths
    choose different ideals, so only readers of class invariants may call
    this: classify and decompose_ideal print or return their
    representatives and read the class data themselves.
    """
    if K.F.n == 1:
        from .imagquad import reduced_forms

        D = -K.rel_disc_norm
        r = D / K.delta.a  # sqrt D = s sqrt(delta) with s^2 = r
        s = Fraction(math.isqrt(r.numerator), math.isqrt(r.denominator))
        assert s * s == r
        return [
            KIdeal.from_generators(K, [K.elem(a), K.elem(Fraction(-b, 2), s / 2)])
            for a, b, _ in reduced_forms(D)
        ]
    return K.class_data().N_reps


def line_norms(K: CMField, Ni: KIdeal, x_max: Fraction):
    """Values |N(alpha)|/N(N_i) <= x_max over lines o*alpha in N_i, alpha up to units.

    Returns (lines, exclude): lines is the sorted list of (value, alpha), alpha
    canonical, and exclude the alpha of the first saturated line (the one of
    least value), or None when no line is saturated.

    K keeps the widest scan of each ideal, and a call within its bound reads
    the answer off it: the lines sort by (value, coordinates), and each
    orbit's canonical row does not depend on the bound, so the lines of value
    <= x_max, and the first saturated line if it is among them, are what a
    scan at x_max finds.
    """
    scan = K._line_scans.get(Ni.key())
    if scan is None or scan[0] < x_max:
        nN = Ni.norm()
        alphas = [K._from_order(zr, Ni.den) for zr in Ni.unit_orbits(x_max * nN)]
        lines = [(z.abs_norm() / nN, z) for z in alphas]
        lines.sort(key=lambda t: (t[0], tuple(t[1].coords())))
        first = None
        for t in lines:
            b = line_colon_ideal(K, t[1], Ni)
            if b.norm() == 1 and b.is_integral():
                first = t
                break
        scan = K._line_scans[Ni.key()] = (x_max, lines, first)
    _, lines, first = scan
    return [t for t in lines if t[0] <= x_max], (first[1] if first and first[0] <= x_max else None)


def mu_K_scan_bound(x_max: float) -> Fraction:
    """The bound of measure_mu_K's line scans, which finds each minimal line."""
    return Fraction(math.ceil(x_max) + 1)


def on_line(z: KElem, w: KElem) -> bool:
    """z lies on the F-line through w (cross product of (x, y) pairs vanishes)."""
    return (z.x * w.y - z.y * w.x).is_zero()


def measure_mu_K(K: CMField, x_max: float) -> StepMeasure:
    """Atoms |N(L N_i^-1)| over lines L in each N_i off the minimal line."""
    mu = StepMeasure()
    for Ni in norm_class_reps(K):
        # the fixed L_i: minimal |N(L o_K)| among saturated lines
        lines, exclude = line_norms(K, Ni, mu_K_scan_bound(x_max))
        for val, alpha in lines:
            if exclude is not None and on_line(alpha, exclude):
                continue
            if float(val) <= x_max:
                mu.atoms.append((float(val), 1.0))
    mu.atoms.sort()
    return mu


def measure_mu_K_bound(K: CMField, A1: float) -> StepMeasure:
    h_K = class_counts(K).h_K
    d = K.rel_disc_norm
    t0 = math.sqrt(d) / 2**K.F.n
    c = A1 * h_K / math.sqrt(d)
    mu = StepMeasure()
    mu.atoms.append((t0, A1 * h_K / 2**K.F.n))
    mu.density.append((c, 0.0, t0, math.inf))
    return mu


def measure_mu_F(F: Field, x_max: float) -> StepMeasure:
    """Atoms |N(m)|^2 over integral ideals m."""
    mu = StepMeasure()
    zf = zeta_coeffs_field(F, max(2, int(math.isqrt(int(x_max)) + 1)))
    mu.atoms.append((1.0, 1.0))  # the unit ideal
    for n in range(2, len(zf) + 1):
        if n * n <= x_max:
            mu.atoms.append((float(n * n), float(zf[n - 1])))
    return mu


def measure_mu_F_bound(F: Field, A2: float) -> StepMeasure:
    mu = StepMeasure()
    mu.atoms.append((1.0, math.sqrt(A2) * F.h_F))
    mu.density.append((F.h_F * math.sqrt(A2) / 2, -0.5, 1.0, math.inf))
    return mu


def measure_compare(K: CMField, samples: list[float], A1: float, A2: float) -> dict:
    """The two integral comparisons at the sample points; raises on violation."""
    x_max = max(samples)
    muK = measure_mu_K(K, x_max)
    muKp = measure_mu_K_bound(K, A1)
    muF = measure_mu_F(K.F, x_max)
    muFp = measure_mu_F_bound(K.F, A2)
    rows = []
    for x in samples:
        lhs_K = muK.integral_of_mass(x)
        rhs_K = muKp.integral_of_mass(x)
        lhs_F = muF.integral_of_mass(x)
        rhs_F = muFp.integral_of_mass(x)
        if lhs_K > rhs_K * (1 + 1e-12) + 1e-12:
            raise InequalityViolated(f"mu_K comparison fails at x = {x}")
        if lhs_F > rhs_F * (1 + 1e-12) + 1e-12:
            raise InequalityViolated(f"mu_F comparison fails at x = {x}")
        rows.append({"x": x, "K": (lhs_K, rhs_K), "F": (lhs_F, rhs_F)})
    return {"ok": True, "rows": rows}
