"""Coefficientwise Dirichlet series: zeta functions of the corpus fields,
the positive quotient zeta_K/zeta_F(2s), and the measure comparisons feeding
the contour estimates.  The lines of K that the measure mu_K and the norm
counts of bounds.norm_count_check_K read (line_norms over norm_class_reps)
live here, so classify, which runs neither, does not compile them.

Coefficients are exact integers; the only real arithmetic happens at the
final inequality of each check, rounded outward.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cm import CMField, KElem, KIdeal, class_counts, line_colon_ideal
from .errors import InequalityViolated, OutOfRegion, TruncationTooLarge
from .field import Field, prime_products, primes_up_to

MAX_TRUNCATION = 10**4


class CoeffSeries:
    """Dirichlet coefficients v_1..v_X with a provenance tag."""

    __slots__ = ("X", "coeffs", "provenance")

    def __init__(self, X: int, coeffs: list[Fraction], provenance: str):
        assert len(coeffs) == X
        self.X = X
        self.coeffs = coeffs
        self.provenance = provenance

    def __eq__(self, other):
        if type(other) is not CoeffSeries:
            return NotImplemented
        return (self.X, self.coeffs, self.provenance) == (other.X, other.coeffs, other.provenance)

    def coeff(self, n: int) -> Fraction:
        return self.coeffs[n - 1]

    def div(self, other: "CoeffSeries") -> "CoeffSeries":
        """Series quotient; other must have leading coefficient 1."""
        X = min(self.X, other.X)
        assert other.coeffs[0] == 1
        out = [Fraction(0)] * X
        for n in range(1, X + 1):
            acc = self.coeffs[n - 1]
            for d in range(2, n + 1):
                if n % d == 0 and other.coeffs[d - 1]:
                    acc -= other.coeffs[d - 1] * out[n // d - 1]
            out[n - 1] = acc
        return CoeffSeries(X, out, "quotient")


def euler_coeffs(local_factors: list[tuple[int, list[Fraction]]], X: int) -> list[Fraction]:
    """Expand a product of local series sum_k c_{p,k} (p^k)^-s up to X.

    local_factors: (prime power base q, [c_0, c_1, ...]) per prime."""
    out = [Fraction(0)] * X
    out[0] = Fraction(1)
    for q, cs in local_factors:
        if q > X:
            continue
        new = [Fraction(0)] * X
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


def _geom(X: int, q: int) -> list[Fraction]:
    ln = 0
    qk = 1
    while qk <= X:
        qk *= q
        ln += 1
    return [Fraction(1)] * ln


def zeta_coeffs_field(F: Field, X: int) -> CoeffSeries:
    """Ideal counts of the base field, Euler product route, cross-checked
    against a direct sublattice enumeration on the first 400 coefficients."""
    if X > MAX_TRUNCATION:
        raise TruncationTooLarge(f"X = {X} > {MAX_TRUNCATION}")
    factors = []
    for p in primes_up_to(X):
        for pr in F.splitting(p).primes:
            if pr.norm() <= X:
                factors.append((pr.norm(), _geom(X, pr.norm())))
    coeffs = euler_coeffs(factors, X)
    cap = min(X, 400)
    direct = [1] * cap if F.n == 1 else _quadratic_ideal_counts(F.c0, F.c1, cap)
    for n in range(1, cap + 1):
        assert coeffs[n - 1] == direct[n - 1], (n, coeffs[n - 1], direct[n - 1])
    return CoeffSeries(X, coeffs, "ideal-count")


def _quadratic_ideal_counts(c0: int, c1: int, cap: int) -> list[int]:
    """Numbers of integral ideals of each index n <= cap in Z[w], w^2 = c0 + c1 w.

    An ideal of index n = a c has the unique HNF basis a, b + c w with
    0 <= b < a.  Since w a = (a/c)(b + c w) - ab/c and
    w (b + c w) = c c0 + (b + c c1) w, it is closed under w exactly when
    c | a, c | b and a | c c0 - (b/c + c1) b."""
    counts = [0] * cap
    for c in range(1, math.isqrt(cap) + 1):
        for a in range(c, cap // c + 1, c):
            counts[a * c - 1] += sum(1 for b in range(0, a, c) if (c * c0 - (b // c + c1) * b) % a == 0)
    return counts


def zeta_coeffs_cm(K: CMField, X: int) -> CoeffSeries:
    """Ideal counts of the extension field, cross-checked by direct
    enumeration on the first 60 coefficients."""
    if X > MAX_TRUNCATION:
        raise TruncationTooLarge(f"X = {X} > {MAX_TRUNCATION}")
    factors = []
    for p in primes_up_to(X):
        for pr in K.F.splitting(p).primes:
            if pr.norm() > X:
                continue
            for kp in K.primes_above(pr):
                if kp.norm() <= X:
                    factors.append((kp.norm(), _geom(X, kp.norm())))
    coeffs = euler_coeffs(factors, X)
    cap = min(X, 60)
    direct = _ideal_count_direct_cm(K, cap)
    for n in range(1, cap + 1):
        assert coeffs[n - 1] == direct[n - 1], (n, coeffs[n - 1], direct[n - 1])
    return CoeffSeries(X, coeffs, "ideal-count")


def _ideal_count_direct_cm(K: CMField, cap: int) -> list[int]:
    """Counts of integral o_K-sublattices of index <= cap, by enumeration."""
    if K.deg == 2:
        # o_K = Z[theta], theta = (d + sqrt d)/2, theta^2 = -(d^2 - d)/4 + d theta
        d = -K.rel_disc_norm
        return _quadratic_ideal_counts(-((d * d - d) // 4), d, cap)
    # degree 4: enumerate prime products (products of distinct structures are
    # distinct ideals), which is the unique-factorization route
    seen = {}
    for idl, nm in prime_products(K.maximal_order(), K.kprimes_up_to(cap), cap):
        seen.setdefault(idl.key(), nm)
    counts = [0] * cap
    for nm in seen.values():
        counts[nm - 1] += 1
    return counts


def vseries(K: CMField, X: int) -> CoeffSeries:
    """zeta_K(s)/zeta_F(2s), both as an Euler product over base primes and as
    a coefficient quotient; exact agreement is required."""
    if X > MAX_TRUNCATION:
        raise TruncationTooLarge(f"X = {X} > {MAX_TRUNCATION}")
    factors = []
    for p in primes_up_to(X):
        for pr in K.F.splitting(p).primes:
            q = pr.norm()
            if q > X:
                continue
            kind = K.splitting_kind(pr)
            if kind == "split":
                # (1 + q^-s)/(1 - q^-s) = 1 + 2 q^-s + 2 q^-2s + ...
                ln = len(_geom(X, q))
                factors.append((q, [Fraction(1)] + [Fraction(2)] * (ln - 1)))
            elif kind == "ramified":
                factors.append((q, [Fraction(1), Fraction(1)]))
    prod_route = euler_coeffs(factors, X)
    zk = zeta_coeffs_cm(K, X)
    zf = zeta_coeffs_field(K.F, X)
    zf2 = [Fraction(0)] * X
    for n in range(1, X + 1):
        if n * n <= X:
            zf2[n * n - 1] = zf.coeffs[n - 1]
        else:
            break
    quotient_route = zk.div(CoeffSeries(X, zf2, "zeta_F(2s)"))
    assert prod_route == quotient_route.coeffs, "Euler product vs quotient mismatch"
    out = CoeffSeries(X, prod_route, "euler-product")
    assert all(v >= 0 for v in out.coeffs)
    return out


def vsum_check(K: CMField) -> dict:
    """sum of v_n over n < sqrt|disc|/2^n_F compared with h = h_K/|im phi|."""
    threshold = math.sqrt(K.rel_disc_norm) / 2**K.F.n
    X = max(16, int(threshold) + 2)
    vs = vseries(K, X)
    # exact comparison: n < sqrt(d)/2^nf iff n^2 4^nf < d
    total = Fraction(0)
    for n in range(1, X + 1):
        if n * n * 4**K.F.n < K.rel_disc_norm:
            total += vs.coeff(n)
    h = class_counts(K).h
    ok = total <= h
    if not ok:
        raise InequalityViolated(f"vsum {total} > h = {h}")
    return {
        "threshold": threshold,
        "partial_sum": int(total),
        "h": h,
        "ok": ok,
        "margin": h - int(total),
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

    kind "gamma": integral of t^-s e^(-1/t) t^(u-1) dt = Gamma(s - u);
    kind "K": h_K A1 2^(n s - n) s / ((s-1) sqrt(d)^s);
    kind "F": h_F sqrt(A2) s/(s - 1/2).
    """
    s = complex(s)
    if kind == "gamma":
        u = params.get("u", 0.0)
        if s.real - u <= 0:
            raise OutOfRegion("Gamma transform needs Re(s) > u")
        import mpmath

        return complex(mpmath.gamma(s - u))
    if kind == "K":
        if s.real <= 1:
            raise OutOfRegion("Re(s) > 1 required")
        h_K = params["h_K"]
        A1 = params["A1"]
        n = params["n"]
        d = params["reldisc"]
        return h_K * A1 * complex(2) ** (n * s - n) * s / ((s - 1) * complex(d) ** (s / 2))
    if kind == "F":
        if s.real <= 0.5:
            raise OutOfRegion("Re(s) > 1/2 required")
        h_F = params["h_F"]
        A2 = params["A2"]
        return h_F * math.sqrt(A2) * s / (s - 0.5)
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
    """
    nN = Ni.norm()
    alphas = [K._from_order(zr, Ni.den) for zr in Ni.unit_orbits(x_max * nN)]
    lines = [(z.abs_norm() / nN, z) for z in alphas]
    lines.sort(key=lambda t: (t[0], tuple(t[1].coords())))
    for _, zc in lines:
        b = line_colon_ideal(K, zc, Ni)
        if b.norm() == 1 and b.is_integral():
            return lines, zc
    return lines, None


def on_line(z: KElem, w: KElem) -> bool:
    """z lies on the F-line through w (cross product of (x, y) pairs vanishes)."""
    return (z.x * w.y - z.y * w.x).is_zero()


def measure_mu_K(K: CMField, x_max: float) -> StepMeasure:
    """Atoms |N(L N_i^-1)| over lines L in each N_i off the minimal line."""
    mu = StepMeasure()
    for Ni in norm_class_reps(K):
        # the fixed L_i: minimal |N(L o_K)| among saturated lines
        lines, exclude = line_norms(K, Ni, Fraction(math.ceil(x_max) + 1))
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
    for n in range(2, zf.X + 1):
        if n * n <= x_max:
            mu.atoms.append((float(n * n), float(zf.coeff(n))))
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
