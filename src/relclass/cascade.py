"""The D/B/G/E/F constants of the effective-constant cascade.

bounds.make_bundle gathers the lambda-free constants (M', B, G, F2) into a
ConstantBundle, and bounds.final_C evaluates the lambda-forms (D, F1, E) on
its grid; both import this module inside their bodies, so only a bound row
that passes the 37-splitting parity test compiles it, and verify and the box
counts never do.

Every constant that can be certified is an outward-rounded interval.  The
G-layer rests on truncated L-data and is flagged heuristic unless values are
injected.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .errors import LambdaTooSmall, StrategyUnavailable
from .field import Field, FIdeal, kronecker
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
    from .bounds import ConstantBundle, LatticeConstants
    from .hecke import EigenvalueTable

# prime norms up to this enter the F2 products
F2_CAP = 131
# the truncated Euler products of the G constants read the primes over p up
# to this; `relclass bound` builds its eigenvalue tables no further
PRIME_CAP = 300


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
    """Numeric zeta_F via zeta * L(s, chi) (quadratic) or zeta (rational).

    mpmath works at 128 bits here, whatever the caller's precision: G2 takes
    central differences of these values, which read their last bits."""
    import mpmath

    with mpmath.workprec(128):
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


def g_constants(
    table: EigenvalueTable,
    strategy: str = "heuristic",
    injected: dict | None = None,
) -> GConstants:
    """G1 (lower), G2/G3 (upper) for the chosen Dirichlet-series pair.

    heuristic: symmetric-square data truncated at the primes over
    p <= min(PRIME_CAP, table.pmax) and contour quadrature;
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
        return GConstants(injected["G1"], injected["G2"], injected["G3"], "injected")
    if strategy != "heuristic":
        raise StrategyUnavailable(f"unknown strategy {strategy}")
    from .hecke import symsq_L1, symsq_log_deriv_L1

    F = table.F
    n = F.n
    level_norm = int(table.level.norm())
    twopi = (2 * math.pi) ** (2 * n)
    prime_cap = min(PRIME_CAP, table.pmax)
    L1 = symsq_L1(table, prime_cap)
    zprime = zeta_F_a_inv_prime_at_1(F, table.level)
    sq_primes = _square_level_primes(table)
    corr1 = 1.0
    for q in sq_primes:
        corr1 *= q / (math.sqrt(q) + 1) ** 2
    G1 = abs(2.0 * F.d_F**2 / (twopi * level_norm**n) * L1 * zprime * corr1)
    logderiv = abs(2 * symsq_log_deriv_L1(table, prime_cap))
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
    return GConstants(G1, G2, G3, "heuristic")


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
    for _, q, v, lam in table.local(min(prime_cap, 150)):
        lq = math.log(q)
        primes_data.append((lq, v, 0 if v else lam, math.exp(-lq)))

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


# -- F and E constants ----------------------------------------------------------------------


def f2_uniform(F: Field) -> Interval:
    """K-independent product over candidate prime norms <= F2_CAP of
    sqrt(q)/(q^(1/4)-1)^2."""
    out = Interval(1.0)
    seen = set()
    for pr in F.primes_of_norm_up_to(F2_CAP):
        q = pr.norm()
        if q in seen:
            continue
        seen.add(q)
        qi = Interval(float(q))
        out = out * isqrt_iv(qi) / (ipow(qi, 0.25) - Interval(1.0)) ** 2
    return out


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
