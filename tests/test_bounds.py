import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relclass import bounds as bnd
from relclass import cascade, field
from relclass.cm import make_cm
from relclass.errors import (
    AssumptionViolated,
    BoundViolated,
    LambdaTooSmall,
    NoFeasibleLambda,
    ParityFails,
    StrategyUnavailable,
)
from relclass.field import FElem, kronecker, make_field
from relclass.hecke import QuadChar, base_change_table, gz_table, twist_table
from relclass.numerics import Interval, isqrt_iv

Q = make_field(1)
F5 = make_field(2, 5)
LAT_Q = bnd.lattice_constants(Q)


def _midpoint(x: Interval) -> float:
    return 0.5 * (x.lo + x.hi)


def test_rational_lattice_constants():
    assert LAT_Q.d0.hi == 0.0
    assert abs(_midpoint(LAT_Q.T0) - math.sqrt(math.pi) / 2) < 1e-12
    assert LAT_Q.C_T0.hi == 1.0
    assert abs(_midpoint(LAT_Q.A2) - 4.0) < 1e-9  # (2 + 2*C_1)


def test_quadratic_lattice_constants_cover_reevaluation():
    lat = bnd.lattice_constants(F5)
    # d0 = sqrt(2) * log eps with eps the golden ratio
    import mpmath

    with mpmath.workprec(200):
        d0_hp = float(mpmath.sqrt(2) * mpmath.log((1 + mpmath.sqrt(5)) / 2))
    assert lat.d0.lo <= d0_hp <= lat.d0.hi
    t0_hp = math.pi / (4 * math.sqrt(5)) * math.exp(math.sqrt(2) * d0_hp / 2)
    assert lat.T0.lo <= t0_hp <= lat.T0.hi


@pytest.mark.parametrize("m", [2, 3, 5, 13])
def test_T0_encloses_its_value(m):
    # T0 = pi^(n/2) exp(sqrt(n(n-1)) d0/2) / (2^n sqrt(d_F)), d0 = sqrt 2 log eps
    F = make_field(2, m)
    T0 = bnd.lattice_constants(F).T0
    with mpmath.workdps(50):
        s = mpmath.sqrt(m)
        om = s if F.c1 == 0 else (1 + s) / 2
        eps = (F.eps.na + F.eps.nb * om) / F.eps.den
        d0 = mpmath.sqrt(2) * mpmath.log(eps)
        t0 = mpmath.pi * mpmath.exp(mpmath.sqrt(2) * d0 / 2) / (4 * mpmath.sqrt(F.d_F))
        assert T0.lo <= t0 <= T0.hi
    root2 = bnd._sqrt_n_n1(2)  # the factor itself encloses sqrt 2
    assert Fraction(root2.lo) ** 2 <= 2 <= Fraction(root2.hi) ** 2


def test_box_precondition_compares_against_exact_T0():
    # the best rational approximation with denominator <= 10^12 lies below T0.hi
    c0 = Fraction(LAT_Q.T0.hi).limit_denominator(10**12)
    assert c0 < Fraction(LAT_Q.T0.hi)
    rep = bnd.box_bound_check(Q, LAT_Q, Q.unit_ideal(), (0,), (c0,))
    assert rep["precondition"] is False


def test_count_box_examples():
    assert bnd.count_box(Q, Q.unit_ideal(), (0,), (5,)) == 11
    assert bnd.count_box(Q, Q.ideal(3), (0,), (5,)) == 3
    assert bnd.count_box(F5, F5.unit_ideal(), (0, 0), (3, 3)) == 17
    # a box with a negative width is empty on either degree
    assert bnd.count_box(Q, Q.unit_ideal(), (0,), (-3,)) == 0
    assert bnd.count_box(Q, Q.ideal(3), (Fraction(1, 2),), (Fraction(-7, 4),)) == 0
    assert bnd.count_box(F5, F5.unit_ideal(), (0, 0), (3, -3)) == 0
    assert bnd.box_bound_check(Q, LAT_Q, Q.unit_ideal(), (0,), (-3,))["count"] == 0


BOX_FIELDS = [Q] + [make_field(2, m) for m in (2, 3, 5, 6, 7, 13, 17, 21, 33)]


@st.composite
def box_case(draw):
    """An ideal (a product of up to two primes above 2, 3, 5 or 7, scaled by
    1/k to den > 1 at times) and a small box with denominators 1 to 8, its
    widths at times 0 or below 0."""
    F = draw(st.sampled_from(BOX_FIELDS))
    primes = [pr.ideal for p in (2, 3, 5, 7) for pr in F.splitting(p).primes]
    idl = F.unit_ideal()
    for pr in draw(st.lists(st.sampled_from(primes), max_size=2)):
        idl = idl * pr
    idl = idl.scale(Fraction(1, draw(st.integers(1, 3))))
    x0 = tuple(Fraction(draw(st.integers(-8, 8)), draw(st.integers(1, 8))) for _ in range(F.n))
    c = tuple(Fraction(draw(st.integers(-4, 16)), draw(st.integers(1, 8))) for _ in range(F.n))
    return F, idl, x0, c


@settings(max_examples=120, deadline=None)
@given(box_case())
def test_count_box_against_point_scan(case):
    F, idl, x0, c = case
    assert bnd.count_box(F, idl, x0, c) == oracles.count_box(F, idl, x0, c)


def test_count_box_builds_no_element_per_line(monkeypatch):
    """A line costs integer floors only: a box of 60 and more lines builds
    no more base-field elements than a box of 3 lines."""
    built = []
    new, init = field._new, FElem.__init__
    monkeypatch.setattr(field, "_new", lambda cls: built.append(cls) or new(cls))
    monkeypatch.setattr(FElem, "__init__", lambda self, *a: built.append(FElem) or init(self, *a))
    one = F5.unit_ideal()
    elems = []
    for c in ((1, 1), (40, 40)):
        b0, b1 = one.basis_elems()
        r_lo, r_hi = bnd._line_range(F5.m, b0.den, b0._uv(), b1._uv(), *bnd._box_sides((0, 0), c))
        built.clear()
        bnd.count_box(F5, one, (0, 0), c)
        elems.append((r_hi - r_lo + 1, built.count(FElem)))
    (few, small), (many, large) = elems
    assert few == 3 and many >= 60 and large <= small


def _acceptance_07_boxes():
    """The boxes of acceptance 07 (seed 11, 500 per field), drawn the same way."""
    rng = random.Random(11)
    for F in [Q] + [make_field(2, m) for m in (2, 3, 5, 13)]:
        lat = bnd.lattice_constants(F)
        ideals = [F.unit_ideal()] + [pr.ideal for p in (2, 3, 5) for pr in F.splitting(p).primes]
        for _ in range(500):
            idl = ideals[rng.randrange(len(ideals))]
            x0 = tuple(Fraction(rng.randrange(-8, 9), 2) for _ in range(F.n))
            base = (lat.T0.hi * float(idl.norm())) ** (1.0 / F.n)
            c = tuple(Fraction(math.ceil((base + rng.random() * 4) * 8), 8) for _ in range(F.n))
            yield F, idl, x0, c


def _edge_boxes():
    """Boxes with lattice points exactly on their sides, corners and centres."""
    F6, F7 = make_field(2, 6), make_field(2, 7)
    p2 = F5.splitting(2).primes[0].ideal  # (2): its rational points are 2Z
    for F in (F5, F6, F7):
        one = F.unit_ideal()
        yield F, one, (0, 0), (2, 2)  # +-2 on two corners
        yield F, one, (0, 0), (2, 3)  # +-2 on the sides sigma_0 = +-2
        yield F, one, (0, 0), (3, 2)  # +-2 on the sides sigma_1 = +-2
        yield F, one, (Fraction(1, 2), 0), (Fraction(3, 2), 5)  # -1 on sigma_0 = -1, 2 on sigma_0 = 2
        yield F, one, (3, 3), (0, 0)  # a zero-width box on the point 3
        yield F, one, (Fraction(1, 2), Fraction(1, 2)), (0, 0)  # a zero-width box on no point
        yield F, one, (3, 2), (0, 0)  # no element has the embeddings (3, 2)
        yield F, F.splitting(3).primes[-1].ideal, (Fraction(-7, 3), 1), (Fraction(17, 8), Fraction(33, 8))
    yield F5, p2, (2, 0), (2, 2)
    yield F5, p2, (0, 0), (4, 4)
    for p in (2, 3, 7):
        yield Q, Q.ideal(p), (Fraction(1, 2),), (Fraction(7, 2),)
    yield Q, Q.unit_ideal(), (3,), (0,)


def test_count_box_matches_point_scan():
    draw = list(_acceptance_07_boxes())
    cases = draw[::25] + list(_edge_boxes())
    for F, idl, x0, c in cases:
        if F.n == 2:
            assert idl.basis_elems()[1].embedding_sign(1) < 0  # the s-bounds of sigma_1 swap
        assert bnd.count_box(F, idl, x0, c) == oracles.count_box(F, idl, x0, c), (F, idl, x0, c)


def _mp(q) -> mpmath.mpf:
    q = Fraction(q)
    return mpmath.mpf(q.numerator) / q.denominator


def test_line_range_is_tight():
    """r_lo and r_hi are the ceiling and floor of the extreme values of r over
    the box, computed here at 60 digits from its four corners; an extreme
    within 1e-40 of an integer is that integer (boxes with a corner on the
    lattice have one)."""
    for F, idl, x0, c in list(_acceptance_07_boxes())[500::20] + list(_edge_boxes()):
        if F.n == 1:
            continue
        b0, b1 = idl.basis_elems()
        sides = bnd._box_sides(tuple(map(Fraction, x0)), tuple(map(Fraction, c)))
        r_lo, r_hi = bnd._line_range(F.m, b0.den, b0._uv(), b1._uv(), *sides)
        with mpmath.workdps(60):
            s = mpmath.sqrt(F.m)
            omegas = (s, -s) if F.c1 == 0 else ((1 + s) / 2, (1 - s) / 2)
            (e00, e01), (e10, e11) = [[_mp(b.a) + _mp(b.b) * w for w in omegas] for b in (b0, b1)]
            # the coefficient r of b0 at a corner (y0, y1), by Cramer's rule
            corners = [(_mp(x0[0]) + i * _mp(c[0]), _mp(x0[1]) + j * _mp(c[1])) for i in (-1, 1) for j in (-1, 1)]
            rs = [(y0 * e11 - y1 * e10) / (e00 * e11 - e01 * e10) for y0, y1 in corners]
            tol = mpmath.mpf(10) ** -40
            assert (r_lo, r_hi) == (int(mpmath.ceil(min(rs) - tol)), int(mpmath.floor(max(rs) + tol))), (F, idl, x0, c)


def _fac1(F, T0, C_T0):
    """The covering factor 2^n/sqrt(d_F) + 2n C_T0/T0, as lattice_constants builds it."""
    n = F.n
    return Interval(2.0) ** n / isqrt_iv(Interval.exact(F.d_F)) + Interval(2.0 * n) * C_T0 / T0


def test_box_check_compares_against_certified_lower_end():
    # (2 + 2 C_T0/T0) * 5 lands 5e-10 below the count 11 of [-5, 5]
    T0, C_T0 = Interval(1.0), Interval(0.1 - 5e-11)
    lat = bnd.LatticeConstants(LAT_Q.d0, T0, C_T0, LAT_Q.C_1, LAT_Q.A1, LAT_Q.A2, _fac1(Q, T0, C_T0))
    bound = (Interval(2.0) + Interval(2.0) * lat.C_T0 / lat.T0) * Interval(5.0)
    assert 11 - 1e-9 < bound.lo < 11
    with pytest.raises(BoundViolated):
        bnd.box_bound_check(Q, lat, Q.unit_ideal(), (0,), (5,))


def test_box_bound_monotone_in_slack():
    lat = LAT_Q
    rep1 = bnd.box_bound_check(Q, lat, Q.unit_ideal(), (0,), (5,))
    C_T0 = lat.C_T0 * Interval(2.0)
    lat2 = bnd.LatticeConstants(lat.d0, lat.T0, C_T0, lat.C_1, lat.A1, lat.A2, _fac1(Q, lat.T0, C_T0))
    rep2 = bnd.box_bound_check(Q, lat2, Q.unit_ideal(), (0,), (5,))
    assert rep2["bound"] >= rep1["bound"]


def test_box_check_agrees_with_the_interval_check():
    """On the acceptance-07 boxes the integer check gives the interval check's
    count and precondition, accepts every box it accepts, and reports a bound
    never below its outward-rounded one."""
    lats = {}
    for F, idl, x0, c in _acceptance_07_boxes():
        lat = lats.setdefault(F, bnd.lattice_constants(F))
        rep = bnd.box_bound_check(F, lat, idl, x0, c)
        ref = oracles.box_bound_check_by_intervals(F, lat, idl, x0, c)
        assert (rep["count"], rep["precondition"]) == (ref["count"], ref["precondition"]), (F, idl, x0, c)
        assert rep["ok"] or not ref["ok"], (F, idl, x0, c)
        assert rep["bound"] >= Fraction(ref["bound"])


def test_box_check_accepts_a_count_on_the_bound():
    # fac1.lo = 9/4 and [-4, 4] holds 9 integers: the count equals fac1.lo * 4
    # exactly, where the outward-rounded interval product falls one ulp short
    lat = LAT_Q._replace(fac1=Interval(2.25, 2.5))
    rep = bnd.box_bound_check(Q, lat, Q.unit_ideal(), (0,), (4,))
    assert rep == {"count": 9, "bound": 9, "precondition": True, "ok": True}
    with pytest.raises(BoundViolated):
        oracles.box_bound_check_by_intervals(Q, lat, Q.unit_ideal(), (0,), (4,))


def test_box_check_builds_no_interval(monkeypatch):
    """The check compares integers only: no Interval is built in a call."""
    lat5 = bnd.lattice_constants(F5)
    built = []
    init = Interval.__init__
    monkeypatch.setattr(Interval, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    p3 = F5.splitting(3).primes[0].ideal
    for F, lat, idl, x0, c in (
        (Q, LAT_Q, Q.unit_ideal(), (0,), (5,)),
        (Q, LAT_Q, Q.ideal(3), (Fraction(1, 2),), (Fraction(7, 2),)),
        (F5, lat5, F5.unit_ideal(), (0, 0), (3, 3)),
        (F5, lat5, p3, (Fraction(-7, 3), 1), (Fraction(17, 8), Fraction(33, 8))),
    ):
        assert bnd.box_bound_check(F, lat, idl, x0, c)["ok"]
    assert built == []


def test_norm_count_b_rational_example():
    rep = bnd.norm_count_check_F(Q.unit_ideal(), Fraction(7), LAT_Q)
    assert rep["count"] == 7
    assert rep["rhs"] >= 7


def test_bound_params_examples():
    K5 = make_cm(Q, -5)
    bp = bnd.bound_params(K5)
    assert bp.m == Fraction(3, 2)
    assert abs(bp.V - math.sqrt(5)) < 1e-9
    assert abs(bp.U - 5 ** (1 / 3)) < 1e-9
    assert bp.R == 5 and bp.h == 2
    with pytest.raises(AssumptionViolated):
        bnd.bound_params(make_cm(Q, -1))
    bp23 = bnd.bound_params(make_cm(Q, -23))
    assert bp23.P_K == []


def test_d_lambda_limits():
    d10 = cascade.d_constants_lambda(1, 12.0)
    d50 = cascade.d_constants_lambda(1, 60.0)
    assert d50["D2"].lo > d10["D2"].lo
    assert d50["D3"].hi < d10["D3"].hi
    assert d50["D4"].hi < d10["D4"].hi
    with pytest.raises(LambdaTooSmall):
        cascade.d_constants_lambda(2, 1.0)


def test_b_constants_scaling():
    lat = LAT_Q
    Mp = Interval(2.0)
    b1 = cascade.b_constants(Q, lat, Mp)
    lat2 = bnd.LatticeConstants(lat.d0, lat.T0, lat.C_T0, lat.C_1, lat.A1, lat.A2 * Interval(2.0), lat.fac1)
    b2 = cascade.b_constants(Q, lat2, Mp)
    assert abs(_midpoint(b2["B1"]) - 2 * _midpoint(b1["B1"])) < 1e-9
    # B3 max-branch switch on synthetic M'
    small = cascade.b_constants(Q, lat, Interval(0.5))
    big = cascade.b_constants(Q, lat, Interval(100.0))
    assert _midpoint(small["B3"]) < _midpoint(big["B3"])


def test_zeta_F_2_certified():
    z = cascade.zeta_F_2_interval(Q)
    assert z.lo <= math.pi**2 / 6 <= z.hi
    z5 = cascade.zeta_F_2_interval(F5)
    part = sum(kronecker(5, n) / n**2 for n in range(1, 200001))
    ref = math.pi**2 / 6 * part
    assert z5.lo - 1e-4 <= ref <= z5.hi + 1e-4


def test_g_injected_passthrough_and_validation():
    tab = gz_table(120)
    g = cascade.g_constants(tab, "injected", {"G1": 3.5, "G2": 2.0, "G3": 1.0})
    assert (g.G1, g.G2, g.G3) == (3.5, 2.0, 1.0) and g.provenance == "injected"
    with pytest.raises(StrategyUnavailable):
        cascade.g_constants(tab, "injected", {"G1": -1, "G2": 2, "G3": 1})
    with pytest.raises(StrategyUnavailable):
        cascade.g_constants(tab, "nonsense")


def test_final_C_grid_behavior():
    tab = gz_table(120)
    tab.eps_sign = 1
    bundle = bnd.make_bundle(
        Q, tab, "injected", {"G1": 1e-6, "G2": 10.0, "G3": 100.0}, lambda_grid=[1e26, 1e27]
    )
    fc = bnd.final_C(bundle)
    assert fc["C"] > 0
    # refinement never decreases the best C
    bundle2 = bnd.make_bundle(
        Q, tab, "injected", {"G1": 1e-6, "G2": 10.0, "G3": 100.0},
        lambda_grid=[1e26, 3e26, 1e27, 3e27],
    )
    assert bnd.final_C(bundle2)["C"] >= fc["C"] * (1 - 1e-12)
    # infeasible grid reports rather than extrapolating
    bundle3 = bnd.make_bundle(Q, tab, "injected", {"G1": 1e-6, "G2": 10.0, "G3": 100.0}, lambda_grid=[1.0])
    with pytest.raises(NoFeasibleLambda):
        bnd.final_C(bundle3)


def test_E2_monotone_to_one():
    tab = gz_table(120)
    bundle = bnd.make_bundle(Q, tab, "injected", {"G1": 1e-6, "G2": 10.0, "G3": 100.0}, lambda_grid=[1e26])
    vals = [cascade.e_constants(bundle, lam)["E2"].lo for lam in (1e24, 1e26, 1e28, 1e30)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0.99999


def test_f2_uniform_exceeds_one():
    assert cascade.f2_uniform(Q).lo > 1.0


def test_final_bound_branches_and_factor():
    tab = gz_table(200)
    tab.eps_sign = 1
    bundle = bnd.make_bundle(Q, tab, "injected", {"G1": 1e-9, "G2": 10.0, "G3": 1e3}, lambda_grid=[1e31])
    K23 = make_cm(Q, -23)
    fb = bnd.final_bound(K23, bundle)
    assert fb["ok"]
    K105 = make_cm(Q, -105)
    fb2 = bnd.final_bound(K105, bundle)
    # ramified factor at 23 on a field where 23 is in P(K)
    K = make_cm(Q, -23 * 3)
    fb3 = bnd.final_bound(K, bundle)
    if "23" in fb3["ramified_factors"]:
        assert abs(fb3["ramified_factors"]["23"] - (1 - 2 * math.sqrt(23) / 24)) < 1e-12
    with pytest.raises(ParityFails):
        bnd.final_bound(make_cm(F5, F5.elem(-11)), bundle)


def test_g3_quadrature_refinement_drift():
    tab = gz_table(160)
    a = cascade._g3_quadrature(tab, 100, 0.125, panels=32)
    b = cascade._g3_quadrature(tab, 100, 0.125, panels=64)
    assert abs(a - b) / abs(b) < 1e-3


def _bound_table(F, pmax=500):
    """The twisted table `relclass bound` builds over F."""
    table = gz_table(pmax)
    if F.n == 2:
        table = base_change_table(table, F)
    return twist_table(table, QuadChar(make_cm(F, -139)))


@pytest.mark.parametrize("m", [None, 3])
def test_g3_matches_128_bit_quadrature(m):
    F = make_field(1) if m is None else make_field(2, m)
    table = _bound_table(F)
    ref = oracles.g3_quadrature(table, 300, 0.125)
    vals = []
    for prec in (53, 128):
        with mpmath.workprec(prec):
            vals.append(cascade._g3_quadrature(table, 300, 0.125))
    # double-precision Gamma: the ambient mpmath precision does not enter
    assert vals[0] == vals[1]
    assert abs(vals[0] - ref) <= 1e-12 * abs(ref)


# (G1, G2, G3) of g_constants on the tables `relclass bound --pmax 500` builds
G_PINS = {
    None: (4.1799370780810225e-08, 13.842040845907146, 111980.76742396616),
    3: (1.0699534891237908e-24, 32.5099790875493, 327052026859.33484),
}


@pytest.mark.parametrize("m, expected", [(m, G_PINS[m][2]) for m in G_PINS])
def test_g3_quadrature_is_bit_for_bit(m, expected):
    """The nodes are evaluated by the same float operations as before their
    loop invariants were hoisted: the sum over the tables `relclass bound
    --pmax 500` builds is the same double."""
    F = make_field(1) if m is None else make_field(2, m)
    assert cascade._g3_quadrature(_bound_table(F), 300, 0.125) == expected


@pytest.mark.parametrize("m, G1, G2", [(m, *G_PINS[m][:2]) for m in G_PINS])
def test_g1_g2_are_bit_for_bit(m, G1, G2):
    """G1 and G2 at prime cap 300: the partial products of L(1, sym^2) and
    its log derivative give the same doubles as their hand-written prime
    loops did."""
    F = make_field(1) if m is None else make_field(2, m)
    g = cascade.g_constants(_bound_table(F), "heuristic")
    assert (g.G1, g.G2) == (G1, G2)


@pytest.mark.parametrize("m", list(G_PINS))
def test_g_constants_ignore_the_ambient_precision(m):
    """The cascade sets the precision of its mpmath calls itself: a caller at
    53, 128 or 200 bits gets the pinned G1, G2 and G3."""
    F = make_field(1) if m is None else make_field(2, m)
    table = _bound_table(F)
    for prec in (53, 128, 200):
        with mpmath.workprec(prec):
            g = cascade.g_constants(table, "heuristic")
        assert (g.G1, g.G2, g.G3) == G_PINS[m], prec


def test_zeta_inv_prime_closed_form():
    # F = Q, level 37 * 139^2: 1/((36/37)(138/139))
    tab = gz_table(60)
    from relclass.cm import make_cm
    from relclass.hecke import QuadChar, twist_table

    tw = twist_table(tab, QuadChar(make_cm(Q, -139)))
    got = cascade.zeta_F_a_inv_prime_at_1(Q, tw.level)
    expect = 1.0 / ((36 / 37) * (138 / 139))
    assert abs(got - expect) < 1e-12


def _norm_count_fields():
    from relclass.cli import load_corpus

    root = Path(__file__).resolve().parent.parent / "corpus"
    rows = {
        "q50.txt": [(1, None, -1947), (1, None, -302), (1, None, -21)],
        "quartic80.txt": [(2, 2, -5), (2, 3, -21), (2, 5, -11)],
    }
    Ks = []
    for name, wanted in rows.items():
        for e in load_corpus(str(root / name)):
            if (e.n, e.m, e.delta_a) in wanted and e.delta_b == 0:
                K = e.cm()
                if K.unit_equal:
                    Ks.append(K)
    return Ks


@pytest.mark.parametrize("t", [Fraction(5), Fraction(7, 3), Fraction(12)])
def test_norm_count_K_matches_direct_enumeration(t):
    """The orbit count of inequality (a) against a direct short-vector scan in
    twice the unit window, off the same minimal saturated line."""
    from relclass.constructions import canonical_unit_rep
    from relclass.dseries import line_norms, on_line
    from relclass.field import unit_window
    from relclass.lattice import lll_reduce_gram, short_vectors

    Ks = _norm_count_fields()
    assert len(Ks) >= 4
    for K in Ks:
        lat = bnd.lattice_constants(K.F)
        for Ni in K.class_data().N_reps:
            tprime = t * Ni.norm()
            mink = (2 / math.pi) ** K.F.n * math.sqrt(K.abs_disc) + 2
            exclude = line_norms(K, Ni, max(t, Fraction(mink)))[1]
            basis = Ni.basis_kelems()
            seen = set()
            for v in short_vectors(lll_reduce_gram(Ni.gram()), 2 * unit_window(K, tprime)):
                z = basis[0].scale(v[0])
                for c, b in zip(v[1:], basis[1:]):
                    z = z + b.scale(c)
                if z.abs_norm() > tprime or (exclude is not None and on_line(z, exclude)):
                    continue
                seen.add(tuple(canonical_unit_rep(K, z).coords()))
            assert bnd.norm_count_check_K(K, Ni, t, lat)["count"] == len(seen)


@pytest.mark.parametrize("m", [None, 2, 3, 5, 13])
def test_norm_count_F_matches_direct_enumeration(m):
    """The orbit count of inequality (b), read through norm_count_check_F,
    against a direct short-vector scan in twice the window t' (eps + 1/eps)
    (t'^2 over Q), with orbits told apart by the FElem unit-orbit walk of
    the oracles, on integral ideals and their halves."""
    from relclass.lattice import lll_reduce_gram, short_vectors

    F = make_field(1) if m is None else make_field(2, m)
    lat = bnd.lattice_constants(F)
    eps = F.eps.embed(0)
    S = Fraction(math.ceil((eps + 1 / eps) * 1000), 1000) if F.n == 2 else 1
    ideals = [F.unit_ideal()] + [pr.ideal for p in (2, 3, 7) for pr in F.splitting(p).primes]
    for idl in ideals + [idl.scale(Fraction(1, 2)) for idl in ideals]:
        basis = idl.basis_elems()
        gram = idl.gram()
        for t in (Fraction(1), Fraction(7, 3), Fraction(12), Fraction(29, 2)):
            tprime = t * idl.norm()
            window = 2 * tprime ** (2 // F.n) * S
            seen = set()
            for v in short_vectors(lll_reduce_gram(gram), window):
                x = sum((b * c for b, c in zip(basis, v)), F.zero())
                if not x.is_zero() and abs(x.norm()) <= tprime:
                    seen.add(oracles.canonical_unit_rep_F(F, x).coords())
            assert bnd.norm_count_check_F(idl, t, lat)["count"] == len(seen), (F, idl, t)
