import math
from fractions import Fraction
from pathlib import Path

import pytest

from relclass import bounds as bnd
from relclass.cm import make_cm
from relclass.errors import (
    AssumptionViolated,
    LambdaTooSmall,
    NoFeasibleLambda,
    ParityFails,
    StrategyUnavailable,
)
from relclass.field import kronecker, make_field
from relclass.hecke import QuadChar, gz_table, twist_table
from relclass.numerics import Interval

Q = make_field(1)
F5 = make_field(2, 5)
LAT_Q = bnd.lattice_constants(Q)


def test_rational_lattice_constants():
    assert LAT_Q.d0.hi == 0.0
    assert abs(LAT_Q.T0.midpoint() - math.sqrt(math.pi) / 2) < 1e-12
    assert LAT_Q.C_T0.hi == 1.0
    assert abs(LAT_Q.A2.midpoint() - 4.0) < 1e-9  # (2 + 2*C_1)


def test_quadratic_lattice_constants_cover_reevaluation():
    lat = bnd.lattice_constants(F5)
    # d0 = sqrt(2) * log eps with eps the golden ratio
    import mpmath

    with mpmath.workprec(200):
        d0_hp = float(mpmath.sqrt(2) * mpmath.log((1 + mpmath.sqrt(5)) / 2))
    assert lat.d0.contains(d0_hp)
    t0_hp = math.pi / (4 * math.sqrt(5)) * math.exp(math.sqrt(2) * d0_hp / 2)
    assert lat.T0.lo <= t0_hp <= lat.T0.hi


def test_box_precondition_compares_against_exact_T0():
    # the best rational approximation with denominator <= 10^12 lies below T0.hi
    c0 = Fraction(LAT_Q.T0.hi).limit_denominator(10**12)
    assert c0 < Fraction(LAT_Q.T0.hi)
    rep = bnd.box_bound_check(Q, LAT_Q, Q.unit_ideal(), (0,), (c0,))
    assert rep["precondition"] is False


def test_count_box_examples():
    assert bnd.count_box(Q, Q.unit_ideal(), (0,), (5,)) == 11
    assert bnd.count_box(Q, Q.ideal(3), (0,), (5,)) == 3
    c = bnd.count_box(F5, F5.unit_ideal(), (0, 0), (3, 3))
    assert c >= 7


def test_box_bound_monotone_in_slack():
    lat = LAT_Q
    rep1 = bnd.box_bound_check(Q, lat, Q.unit_ideal(), (0,), (5,))
    lat2 = bnd.LatticeConstants(
        lat.d0, lat.T0, lat.C_T0 * Interval(2.0), lat.C_1, lat.A1, lat.A2
    )
    rep2 = bnd.box_bound_check(Q, lat2, Q.unit_ideal(), (0,), (5,))
    assert rep2["bound"] >= rep1["bound"]


def test_norm_count_b_rational_example():
    rep = bnd.norm_count_check_F(Q, Q.unit_ideal(), Fraction(7), LAT_Q)
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


def test_d_lambda_limits_and_domination():
    d10 = bnd.d_constants_lambda(1, 12.0)
    d50 = bnd.d_constants_lambda(1, 60.0)
    assert d50["D2"].lo > d10["D2"].lo
    assert d50["D3"].hi < d10["D3"].hi
    assert d50["D4"].hi < d10["D4"].hi
    with pytest.raises(LambdaTooSmall):
        bnd.d_constants_lambda(2, 1.0)
    # domination on a corpus field with |disc| >= e^(lambda h_K)
    K5 = make_cm(Q, -5)
    bp = bnd.bound_params(K5)
    lam = math.log(K5.rel_disc_norm) / bp.h_K * 0.99
    dk = bnd.d_constants_K(bp)
    dl = bnd.d_constants_lambda(1, lam)
    assert dk["D1"].hi <= dl["D1"].hi * (1 + 1e-9)
    assert dk["D2"].lo >= dl["D2"].lo * (1 - 1e-9)
    assert dk["D4"].hi <= dl["D4"].hi * (1 + 1e-9)
    assert dk["D3"].hi <= (dl["D3"] * Interval(math.log(bp.U))).hi * (1 + 1e-9)


def test_b_constants_scaling():
    lat = LAT_Q
    Mp = Interval(2.0)
    b1 = bnd.b_constants(Q, lat, Mp)
    lat2 = bnd.LatticeConstants(lat.d0, lat.T0, lat.C_T0, lat.C_1, lat.A1, lat.A2 * Interval(2.0))
    b2 = bnd.b_constants(Q, lat2, Mp)
    assert abs(b2["B1"].midpoint() - 2 * b1["B1"].midpoint()) < 1e-9
    # B3 max-branch switch on synthetic M'
    small = bnd.b_constants(Q, lat, Interval(0.5))
    big = bnd.b_constants(Q, lat, Interval(100.0))
    assert small["B3"].midpoint() < big["B3"].midpoint()


def test_zeta_F_2_certified():
    z = bnd.zeta_F_2_interval(Q)
    assert z.contains(math.pi**2 / 6)
    z5 = bnd.zeta_F_2_interval(F5)
    part = sum(kronecker(5, n) / n**2 for n in range(1, 200001))
    ref = math.pi**2 / 6 * part
    assert z5.lo - 1e-4 <= ref <= z5.hi + 1e-4


def test_g_injected_passthrough_and_validation():
    tab = gz_table(120)
    g = bnd.g_constants(tab, "injected", {"G1": 3.5, "G2": 2.0, "G3": 1.0})
    assert (g.G1, g.G2, g.G3) == (3.5, 2.0, 1.0) and g.provenance == "injected"
    with pytest.raises(StrategyUnavailable):
        bnd.g_constants(tab, "injected", {"G1": -1, "G2": 2, "G3": 1})
    with pytest.raises(StrategyUnavailable):
        bnd.g_constants(tab, "nonsense")


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
    vals = [bnd.e_constants(bundle, lam)["E2"].lo for lam in (1e24, 1e26, 1e28, 1e30)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0.99999


def test_f2_uniform_vs_per_K():
    f2 = bnd.f2_uniform(Q)
    assert f2.lo > 1.0
    K5 = make_cm(Q, -5)
    bp = bnd.bound_params(K5)
    per = bnd.f2_per_K(bp)
    assert per <= f2.hi


def test_parity_and_splitting_37():
    assert bnd.parity_applicable(Q)
    s, e, f = bnd.splitting_37(Q)
    assert (s, e, f) == (1, 1, 1)
    F3 = make_field(2, 3)
    assert bnd.parity_applicable(F3)  # 37 splits: s = 2 even
    assert not bnd.parity_applicable(F5)  # 37 inert: s = 1, n = 2
    assert not bnd.parity_applicable(make_field(2, 2))


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
    a = bnd._g3_quadrature(tab, 100, 0.125, panels=32)
    b = bnd._g3_quadrature(tab, 100, 0.125, panels=64)
    assert abs(a - b) / abs(b) < 1e-3


def test_zeta_inv_prime_closed_form():
    # F = Q, level 37 * 139^2: 1/((36/37)(138/139))
    tab = gz_table(60)
    from relclass.cm import make_cm
    from relclass.hecke import QuadChar, twist_table

    tw = twist_table(tab, QuadChar(make_cm(Q, -139)))
    got = bnd.zeta_F_a_inv_prime_at_1(Q, tw.level)
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
    from relclass.cm import canonical_unit_rep, line_norms, on_line, unit_window
    from relclass.lattice import lll_reduce_gram, short_vectors

    Ks = _norm_count_fields()
    assert len(Ks) >= 4
    for K in Ks:
        lat = bnd.lattice_constants(K.F)
        for Ni in K.class_data().N_reps:
            tprime = t * Ni.abs_norm()
            mink = (2 / math.pi) ** K.F.n * math.sqrt(K.abs_disc) + 2
            exclude = next((z for _, sat, z in line_norms(K, Ni, max(t, Fraction(mink))) if sat), None)
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
