import pytest
from oracles import eigenvalue_local, hecke_extend

from relclass.cm import make_cm
from relclass.errors import LevelNotSquarefree, OutOfTableRange
from relclass.field import make_field
from relclass.hecke import (
    QuadChar,
    ap_curve,
    base_change_table,
    check_root_bounds,
    d_factor,
    dirichlet_coeffs,
    epsilon_factor,
    epsilon_numeric,
    euler_factors,
    gz_table,
    phi_reduced,
    poly_mul,
    psi_factor,
    symsq_L1,
    twist_table,
)

Q = make_field(1)
TBL = gz_table(600)
TBL.eps_sign = 1


def test_ap_values():
    assert ap_curve(37) == 1
    assert ap_curve(2) == 0
    assert ap_curve(3) == 1
    for p in (2, 3, 5, 7, 11, 13, 101, 499):
        if p == 37:
            continue
        ap = ap_curve(p)
        assert ap * ap <= 4 * p


def test_table_discrepancy_flag_absent():
    assert TBL.discrepancy is None


def test_derived_tables_declare_no_discrepancy():
    # the flag is a declared field: a twist or a base change reads None
    assert twist_table(TBL, QuadChar(make_cm(Q, -139))).discrepancy is None
    assert base_change_table(TBL, make_field(2, 5)).discrepancy is None


def test_out_of_range():
    with pytest.raises(OutOfTableRange):
        TBL.lam(Q.splitting(1009).primes[0])


@pytest.mark.parametrize("m", [None, 3, 5])
@pytest.mark.parametrize("twisted", [False, True])
def test_local_is_the_hand_written_prime_loop(m, twisted):
    """On the tables `relclass bound` builds at the prime cap 300."""
    F = Q if m is None else make_field(2, m)
    table = gz_table(300) if m is None else base_change_table(gz_table(300), F)
    if twisted:
        table = twist_table(table, QuadChar(make_cm(F, F.elem(-139))))
    for P in (2, 37, 139, 150, 299, 300):
        assert table.local(P) == eigenvalue_local(table, P), P
    with pytest.raises(OutOfTableRange):
        table.local(301)


def test_twist_involution():
    chi = QuadChar(make_cm(Q, -5))
    t1 = twist_table(TBL, chi)
    t2 = twist_table(t1, chi)
    for p in (3, 7, 11, 13, 17):
        pr = Q.splitting(p).primes[0]
        assert t2.lam(pr) == TBL.lam(pr)


def test_twist_level_and_zeros():
    chi = QuadChar(make_cm(Q, -139))
    tw = twist_table(TBL, chi)
    assert int(tw.level.norm()) == 37 * 139**2
    assert tw.lam(Q.splitting(139).primes[0]) == 0
    p3 = Q.splitting(3).primes[0]
    assert tw.lam(p3) == chi.star(p3) * TBL.lam(p3)


def test_epsilon_needs_squarefree_level():
    chi5 = QuadChar(make_cm(Q, -5))
    tw = twist_table(TBL, QuadChar(make_cm(Q, -139)))
    with pytest.raises(LevelNotSquarefree):
        epsilon_factor(tw, chi5, eps_f=1)
    # twisting itself tolerates the non-squarefree level (upper-bound level)
    t2 = twist_table(tw, chi5)
    assert int(t2.level.norm()) % 37 == 0


def test_base_change_identities():
    F5 = make_field(2, 5)
    bc = base_change_table(TBL, F5)
    # split primes get equal values on both primes
    for p in (11, 19, 29):
        prs = F5.splitting(p).primes
        if len(prs) == 2:
            assert bc.lam(prs[0]) == bc.lam(prs[1]) == TBL.lam(Q.splitting(p).primes[0])
    # inert: a_p^2 - 2p
    for p in (2, 3, 7, 13):
        prs = F5.splitting(p).primes
        if prs[0].f == 2:
            ap = TBL.lam(Q.splitting(p).primes[0])
            assert bc.lam(prs[0]) == ap * ap - 2 * p
    # at the level prime
    p37 = F5.splitting(37).primes[0]
    assert bc.lam(p37) == 1
    assert int(bc.level.norm()) == 37**p37.f


def test_base_change_degree4_product():
    # product of local D-factors above split p equals the degree-4 data
    F5 = make_field(2, 5)
    bc = base_change_table(TBL, F5)
    for p in (11, 19):
        prs = F5.splitting(p).primes
        fac = poly_mul(d_factor(bc, prs[0]).den, d_factor(bc, prs[1]).den)
        ap = TBL.lam(Q.splitting(p).primes[0])
        expect = poly_mul((1, -ap, p), (1, -ap, p))
        assert fac == expect


def test_hecke_extend_multiplicative():
    assert hecke_extend(TBL, Q.unit_ideal()) == 1
    p2 = Q.splitting(2).primes[0]
    a2 = TBL.lam(p2)
    assert hecke_extend(TBL, Q.ideal(4)) == a2 * a2 - 2
    a3 = TBL.lam(Q.splitting(3).primes[0])
    assert hecke_extend(TBL, Q.ideal(6)) == a2 * a3
    # coefficientwise match with the expansion
    cs = dirichlet_coeffs(TBL, 60)
    for n in range(1, 61):
        assert cs[n - 1] == hecke_extend(TBL, Q.ideal(n)), n


def test_epsilon_numeric():
    eps, ratio = epsilon_numeric(TBL)
    assert eps == 1 and ratio < 1e-6


def test_epsilon_formula_consistent_across_factorizations():
    # conductor sharing part of the level: a2 nontrivial
    chi37 = QuadChar(make_cm(Q, -37))
    eps1 = epsilon_factor(TBL, chi37, eps_f=1)
    # manual product: chi_f(-1) * chi*(a1) * (-lam(37))
    a37 = TBL.lam(Q.splitting(37).primes[0])
    assert eps1 == (-1) * 1 * (-a37) * 1
    chi5 = QuadChar(make_cm(Q, -5))
    epsA = epsilon_factor(TBL, chi5, eps_f=1)
    assert epsA == chi5.chi_f_minus_one() * chi5.star(Q.splitting(37).primes[0]) * 1


def test_symsq_positive_and_drift():
    full = symsq_L1(TBL, 500)
    assert full > 0
    # the primes over (50, 500] move the partial product by under a fifth
    assert abs(full - symsq_L1(TBL, 50)) / full < 0.2


@pytest.mark.parametrize("m", [None, 2, 3, 5, 13])
def test_phi_reduced_times_psi_is_d_times_d_chi(m):
    """The explicit Phi_p satisfies Phi_p Psi_p = D_p(f) D_p(f chi) at every
    prime of the base field over p <= 200, for characters whose conductor
    meets the level (-37) or not; at a prime of the conductor off the level
    the twisted form has level there, so D_p(f chi) = 1."""
    F = Q if m is None else make_field(2, m)
    table = gz_table(200) if m is None else base_change_table(gz_table(200), F)
    for d in (-1, -3, -7, -37, -139):
        chi = QuadChar(make_cm(F, F.elem(d)))
        tw = twist_table(table, chi)
        for pr, q, _, _ in table.local(200):
            D, Dx = d_factor(table, pr), d_factor(tw, pr)
            phi, psi = phi_reduced(table, chi, pr, tw), psi_factor(table, chi, pr, tw)
            lhs = poly_mul(poly_mul(phi.num, psi.num), poly_mul(D.den, Dx.den))
            rhs = poly_mul(poly_mul(D.num, Dx.num), poly_mul(phi.den, psi.den))
            assert lhs == rhs, (m, d, pr)
            assert check_root_bounds(phi, q), (m, d, pr)


def test_root_bounds_all_factors():
    chi = QuadChar(make_cm(Q, -5))
    for p in (2, 3, 5, 7, 11, 37):
        pr = Q.splitting(p).primes[0]
        euler_factors(TBL, chi, pr)  # asserts the root bounds internally


def test_epsilon_multiplicative_consistency():
    # the formula's a1/a2 split is intrinsic: moving a level prime in or out
    # of the conductor changes the factor from chi*(p) to -lambda(p)
    a37 = TBL.lam(Q.splitting(37).primes[0])
    for d_coprime, d_sharing in ((-5, -37), (-139, -185)):
        chi_c = QuadChar(make_cm(Q, d_coprime))
        chi_s = QuadChar(make_cm(Q, d_sharing))
        eps_c = epsilon_factor(TBL, chi_c, eps_f=1)
        eps_s = epsilon_factor(TBL, chi_s, eps_f=1)
        assert eps_c == chi_c.chi_f_minus_one() * chi_c.star(Q.splitting(37).primes[0])
        assert eps_s == chi_s.chi_f_minus_one() * (-a37)
