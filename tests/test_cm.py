import math
import pytest
from itertools import combinations, combinations_with_replacement
from fractions import Fraction
from pathlib import Path

import oracles
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import class_number_oracle, conj_orbits_oracle, relation_class_number

from relclass.cli import load_corpus
from relclass import bounds, cm, dseries, forms, imagquad
from relclass.cm import (
    KIdeal,
    class_counts,
    line_colon_ideal,
    make_cm,
)
from relclass.constructions import decompose_ideal
from relclass.dseries import line_norms
from relclass.errors import NotIntegral, NotTotallyNegative, RelclassError
from relclass.field import LatticeIdeal, kronecker, make_field, primes_up_to, unit_window
from relclass.lattice import lll_reduce_gram, short_vectors
from relclass.imagquad import class_group_counts

Q = make_field(1)
F2 = make_field(2, 2)
F5 = make_field(2, 5)


def test_make_cm_validation():
    with pytest.raises(NotTotallyNegative):
        make_cm(Q, 5)
    with pytest.raises(NotIntegral):
        make_cm(Q, Q.elem(Fraction(-1, 2)))
    with pytest.raises(NotTotallyNegative):
        make_cm(F2, F2.elem(0, 1))  # sqrt 2 has mixed signs


@pytest.mark.parametrize("delta,disc", [(-1, 4), (-3, 3), (-5, 20), (-23, 23), (-12, 3)])
def test_relative_discriminants_over_Q(delta, disc):
    K = make_cm(Q, delta)
    assert K.rel_disc_norm == disc


def test_disc_valuation_bounds():
    # odd ramified primes enter once; primes over 2 at most 2e+1 times
    for delta in (-1, -2, -5, -6, -30, -210, -4, -8):
        K = make_cm(Q, delta)
        for pr, v in K.rel_disc_primes:
            if pr.p == 2:
                assert v <= 2 * pr.e + 1
            else:
                assert v == 1
    F = F2
    for d in (-1, -3, -5, -6, -7):
        K = make_cm(F, F.elem(d))
        for pr, v in K.rel_disc_primes:
            if pr.p == 2:
                assert v <= 2 * pr.e + 1
            else:
                assert v == 1


def test_abs_disc_identity():
    for m, d in ((2, -5), (5, -7), (13, -11)):
        F = make_field(2, m)
        K = make_cm(F, F.elem(d))
        assert K.abs_disc == F.d_F**2 * K.rel_disc_norm


def _exceptional_extensions(F):
    """The K/F with o_K^x != o_F^x, one per isomorphism class: F(sqrt v)
    for the radicands that CMField.unit_equal tests against."""
    return [make_cm(F, v) for v in cm._exceptional_radicands(F)]


def test_exceptional_extensions_over_Q():
    exc = _exceptional_extensions(Q)
    discs = sorted(k.rel_disc_norm for k in exc)
    assert discs == [3, 4]
    assert not any(k.unit_equal for k in exc)
    assert make_cm(Q, -5).unit_equal
    assert not make_cm(Q, -1).unit_equal
    assert not make_cm(Q, -3).unit_equal
    assert not make_cm(Q, -12).unit_equal  # same field as sqrt(-3)


def test_exceptional_extensions_dedup_sqrt3():
    F3 = make_field(2, 3)
    exc = _exceptional_extensions(F3)
    # F(i) = F(sqrt -3) over Q(sqrt 3); -eps is a third one
    assert len(exc) == 2


@pytest.mark.parametrize(
    "delta,h,orbits",
    [(-1, 1, 1), (-5, 2, 2), (-23, 3, 2), (-47, 5, 3), (-105, 8, 8), (-89, 12, 7)],
)
def test_class_groups_over_Q(delta, h, orbits):
    K = make_cm(Q, delta)
    cd = K.class_data()  # the closure, against the imagquad path of class_counts
    assert (cd.h_K, cd.h, cd.orbits) == (h, h, orbits)
    assert class_counts(K) == (h, h, orbits)
    D = -K.rel_disc_norm
    assert class_number_oracle(D) == h
    assert conj_orbits_oracle(D) == orbits


def _kuroda_holds(K, h_K) -> bool:
    """Kuroda's class number formula for K = Q(sqrt m, sqrt d), d < 0:
    2 h_K = Q h(m) h(d) h(md) with unit index Q in {1, 2}."""
    d = int(K.delta.a)
    h = [class_counts(make_cm(Q, e)).h_K for e in (d, K.F.m * d)]
    prod = K.F.h_F * h[0] * h[1]
    return 2 * h_K in (prod, 2 * prod)


@pytest.mark.parametrize(
    "d,counts,n_reps",
    [(-7, (4, 2, 3), 2), (-11, (12, 6, 7), 6), (-13, (8, 4, 8), 4)],
)
def test_class_data_over_Q_sqrt10(d, counts, n_reps):
    F = make_field(2, 10)
    assert F.h_F == 2  # Cl(F) is not trivial
    K = make_cm(F, F.elem(d))
    cd = K.class_data()
    assert (cd.h_K, cd.h, cd.orbits) == counts
    assert len(cd.N_reps) == n_reps
    assert all(cd.conj_pairs[j] == i for i, j in enumerate(cd.conj_pairs))
    assert cd.N_reps[0] is K.maximal_order()
    assert class_counts(K) == counts
    assert _class_data_keys(cd) == _class_data_keys(oracles.class_data_by_full_sweep(make_cm(F, F.elem(d))))


# K = Q(sqrt m)(sqrt d) with h_F = 2 or 4, and (h_K, h, orbits)
BASE_CLASS_FIELDS = [
    (10, -3, (4, 2, 4)), (10, -7, (4, 2, 3)), (10, -11, (12, 6, 7)), (10, -13, (8, 4, 8)),
    (10, -6, (4, 2, 4)), (15, -7, (8, 4, 6)), (26, -7, (12, 6, 7)), (82, -1, (8, 4, 6)),
    (82, -6, (8, 2, 8)),
]


def _class_data_keys(cd):
    return [r.key() for r in cd.reps], cd.conj_pairs, [r.key() for r in cd.N_reps]


def _check_class_data(K, cd):
    """conj_pairs is an involution that the conjugate classes follow, the
    representatives are pairwise inequivalent, and N_reps opens with o_K."""
    assert all(cd.conj_pairs[j] == i for i, j in enumerate(cd.conj_pairs))
    assert all(r.conj().in_same_class(cd.reps[cd.conj_pairs[i]]) for i, r in enumerate(cd.reps))
    assert not any(a.in_same_class(b) for a, b in combinations(cd.reps, 2))
    assert cd.N_reps[0] is K.maximal_order()


@pytest.mark.parametrize("m,d,counts", BASE_CLASS_FIELDS)
def test_closure_matches_partition_over_nontrivial_base_class_groups(m, d, counts):
    """The discrete-log closure, with Cl(F) of order 2 or 4, against the
    pairwise partition of the ideals below the Minkowski bound, and against
    the closure over every generator: Kuroda's formula stops the closure
    where delta is rational and there are no extra units, so it is no
    independent check there.  Where it applies, the certified count is the
    sweep's h_K."""
    F = make_field(2, m)
    assert F.h_F in (2, 4)
    K = make_cm(F, F.elem(d))
    cd = K.class_data()
    want = oracles.class_data_by_partition(make_cm(F, F.elem(d)))
    assert (cd.h_K, cd.h, cd.orbits) == (want.h_K, want.h, want.orbits) == counts
    assert len(cd.N_reps) == len(want.N_reps) == counts[1]
    _check_class_data(K, cd)
    sweep = oracles.class_data_by_full_sweep(make_cm(F, F.elem(d)))
    assert _class_data_keys(cd) == _class_data_keys(sweep)
    assert cm._certified_h_K(K) == (sweep.h_K if K.unit_equal else None)


def test_closure_over_a_base_class_group_of_order_3():
    """Q(sqrt 79)(sqrt -1), h_F = 3: the counts are pinned, since
    oracles.class_data_by_partition takes about 17 s to confirm them."""
    F = make_field(2, 79)
    assert F.h_F == 3
    K = make_cm(F, F.elem(-1))
    cd = K.class_data()
    assert (cd.h_K, cd.h, cd.orbits) == (15, 5, 9)
    assert len(cd.N_reps) == 5
    _check_class_data(K, cd)
    assert _kuroda_holds(K, cd.h_K)  # no certified count over F(sqrt -1): not circular
    assert cm._certified_h_K(K) is None
    assert _class_data_keys(cd) == _class_data_keys(oracles.class_data_by_full_sweep(make_cm(F, F.elem(-1))))


@pytest.mark.parametrize("corpus", ["q50", "quartic80"])
def test_stopped_closure_matches_the_full_sweep(corpus):
    """The closure stops at the certified h_K on every q50 field and on the
    61 quartic80 fields with rational delta, and builds its generators as it
    reaches them; its representatives, conjugation pairs and N_reps are
    those of the closure over every generator below the Minkowski bound.
    Where a certified count exists it is the sweep's h_K; the rows with
    irrational delta have none."""
    certified = 0
    for entry in load_corpus(str(CORPORA / f"{corpus}.txt")):
        K, fresh = entry.cm(), entry.cm()
        sweep = oracles.class_data_by_full_sweep(fresh)
        h_K = cm._certified_h_K(fresh)
        assert h_K in (None, sweep.h_K), entry
        assert (h_K is None) == (K.F.n == 2 and K.delta.nb != 0), entry
        certified += h_K is not None
        assert _class_data_keys(K.class_data()) == _class_data_keys(sweep), entry
    assert certified == {"q50": 49, "quartic80": 61}[corpus]


def test_certified_count_needs_rational_delta_and_no_extra_units():
    """Kuroda's formula counts K = Q(sqrt m, sqrt delta) only: there is no
    certified count when delta is not rational, or when K has extra units,
    as F(sqrt -1) has."""
    assert cm._certified_h_K(make_cm(F2, F2.elem(-3, 1))) is None
    assert cm._certified_h_K(make_cm(F5, F5.elem(-1))) is None
    assert cm._certified_h_K(make_cm(F2, F2.elem(-21))) == 8


def test_closure_builds_only_the_generators_it_uses(monkeypatch):
    """Over Q(sqrt 2)(sqrt -21) the closure stops at h_K = 8 before it
    reaches most base primes below the Minkowski bound, and builds the
    primes above a base prime only when it takes their generator."""
    K = make_cm(F2, F2.elem(-21))
    bound = K.minkowski_bound()
    below = F2.primes_of_norm_up_to(bound)
    built = []
    primes_above = cm.CMField.primes_above
    monkeypatch.setattr(cm.CMField, "primes_above", lambda self, pr: built.append(pr) or primes_above(self, pr))
    assert K.class_data().h_K == 8
    assert 0 < len(built) < len(below)


@pytest.mark.parametrize("d", [-7, -11])
def test_small_class_rep_keeps_the_class(d):
    """Over Q(sqrt 10), h_F = 2, the small representative of every product
    of two primes of norm <= 30 lies in the product's class."""
    F = make_field(2, 10)
    K = make_cm(F, F.elem(d))
    kps = oracles.kprimes_up_to(K, 30)
    products = [a.ideal * b.ideal for a, b in combinations_with_replacement(kps, 2)]
    assert len(products) == {-7: 15, -11: 28}[d]
    for q in products:
        assert q.small_class_rep().in_same_class(q)


def test_class_counts_computed_once_per_field(monkeypatch):
    """Over Q the reduced-form enumeration runs once per K, however many
    readers ask for the counts."""
    calls = []
    monkeypatch.setattr(imagquad, "class_group_counts", lambda D: calls.append(D) or class_group_counts(D))
    K = make_cm(Q, -23)
    assert class_counts(K) == class_counts(K) == (3, 3, 2)
    assert calls == [-23]


def test_count_readers_build_no_class_data_over_Q():
    lat = bounds.lattice_constants(Q)
    for entry in load_corpus(str(Path(__file__).resolve().parent.parent / "corpus" / "q50.txt")):
        K = entry.cm()
        forms.lower_bound_t(K)
        dseries.vsum_check(K)
        dseries.measure_mu_K_bound(K, lat.A1.hi)
        try:
            bounds.bound_params(K)
        except RelclassError:
            pass  # the lemma's scan checks may fail after the counts are read
        assert K._class_data is None, entry.label()


def test_conjugation_closes_on_classes():
    K = make_cm(Q, -47)
    cd = K.class_data()
    for i, j in enumerate(cd.conj_pairs):
        assert cd.conj_pairs[j] == i
    assert cd.N_reps[0] is K.maximal_order()  # the ideal verify's normcounts check uses


@pytest.mark.parametrize(
    "m,d,expected_h",
    [
        # biquadratic cases verified against h = (1/2) h1 h2 h3
        (2, -13, 6),
        (2, -17, 8),
        (3, -13, 4),
        (5, -13, 8),
        (13, -5, 8),
        (13, -17, 32),
    ],
)
def test_quartic_class_numbers_biquadratic(m, d, expected_h):
    F = make_field(2, m)
    K = make_cm(F, F.elem(d))
    hK, h, _ = class_counts(K)
    assert hK == expected_h
    assert h == hK  # Cl(F) is trivial


def test_quartic_vs_relation_oracle():
    for (m, d) in ((2, -5), (2, -7), (5, -11), (13, -11)):
        F = make_field(2, m)
        K = make_cm(F, F.elem(d))
        hK, _, orbits = class_counts(K)
        oh, oorb = relation_class_number(K)
        assert (oh, oorb) == (hK, orbits)


def test_nonrational_delta():
    F = F5
    delta = F.elem(-4, 1)  # (-7 + sqrt 5)/2
    assert delta.is_totally_negative()
    K = make_cm(F, delta)
    hK, _, orbits = class_counts(K)
    assert hK >= 1
    oh, oorb = relation_class_number(K)
    assert (oh, oorb) == (hK, orbits)


def test_rel_norm_multiplicative():
    K = make_cm(Q, -5)
    kps = oracles.kprimes_up_to(K, 15)
    for a in kps[:4]:
        for b in kps[:4]:
            prod = a.ideal * b.ideal
            assert prod.rel_norm() == a.ideal.rel_norm() * b.ideal.rel_norm()
            assert prod.norm() == a.ideal.norm() * b.ideal.norm()


def test_conj_is_involution_and_norm_preserving():
    F = F2
    K = make_cm(F, F.elem(-5))
    for kp in oracles.kprimes_up_to(K, 20):
        c = kp.ideal.conj()
        assert c.conj() == kp.ideal
        assert c.norm() == kp.ideal.norm()


def test_splitting_kinds_match_disc():
    K = make_cm(Q, -23)
    two = Q.splitting(2).primes[0]
    assert K.splitting_kind(two) == "split"  # -23 = 1 mod 8
    p23 = Q.splitting(23).primes[0]
    assert K.splitting_kind(p23) == "ramified"
    p5 = Q.splitting(5).primes[0]
    assert K.splitting_kind(p5) == "inert"
    # the Kronecker symbol of D = -N(d_K/F) decides the splitting over Q
    kinds = {1: "split", -1: "inert", 0: "ramified"}
    for entry in load_corpus(str(Path(__file__).resolve().parent.parent / "corpus" / "q50.txt")):
        K = entry.cm()
        for p in primes_up_to(199):
            pr = Q.splitting(p).primes[0]
            assert kinds[kronecker(-K.rel_disc_norm, p)] == K.splitting_kind(pr), (entry.label(), p)


@pytest.mark.parametrize("corpus", ["q50", "quartic80"])
def test_splitting_kind_matches_primes_above(corpus):
    # the kind read without building primes agrees with the primes of K
    # built above each base prime of norm below 200, the dyadic ones included
    root = Path(__file__).resolve().parent.parent
    for entry in load_corpus(str(root / "corpus" / f"{corpus}.txt")):
        K = entry.cm()
        for p in primes_up_to(199):
            for pr in K.F.splitting(p).primes:
                if pr.norm() >= 200:
                    continue
                ks = K.primes_above(pr)
                built = "split" if len(ks) == 2 else ("ramified" if ks[0].ramified else "inert")
                assert K.splitting_kind(pr) == built, (entry.label(), pr)


def _stratified_rows(corpus: str):
    """Every fourth row of each base field's rows of the corpus, ordered by
    the norm of the relative discriminant."""
    root = Path(__file__).resolve().parent.parent
    by_field = {}
    for entry in load_corpus(str(root / "corpus" / f"{corpus}.txt")):
        K = entry.cm()
        by_field.setdefault(K.F.m, []).append(K)
    for Ks in by_field.values():
        yield from sorted(Ks, key=lambda K: (K.rel_disc_norm, str(K.delta)))[::4]


@pytest.mark.parametrize("corpus", ["q50", "quartic80"])
def test_splitting_and_primes_above_match_the_residue_field(corpus):
    """The kind from the relative discriminant and one quadratic character
    agrees with the residue-field roots at every prime over p <= 500, and the
    primes above from sqrt_mod_p or the residue scan are the residue-field
    ones, in the same order with the same ideals and two-element generators,
    up to norm 200."""
    for K in _stratified_rows(corpus):
        for p in primes_up_to(500):
            for pr in K.F.splitting(p).primes:
                kind = oracles.local_quadratic(K, pr)[3]
                assert K.splitting_kind(pr) == kind, (K, pr)
                if pr.norm() > 200:
                    continue
                got, want = K.primes_above(pr), oracles.primes_above_by_residue_field(K, pr)
                data = lambda kps: [(kp.rel_f, kp.ramified, kp.ideal.key(), kp.ideal._gens) for kp in kps]
                assert data(got) == data(want), (K, pr)


def test_decompose_and_recompose_over_Q():
    K = make_cm(Q, -5)
    for idl in oracles.integral_ideals_up_to(K, 12.0):
        i, a, alpha = decompose_ideal(K, idl)
        # reconstruction is verified inside; check the shape data
        assert a.is_integral()
    # spec examples: M = (2, 1+sqrt-5) has a = (1); 3*M has a = (3)
    p2 = oracles.kprimes_up_to(K, 3)[0]
    i1, a1, alpha1 = decompose_ideal(K, p2.ideal)
    assert a1.norm() == 1
    m3 = p2.ideal * K.elem(3)
    i2, a2, alpha2 = decompose_ideal(K, m3)
    assert a2.norm() == 3 and i2 == i1
    assert alpha2 == alpha1  # same line, same canonical generator


def test_decompose_random_roundtrip_quartic():
    F = F2
    K = make_cm(F, F.elem(-5))
    count = 0
    for idl in oracles.integral_ideals_up_to(K, 16.0):
        decompose_ideal(K, idl)
        count += 1
    assert count >= 5


def test_line_norms_contains_min():
    K = make_cm(Q, -5)
    cd = K.class_data()
    for Ni in cd.N_reps:
        lines, exclude = line_norms(K, Ni, Fraction(10))
        assert lines, "some line must exist below the bound"
        # the minimal saturated line is one of the lines, and every line
        # before it is not saturated
        alphas = [z for _, z in lines]
        assert exclude in alphas
        for z in alphas[: alphas.index(exclude) + 1]:
            assert (line_colon_ideal(K, z, Ni) == K.F.unit_ideal()) == (z == exclude)


def test_decompose_random_products():
    import random

    rng = random.Random(5)
    for delta in (-5, -23):
        K = make_cm(Q, delta)
        kps = oracles.kprimes_up_to(K, 20)
        count = 0
        while count < 200:
            idl = K.maximal_order()
            for _ in range(rng.randrange(1, 4)):
                idl = idl * kps[rng.randrange(len(kps))].ideal
            decompose_ideal(K, idl)  # exact reconstruction verified inside
            count += 1


CORPORA = Path(__file__).resolve().parent.parent / "corpus"


def _order_coords_by_solve(K, z):
    """Order coordinates of z from one Fraction solve of o . amb = coords(z)."""
    amb = [b.coords() for b in K.order_basis]
    return oracles.solve_exact([list(col) for col in zip(*amb)], z.coords())


# the rows of test_cli.test_verify_over_nontrivial_base_class_groups (h_F = 2)
BASE_CLASS_ROWS = ("2,10,-7,0", "2,10,-11,0", "2,10,-13,0", "2,15,-7,0", "2,26,-6,0")


@pytest.mark.parametrize("corpus", ["q50", "quartic80", "hF2"])
def test_order_mat_is_the_fraction_inverse(corpus):
    """_order_mat, whose rows are integer solves on the rows of _amb, is the
    inverse of the ambient basis matrix that Fraction Gauss-Jordan gives
    column by column."""
    from relclass.formats import CorpusEntry

    if corpus == "hF2":
        fields = [CorpusEntry(line, i).cm() for i, line in enumerate(BASE_CLASS_ROWS, 1)]
    else:
        fields = [entry.cm() for entry in load_corpus(str(CORPORA / f"{corpus}.txt"))]
    for K in fields:
        amb = [z.coords() for z in K.order_basis]
        cols = [oracles.solve_exact(amb, [int(a == b) for a in range(K.deg)]) for b in range(K.deg)]
        assert K._order_mat == [[col[a] for col in cols] for a in range(K.deg)], K


@pytest.mark.parametrize("corpus", ["q50", "quartic80"])
def test_integer_to_order_matches_fraction_solve(corpus):
    for entry in load_corpus(str(CORPORA / f"{corpus}.txt")):
        K = entry.cm()
        basis = K.order_basis
        w = K.elem(Fraction(1, 3), Fraction(-1, 4))
        for i, bi in enumerate(basis):
            for bj in basis[i:]:
                for z in (bi * bj, (bi * bj.conj()).scale(Fraction(5, 12)), bi * bj + w):
                    row, den = K._to_order(z)
                    assert [Fraction(c, den) for c in row] == _order_coords_by_solve(K, z)


# The lists the recursion gave before one generator served F and K, keyed by
# (n, m, delta), as the flattened HNF rows of each ideal (all have den = 1).
INTEGRAL_IDEALS_UP_TO_16 = {
    (1, None, -5): [(1, 0, 0, 1), (1, 1, 0, 2), (1, 1, 0, 3), (1, 2, 0, 3), (2, 0, 0, 2), (5, 0, 0, 1),
         (1, 1, 0, 6), (1, 5, 0, 6), (1, 2, 0, 7), (1, 5, 0, 7), (2, 2, 0, 4), (1, 4, 0, 9),
         (1, 5, 0, 9), (3, 0, 0, 3), (5, 1, 0, 2), (2, 2, 0, 6), (2, 4, 0, 6), (1, 5, 0, 14),
         (1, 9, 0, 14), (5, 1, 0, 3), (5, 2, 0, 3), (4, 0, 0, 4)],
    (1, None, -23): [(1, 0, 0, 1), (1, 1, 0, 2), (2, 0, 0, 1), (1, 2, 0, 3), (3, 0, 0, 1), (1, 1, 0, 4),
         (2, 0, 0, 2), (2, 1, 0, 2), (1, 5, 0, 6), (2, 1, 0, 3), (3, 1, 0, 2), (6, 0, 0, 1),
         (1, 1, 0, 8), (2, 2, 0, 4), (2, 3, 0, 4), (4, 0, 0, 2), (1, 2, 0, 9), (3, 0, 0, 3),
         (3, 1, 0, 3), (1, 5, 0, 12), (2, 1, 0, 6), (2, 4, 0, 6), (3, 3, 0, 4), (6, 0, 0, 2),
         (6, 1, 0, 2), (1, 5, 0, 13), (1, 10, 0, 13), (1, 9, 0, 16), (2, 2, 0, 8), (2, 3, 0, 8),
         (4, 0, 0, 4), (4, 2, 0, 4)],
    (2, 5, -1): [(1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1),
         (1, 0, 1, 0, 0, 1, 0, 1, 0, 0, 2, 0, 0, 0, 0, 2),
         (1, 0, 0, 1, 0, 1, 0, 3, 0, 0, 1, 3, 0, 0, 0, 5),
         (1, 0, 0, 4, 0, 1, 0, 2, 0, 0, 1, 3, 0, 0, 0, 5),
         (1, 0, 1, 1, 0, 1, 1, 2, 0, 0, 3, 0, 0, 0, 0, 3),
         (1, 0, 2, 2, 0, 1, 2, 1, 0, 0, 3, 0, 0, 0, 0, 3),
         (2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2)],
    (2, 2, -3): [(1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1),
         (2, 0, 0, 0, 0, 1, 0, 0, 0, 0, 2, 0, 0, 0, 0, 1),
         (1, 0, 0, 1, 0, 1, 0, 4, 0, 0, 1, 5, 0, 0, 0, 7),
         (1, 0, 0, 3, 0, 1, 0, 2, 0, 0, 1, 2, 0, 0, 0, 7),
         (1, 0, 0, 4, 0, 1, 0, 2, 0, 0, 1, 5, 0, 0, 0, 7),
         (1, 0, 0, 6, 0, 1, 0, 4, 0, 0, 1, 2, 0, 0, 0, 7),
         (1, 0, 1, 0, 0, 1, 0, 1, 0, 0, 3, 0, 0, 0, 0, 3),
         (2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2)],
    (2, 10, -7): [(1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1),
         (1, 0, 1, 0, 0, 1, 0, 0, 0, 0, 2, 0, 0, 0, 0, 1),
         (2, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1),
         (1, 0, 1, 0, 0, 1, 0, 1, 0, 0, 2, 0, 0, 0, 0, 2),
         (2, 0, 0, 0, 0, 1, 0, 0, 0, 0, 2, 0, 0, 0, 0, 1),
         (2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1),
         (1, 0, 1, 0, 0, 1, 0, 1, 0, 0, 4, 0, 0, 0, 0, 2),
         (2, 0, 0, 0, 0, 1, 0, 1, 0, 0, 2, 0, 0, 0, 0, 2),
         (2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 1),
         (2, 0, 1, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 1),
         (1, 1, 0, 0, 0, 3, 0, 0, 0, 0, 1, 1, 0, 0, 0, 3),
         (1, 2, 0, 0, 0, 3, 0, 0, 0, 0, 1, 2, 0, 0, 0, 3),
         (1, 0, 1, 0, 0, 1, 0, 1, 0, 0, 4, 0, 0, 0, 0, 4),
         (2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2),
         (2, 0, 1, 0, 0, 2, 0, 1, 0, 0, 2, 0, 0, 0, 0, 2),
         (2, 0, 2, 0, 0, 1, 0, 1, 0, 0, 4, 0, 0, 0, 0, 2),
         (4, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 1)],
}


@pytest.mark.parametrize("n,m,delta", list(INTEGRAL_IDEALS_UP_TO_16))
def test_integral_ideals_up_to_pinned(n, m, delta):
    F = make_field(n, m)
    got = oracles.integral_ideals_up_to(make_cm(F, F.elem(delta)), 16.0)
    assert all(idl.den == 1 for idl in got)
    want = INTEGRAL_IDEALS_UP_TO_16[n, m, delta]
    assert [tuple(x for r in idl.num for x in r) for idl in got] == want



# -- the class-group layer on integer rows, against tests/oracles.py ---------------------

# Q(sqrt -d), and Q(sqrt m)(sqrt delta) with delta = a + b*omega
ROW_FIELDS = [
    make_cm(make_field(n, m), make_field(n, m).elem(a, b))
    for n, m, a, b in [(1, None, -5, 0), (1, None, -23, 0), (1, None, -84, 0), (2, 2, -21, 0),
                       (2, 3, -7, -1), (2, 5, -11, 0), (2, 13, -14, 0)]
]


@st.composite
def integral_ideals(draw, K):
    """The ideal of K generated by one or two random integral elements with
    coordinates in [-6, 6] over the order basis."""
    row = st.lists(st.integers(-6, 6), min_size=K.deg, max_size=K.deg).filter(any)
    return KIdeal.from_generator_rows(K, draw(st.lists(row, min_size=1, max_size=2)), 1)


@st.composite
def field_and_ideals(draw, count=1):
    K = draw(st.sampled_from(ROW_FIELDS))
    return (K, *(draw(integral_ideals(K)) for _ in range(count)))


@settings(max_examples=80, deadline=None)
@given(field_and_ideals(), st.integers(1, 6))
def test_rel_norm_matches_element_products(ka, den):
    """The relative norm read off the integer norm form, for the ideal and
    for it over den, against the one from products of elements."""
    _, a = ka
    for b in (a, a.scale(Fraction(1, den))):
        assert b.rel_norm() == oracles.kideal_rel_norm(b)


@settings(max_examples=60, deadline=None)
@given(field_and_ideals(), st.integers(1, 4))
def test_small_class_rep_matches_inverse_construction(ka, den):
    """(q^-1 z)^conj built as q conj(z) N(q)^-1 o_K is the same HNF as the
    one through the inverse of q."""
    _, a = ka
    for b in (a, a.scale(Fraction(1, den))):
        assert b.small_class_rep() == oracles.kideal_small_class_rep(b)


@settings(max_examples=40, deadline=None)
@given(field_and_ideals(), st.integers(1, 4))
def test_short_vectors_of_an_ideal_match_the_fraction_pipeline(ka, k):
    """The integer Gram matrix of the rows, its LLL and the enumeration on
    the LLL's own LDL^T data, against the Fraction Gram matrix of elements,
    the Fraction LLL and the Fraction enumeration."""
    _, a = ka
    red = lll_reduce_gram(a.gram())
    G, U = oracles.lll_reduce_gram(oracles.kideal_gram(a))
    assert red.U == U
    assert [[Fraction(x, red.D) for x in row] for row in oracles.reduced_gram(red)] == G
    bound = G[0][0] * k
    assert short_vectors(red, bound) == oracles.short_vectors((G, U), bound)


@settings(max_examples=80, deadline=None)
@given(field_and_ideals(2), st.integers(1, 3))
def test_two_element_products_match_n2_rows(kab, den):
    """Products through a two-element form, with the ideal on either side,
    with its conjugate and with a fractional ideal, against the n^2-row
    product; the form found generates the ideal."""
    K, a, b = kab
    a.two_element()
    if a._gens is not None:
        l, alpha = a._gens
        assert KIdeal.from_generator_rows(K, [[l] + [0] * (K.deg - 1), alpha], 1) == a
    for c in (b, b.scale(Fraction(1, den))):
        want = oracles.kideal_product(a, c)
        assert a * c == want and c * a == want
        assert a.conj() * c == oracles.kideal_product(LatticeIdeal.conj(a), c)


@pytest.mark.parametrize("corpus", ["q50", "quartic80"])
def test_class_reps_match_oracle_closure(corpus):
    """The class representatives decide classify's output: on every field of
    the corpus they are the ideals that the closure on the Fraction and
    element primitives finds, in the same order."""
    for entry in load_corpus(str(CORPORA / f"{corpus}.txt")):
        K = entry.cm()
        assert K.F.h_F == 1
        want = [r.key() for r in oracles.class_reps_by_closure(K)]
        assert [r.key() for r in K.class_data().reps] == want, entry


@pytest.mark.parametrize("corpus", ["q50", "quartic80"])
def test_line_colon_ideal_matches_cross_products(corpus):
    """The F-part of N_i alpha^-1, one kernel on the order rows, against the
    kernel of the cross products with alpha: for every class representative
    N_i of four fields of the corpus and every alpha of its line scan, run
    to the bound of the norm-count check."""
    entries = load_corpus(str(CORPORA / f"{corpus}.txt"))
    for entry in entries[:: len(entries) // 4][:4]:
        K = entry.cm()
        x_max = Fraction(math.ceil((2 / math.pi) ** K.F.n * math.sqrt(K.abs_disc) + 2))
        for Ni in K.class_data().N_reps:
            lines, exclude = line_norms(K, Ni, x_max)
            assert exclude is not None
            for _, z in lines:
                assert line_colon_ideal(K, z, Ni) == oracles.line_colon_ideal(K, z, Ni), (entry, z)


@pytest.mark.parametrize("m", [None, 2, 3, 5, 13])
def test_unit_window_is_exact_from_above(m):
    """w = unit_window(ring, t) is the least point of the 2^-20 grid at or
    above (deg/n) t^(2/deg) S, on F = Q or Q(sqrt m) and on K = F(sqrt -7),
    compared exactly by squaring; S = 1 over Q, and otherwise
    S^2 = (eps + 1/eps)^2 comes from field arithmetic."""
    F = make_field(1) if m is None else make_field(2, m)
    S2 = 1
    if F.n == 2:
        x = F.eps + F.one() / F.eps
        S2 = (x * x).a
        assert (x * x).b == 0
    step = Fraction(1, 2**20)
    for ring in (F, make_cm(F, F.elem(-7))):
        r = ring.deg // F.n
        for t in [Fraction(k, 12) for k in range(1, 241)] + [Fraction(10**9 + 7, 3), Fraction(2**61 - 1)]:
            w = unit_window(ring, t)
            w2 = r * r * t ** (4 // ring.deg) * S2
            assert w % step == 0
            assert w * w >= w2
            assert (w - step) ** 2 < w2
