from fractions import Fraction
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import oracles
import pytest

from relclass import dseries
from relclass.cli import load_corpus
from relclass.formats import CorpusEntry
from relclass.cm import class_counts, make_cm
from relclass.dseries import (
    MAX_TRUNCATION,
    measure_compare,
    measure_mu_F,
    measure_mu_K,
    mellin_closed,
    mellin_quadrature,
    norm_class_reps,
    vseries,
    vsum_check,
    zeta_coeffs_cm,
    zeta_coeffs_field,
)
from relclass.errors import OutOfRegion, TruncationTooLarge
from relclass.field import make_field

Q = make_field(1)
F5 = make_field(2, 5)


def test_zeta_rational_all_ones():
    z = zeta_coeffs_field(Q, 60)
    assert all(c == 1 for c in z)


def test_zeta_quadratic_examples():
    z = zeta_coeffs_field(F5, 40)
    assert z[4 - 1] == 1  # 2 inert: only (2)
    assert z[5 - 1] == 1  # ramified
    assert z[11 - 1] == 2  # split
    assert z[20 - 1] == 1
    assert z[19 - 1] == 2


@pytest.mark.parametrize("m", [2, 3, 5, 13, 17, 33])
def test_quadratic_ideal_counts_match_oracle(m):
    """The Euler products of zeta_F and of zeta_K over Q, with
    o_K = Z[(d + sqrt d)/2], against the oracle's per-norm enumeration of
    multiplication-closed HNF sublattices."""
    F = make_field(2, m)
    assert zeta_coeffs_field(F, 120) == [oracles.ideal_count_oracle_quadratic(F, n) for n in range(1, 121)]
    d = -4 * m if m % 4 != 3 else -m
    ring = SimpleNamespace(c0=-((d * d - d) // 4), c1=d)
    assert zeta_coeffs_cm(make_cm(Q, -m), 60) == [
        oracles.ideal_count_oracle_quadratic(ring, n) for n in range(1, 61)
    ]


def test_zeta_cm_examples():
    K1 = make_cm(Q, -1)
    z = zeta_coeffs_cm(K1, 40)
    assert z[5 - 1] == 2
    assert z[3 - 1] == 0
    assert z[9 - 1] == 1
    assert z[25 - 1] == 3


def test_truncation_guard():
    with pytest.raises(TruncationTooLarge):
        zeta_coeffs_field(Q, MAX_TRUNCATION + 1)


def test_series_quotient_times_divisor():
    K = make_cm(Q, -5)
    zk = zeta_coeffs_cm(K, 50)
    zf = zeta_coeffs_field(Q, 50)
    zf2 = [0] * 50
    for n in range(1, 8):
        zf2[n * n - 1] = zf[n - 1]
    q = vseries(K, 50)
    assert oracles.coeff_series_mul(q, zf2) == zk
    assert all(type(c) is int for c in q)


def test_coefficients_are_ints():
    """The Dirichlet coefficients are exact ints: no Fraction enters the
    series or the partial sum of vsum_check."""
    K = make_cm(F5, F5.elem(-11))
    for series in (zeta_coeffs_field(F5, 60), zeta_coeffs_cm(K, 60), vseries(K, 60)):
        assert all(type(c) is int for c in series), series
    assert type(vsum_check(K)["partial_sum"]) is int


CORPUS = Path(__file__).resolve().parent.parent / "corpus"
# the rows of test_cli.test_verify_over_nontrivial_base_class_groups (h_F = 2)
BASE_CLASS_ROWS = ("2,10,-7,0", "2,10,-11,0", "2,10,-13,0", "2,15,-7,0", "2,26,-6,0")


def _corpus_fields(corpus):
    if corpus == "hF2":
        return [CorpusEntry(line, i).cm() for i, line in enumerate(BASE_CLASS_ROWS, 1)]
    return [entry.cm() for entry in load_corpus(str(CORPUS / f"{corpus}.txt"))]


@pytest.mark.parametrize("corpus", ["q50", "quartic80", "hF2"])
def test_euler_products_match_the_enumerations(corpus):
    """On every row: zeta_K to 60 against the integral ideals of K (over Q
    the HNF sublattices of Z[(d + sqrt d)/2]), zeta_F to 400 against the HNF
    sublattices of o_F, and v_n against the product of the local factors of
    zeta_K(s)/zeta_F(2s), at the row's own truncation and at 200."""
    zeta_F = {}
    for K in _corpus_fields(corpus):
        F = K.F
        if F.n == 1:
            d = -K.rel_disc_norm
            ring = SimpleNamespace(c0=-((d * d - d) // 4), c1=d)
            direct = [oracles.ideal_count_oracle_quadratic(ring, n) for n in range(1, 61)]
        else:
            direct = [0] * 60
            for idl in oracles.integral_ideals_up_to(K, 60):
                direct[int(idl.norm()) - 1] += 1
        assert zeta_coeffs_cm(K, 60) == direct, K
        if F.m not in zeta_F:
            zeta_F[F.m] = zeta_coeffs_field(F, 400)
            assert zeta_F[F.m] == (
                [1] * 400 if F.n == 1 else [oracles.ideal_count_oracle_quadratic(F, n) for n in range(1, 401)]
            ), F
        X = max(16, int(K.rel_disc_norm**0.5 / 2**F.n) + 2)  # vsum_check's truncation
        for x in (X, 200):
            assert vseries(K, x) == oracles.vseries_by_local_factors(K, x), (K, x)


def test_vsum_check_builds_no_prime_of_K(monkeypatch):
    """Once the class counts are known, the partial sum of v_n reads only
    how each prime of F splits: no prime of K is built."""
    from relclass.cm import CMField

    built = []
    primes_above = CMField.primes_above
    monkeypatch.setattr(CMField, "primes_above", lambda self, pr: built.append(pr) or primes_above(self, pr))
    for K in _corpus_fields("quartic80")[::10]:
        class_counts(K)
        built.clear()
        vsum_check(K)
        assert built == [], K


@pytest.mark.parametrize("corpus", ["q50", "quartic80"])
def test_line_norms_read_off_a_wider_scan(corpus):
    """The scan of an ideal that K keeps answers a smaller bound exactly as
    a scan at that bound does: the same lines in the same order, and the same
    excluded line, also where the wider scan's first saturated line lies
    above the smaller bound."""
    from relclass.bounds import norm_count_scan_bound
    from relclass.dseries import line_norms

    def rows(scan):
        lines, exclude = scan
        return [(v, tuple(z.coords())) for v, z in lines], exclude and tuple(exclude.coords())

    for entry in load_corpus(str(Path(__file__).resolve().parent.parent / "corpus" / f"{corpus}.txt"))[::5]:
        K = entry.cm()
        wide = norm_count_scan_bound(K, Fraction(5)) + 11
        for i, Ni in enumerate(norm_class_reps(K)[:2]):
            line_norms(K, Ni, wide)
            for b in (Fraction(1), Fraction(2), Fraction(11), norm_count_scan_bound(K, Fraction(5))):
                fresh = entry.cm()
                assert rows(line_norms(K, Ni, b)) == rows(line_norms(fresh, norm_class_reps(fresh)[i], b)), (entry, b)


def test_vseries_examples_and_positivity():
    K1 = make_cm(Q, -1)
    v = vseries(K1, 40)
    assert (v[0], v[2 - 1], v[3 - 1]) == (1, 1, 0)
    assert all(c >= 0 for c in v)
    K5 = make_cm(Q, -5)
    v5 = vseries(K5, 40)
    assert v5[2 - 1] == 1 and v5[5 - 1] == 1
    K23 = make_cm(Q, -23)
    v23 = vseries(K23, 40)
    assert v23[2 - 1] == 2  # 2 splits: -23 = 1 mod 8


def test_vseries_quartic():
    F = make_field(2, 2)
    K = make_cm(F, F.elem(-5))
    v = vseries(K, 60)
    assert v[0] == 1
    assert all(c >= 0 for c in v)


def test_vsum_examples():
    assert vsum_check(make_cm(Q, -5))["partial_sum"] == 2
    assert vsum_check(make_cm(Q, -1))["partial_sum"] == 0
    rep = vsum_check(make_cm(Q, -23))
    assert rep["partial_sum"] == 3 and rep["h"] == 3 and rep["margin"] == 0


def test_mellin_closed_examples():
    assert abs(mellin_closed("gamma", {"u": 0}, 1.0) - 1) < 1e-12
    assert abs(mellin_closed("gamma", {"u": 0}, 3.0) - 2) < 1e-12
    with pytest.raises(OutOfRegion):
        mellin_closed("gamma", {"u": 1.0}, 0.5)
    # kind F at s = 1: 2 h_F sqrt(A2)
    v = mellin_closed("F", {"h_F": 1, "A2": 4.0}, 1.0)
    assert abs(v - 4.0) < 1e-12
    with pytest.raises(OutOfRegion):
        mellin_closed("F", {"h_F": 1, "A2": 4.0}, 0.4)
    vK = mellin_closed("K", {"h_K": 2, "A1": 10.0, "n": 1, "reldisc": 20}, 2.0)
    assert abs(vK - 2 * 10.0 * 2 * 2 / (1 * 20)) < 1e-12
    with pytest.raises(OutOfRegion):
        mellin_closed("K", {"h_K": 2, "A1": 10.0, "n": 1, "reldisc": 20}, 1.0)


def test_mellin_quadrature_matches():
    for (u, s) in ((0.0, 1.5), (0.5, 2.0), (1.0, 4.0)):
        assert abs(mellin_closed("gamma", {"u": u}, s) - mellin_quadrature(u, s)) < 1e-8


def test_measure_atoms_match_vseries():
    # mu_K atom locations (with multiplicity) correspond to v_n counts
    K = make_cm(Q, -5)
    mu = measure_mu_K(K, 10.0)
    v = vseries(K, 12)
    from collections import Counter

    atom_counts = Counter(int(loc) for (loc, m) in mu.atoms)
    for n in range(2, 10):
        expected = int(v[n - 1])
        # the excluded minimal line only affects its own location
        if atom_counts.get(n, 0) != expected:
            assert abs(atom_counts.get(n, 0) - expected) <= 1
    # the minimal saturated line's norm occurs in the expansion
    sat_min = min(loc for loc, _ in mu.atoms) if mu.atoms else None
    assert v[0] == 1


def test_measure_compare_below_first_atom():
    K = make_cm(Q, -5)
    rep = measure_compare(K, [0.25], A1=50.0, A2=10.0)
    row = rep["rows"][0]
    assert row["K"][0] == 0.0
    assert row["K"][1] >= 0.0


def test_measure_mu_F_counts():
    mu = measure_mu_F(Q, 30.0)
    # atoms at 1, 4, 9, 16, 25 with multiplicity 1 over Q
    locs = sorted(loc for loc, m in mu.atoms)
    assert locs == [1.0, 4.0, 9.0, 16.0, 25.0]


def test_min_line_values_occur_in_expansion():
    # for each class representative the minimal saturated line's norm value
    # indexes a positive coefficient of the quotient series
    from relclass.dseries import line_norms

    for delta in (-5, -23, -47):
        K = make_cm(Q, delta)
        cd = K.class_data()
        v = vseries(K, 64)
        for Ni in cd.N_reps:
            lines, exclude = line_norms(K, Ni, Fraction(60))
            assert exclude is not None
            nmin = next(val for val, z in lines if z == exclude)
            assert nmin.denominator == 1
            assert v[int(nmin) - 1] > 0


def test_measure_mu_K_over_Q_matches_closure_reps(monkeypatch):
    # over Q the reduced-form ideals stand for the classes that the closure's
    # N_reps stand for, and the atoms, class invariants, do not see which
    corpus = Path(__file__).resolve().parent.parent / "corpus" / "q50.txt"
    fields = [entry.cm() for entry in load_corpus(str(corpus))]
    fields += [make_cm(Q, d) for d in (-1, -2, -3, -12, -27)]
    for K in fields:
        reps = norm_class_reps(K)
        assert len(reps) == class_counts(K).h_K, K
        assert not any(a.in_same_class(b) for a, b in combinations(reps, 2)), K
        ours = [measure_mu_K(K, x).atoms for x in (50.0, 400.0)]
        with monkeypatch.context() as m:
            m.setattr(dseries, "norm_class_reps", lambda K: K.class_data().N_reps)
            assert [measure_mu_K(K, x).atoms for x in (50.0, 400.0)] == ours, K
