"""The acceptance gate: one test per criterion, each printing a PASS line.

Tolerances are pinned here; a failing criterion must fail loudly, never be
loosened.  Shared expensive fixtures (the eigenvalue tables) are module
scoped.
"""

import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from oracles import (
    definite_forms,
    fundamental_discs,
    gauss_reduce_binary,
    reduced_forms_by_ideal_products,
    relation_class_number,
)

from relclass import bounds as bnd
from relclass import constructions, dseries, forms, hecke
from relclass.cli import load_corpus
from relclass.cm import class_counts, make_cm
from relclass.errors import LemmaViolation
from relclass.field import make_field
from relclass.imagquad import class_group_counts, reduced_forms

ROOT = Path(__file__).resolve().parent.parent
Q = make_field(1)
BASE_FIELDS = [make_field(2, m) for m in (2, 3, 5, 13)]


def _report(num: int, ok: bool, msg: str):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d}: {tag} - {msg}")
    assert ok, msg


@pytest.fixture(scope="module")
def gz1000():
    t = hecke.gz_table(1000)
    t.eps_sign = 1
    return t


@pytest.fixture(scope="module")
def lat_constants():
    return {F: bnd.lattice_constants(F) for F in [Q] + BASE_FIELDS}


def test_01_correspondence_rational():
    t0 = time.time()
    discs = fundamental_discs(10**4)
    assert len(discs) >= 3000
    for D in discs:
        h, orbits = class_group_counts(D)
        # the oracle side multiplies prime ideals, not coefficients: the norm
        # forms of the products, sorted, and an orbit {f, reduction of f's
        # conjugate}
        oracle = reduced_forms_by_ideal_products(D)
        assert reduced_forms(D) == oracle, D
        oracle_h = len(oracle)
        oracle_orbits = len({min(f, gauss_reduce_binary(f[0], -f[1], f[2])) for f in oracle})
        assert (h, orbits) == (oracle_h, oracle_orbits), (D, h, orbits, oracle_h, oracle_orbits)
        assert orbits <= h <= 2 * orbits
    dt = time.time() - t0
    _report(
        1,
        dt < 180,
        f"{len(discs)} rational fields match the ideal-product oracle in {dt:.0f}s (< 180s)",
    )


def test_02_correspondence_real_quadratic():
    """class_counts against the relation-lattice oracle on quartic80.  The
    oracle stops once its determinant has been stable for 60 relations, so
    it can return a multiple of h_K; the corpus column pins the value."""
    t0 = time.time()
    entries = load_corpus(str(ROOT / "corpus" / "quartic80.txt"))
    per_field = {}
    for e in entries:
        K = e.cm()
        assert K.unit_equal and K.rel_disc_norm <= 5000
        h, _, orbits = class_counts(K)
        oh, oorbits = relation_class_number(K)
        assert (h, orbits) == (oh, oorbits), (e.label(), (h, orbits), (oh, oorbits))
        assert h == e.expected_hK
        per_field[e.m] = per_field.get(e.m, 0) + 1
    dt = time.time() - t0
    ok = all(per_field[m] >= 20 for m in (2, 3, 5, 13)) and dt < 300
    _report(2, ok, f"{sum(per_field.values())} CM extensions match the relation oracle in {dt:.0f}s (< 300s)")


def test_03_genus_bound():
    witnesses = {}
    for e in load_corpus(str(ROOT / "corpus" / "q50.txt")):
        K = e.cm()
        t, bound = forms.lower_bound_t(K)  # asserts bound <= h_K internally
        h, _, _ = class_counts(K)
        if bound == h:
            witnesses[t] = e.label()
    for e in load_corpus(str(ROOT / "corpus" / "quartic80.txt")):
        K = e.cm()
        forms.lower_bound_t(K)
    ok = all(t in witnesses for t in (1, 2, 3, 4))
    _report(3, ok, f"h_K >= 2^(t+n-1)/2^n corpus-wide; equality witnesses {sorted(witnesses)}")


def test_04_disc_valuations():
    count = 0
    for path in ("q50.txt", "quartic80.txt"):
        for e in load_corpus(str(ROOT / "corpus" / path)):
            K = e.cm()
            for pr, v in K.rel_disc_primes:
                if pr.p == 2:
                    assert v <= 2 * pr.e + 1, (e.label(), pr, v)
                else:
                    assert v == 1, (e.label(), pr, v)
                count += 1
    _report(4, True, f"ramified valuations within bounds at {count} primes, zero violations")


def test_05_vsum():
    checked = 0
    for e in load_corpus(str(ROOT / "corpus" / "q50.txt"))[:25]:
        K = e.cm()
        if not K.unit_equal:
            continue
        dseries.vsum_check(K)
        checked += 1
    for e in load_corpus(str(ROOT / "corpus" / "quartic80.txt"))[::4]:
        dseries.vsum_check(e.cm())
        checked += 1
    tight = dseries.vsum_check(make_cm(Q, -23))
    assert tight["partial_sum"] == 3 and tight["h"] == 3
    _report(5, True, f"v-series partial sums below h on {checked} fields; disc -23 is tight (3 <= 3)")


def test_06_unique_line():
    rng = random.Random(20260808)
    per_field = 200
    total = 0
    for F in [Q] + BASE_FIELDS:
        for Qf in definite_forms(F, rng, per_field):
            constructions.minimal_lines(Qf)  # LemmaViolation on 2+ lines
            total += 1
    _report(6, True, f"at most one sub-threshold saturated line on {total} random definite forms")


def test_07_lattice_point_bound(lat_constants):
    rng = random.Random(11)
    per_field = 500
    for F in [Q] + BASE_FIELDS:
        lat = lat_constants[F]
        ideals = [F.unit_ideal()] + [pr.ideal for p in (2, 3, 5) for pr in F.splitting(p).primes]
        done = 0
        while done < per_field:
            idl = ideals[rng.randrange(len(ideals))]
            x0 = tuple(Fraction(rng.randrange(-8, 9), 2) for _ in range(F.n))
            # enforce the precondition prod c >= T0 |a|
            base = (lat.T0.hi * float(idl.norm())) ** (1.0 / F.n)
            c = tuple(Fraction(math.ceil((base + rng.random() * 4) * 8), 8) for _ in range(F.n))
            rep = bnd.box_bound_check(F, lat, idl, x0, c)
            assert rep["ok"], (F, idl, x0, c, rep)
            done += 1
    _report(7, True, f"exact counts within the certified bound on {5 * per_field} boxes")


def test_08_norm_counts(lat_constants):
    rng = random.Random(7)
    per_field = 100
    cms = {
        1: [make_cm(Q, d) for d in (-5, -23, -47)],
        2: None,
    }
    for F in [Q] + BASE_FIELDS:
        lat = lat_constants[F]
        if F.n == 1:
            Ks = cms[1]
        else:
            Ks = [make_cm(F, F.elem(d)) for d in (-5, -7, -11) if make_cm(F, F.elem(d)).unit_equal]
        triples = 0
        while triples < per_field:
            t = Fraction(rng.randrange(1, 40), rng.randrange(1, 4))
            which = rng.randrange(3)
            if which == 0 or not Ks:
                idl = F.unit_ideal() if rng.random() < 0.5 else F.splitting(3).primes[0].ideal
                bnd.norm_count_check_F(idl, t, lat)
            else:
                K = Ks[rng.randrange(len(Ks))]
                cd = K.class_data()
                Ni = cd.N_reps[rng.randrange(len(cd.N_reps))]
                bnd.norm_count_check_K(K, Ni, min(t, Fraction(12)), lat)
            triples += 1
    _report(8, True, f"norm-count inequalities (a) and (b) hold on {5 * per_field} sampled triples")


def test_09_split_prime_scans():
    checked = 0
    for path in ("q50.txt", "quartic80.txt"):
        for e in load_corpus(str(ROOT / "corpus" / path)):
            K = e.cm()
            if not K.unit_equal or K.rel_disc_norm <= 4**K.F.n:
                continue
            bnd.bound_params(K)  # raises LemmaViolation on any scan failure
            checked += 1
    _report(9, True, f"no split prime below V, at most one below U, R >= U on {checked} fields")


def test_10_hecke_layer():
    t0 = time.time()
    table = hecke.gz_table(10**4)
    assert table.discrepancy is None
    p37 = Q.splitting(37).primes[0]
    assert table.lam(p37) == 1
    for p in hecke.primes_up_to(10**4):
        pr = Q.splitting(p).primes[0]
        lam = table.lam(pr)
        if p != 37:
            assert lam * lam <= 4 * p, f"Hasse fails at {p}"
    chi0 = hecke.QuadChar(make_cm(Q, -139))
    tw = hecke.twist_table(table, chi0)
    assert int(tw.level.norm()) == 37 * 139**2
    for m in (5, 2):
        F = make_field(2, m)
        bc = hecke.base_change_table(table, F)
        for pr in F.splitting(37).primes:
            assert bc.lam(pr) == 1
        for p in (3, 7, 11, 13, 41, 997):
            for pr in F.splitting(p).primes:
                lam = bc.lam(pr)
                assert lam * lam <= 4 * pr.norm(), (m, p)
    dt = time.time() - t0
    _report(10, dt < 120, f"a_37 = 1, Hasse to 10^4, twist level 37*139^2, base change bounds ({dt:.0f}s < 120s)")


def test_11_euler_identity(gz1000):
    table = gz1000
    chars = [hecke.QuadChar(make_cm(Q, d)) for d in (-1, -3, -5, -7, -11, -15, -21, -23, -139, -35)]
    count = 0
    for chi in chars:
        tw = hecke.twist_table(table, chi)
        for p in hecke.primes_up_to(1000):
            pr = Q.splitting(p).primes[0]
            Dp, sym, psi, phi = hecke.euler_factors(table, chi, pr)
            lhs_n = hecke.poly_mul(phi.num, psi.num)
            lhs_d = hecke.poly_mul(phi.den, psi.den)
            rhs_n = hecke.poly_mul(hecke.d_factor(table, pr).num, hecke.d_factor(tw, pr).num)
            rhs_d = hecke.poly_mul(hecke.d_factor(table, pr).den, hecke.d_factor(tw, pr).den)
            assert hecke.poly_mul(lhs_n, rhs_d) == hecke.poly_mul(rhs_n, lhs_d), (chi.K, p)
            count += 1
    _report(11, True, f"Phi_p * Psi_p = D_p(f) D_p(f chi) exactly at {count} (character, prime) pairs")


def test_12_epsilon(gz1000):
    # synthetic reproduction of the parity sign over both degrees
    # n = 1: levels with s in {1, 2} primes, all lambda = 1, a2 = a
    for s, ps, delta in ((1, (37,), -37), (2, (5, 37), -185)):
        F = Q
        level = F.unit_ideal()
        lam = {}
        for p in ps:
            pr = F.splitting(p).primes[0]
            level = level * pr.ideal
            lam[(pr.p, pr.second_gen.a, pr.second_gen.b)] = 1
        synth = hecke.EigenvalueTable(F, level, 50, lam, 1, "synthetic")
        for p in hecke.primes_up_to(50):
            pr = F.splitting(p).primes[0]
            synth.lam_map.setdefault((pr.p, pr.second_gen.a, pr.second_gen.b), 0)
        chi = hecke.QuadChar(make_cm(F, delta))
        got = hecke.epsilon_factor(synth, chi, eps_f=1)
        expect = (-1) ** (1 + s)
        assert got == expect, (s, got, expect)
    # n = 2 synthetic: F = Q(sqrt 2), inert 37-prime (s = 1), split 7 (s = 2)
    F2 = make_field(2, 2)
    for s, base_p, delta in ((1, 37, -37), (2, 7, -7)):
        level = F2.unit_ideal()
        lam = {}
        prs = F2.splitting(base_p).primes
        assert len(prs) == s
        for pr in prs:
            level = level * pr.ideal
            lam[(pr.p, pr.second_gen.a, pr.second_gen.b)] = 1
        synth = hecke.EigenvalueTable(F2, level, 60, lam, 1, "synthetic")
        for p in hecke.primes_up_to(60):
            for pr in F2.splitting(p).primes:
                synth.lam_map.setdefault((pr.p, pr.second_gen.a, pr.second_gen.b), 0)
        chi = hecke.QuadChar(make_cm(F2, F2.elem(delta)))
        got = hecke.epsilon_factor(synth, chi, eps_f=1)
        expect = (-1) ** (2 + s)
        assert got == expect, ("n=2", s, got, expect)
    # numeric selection at level 37
    eps, ratio = hecke.epsilon_numeric(gz1000)
    assert eps == 1
    _report(12, ratio < 1e-4, f"parity formula reproduced for n, s in {{1,2}}; level-37 residual ratio {ratio:.1e} < 1e-4")


def test_13_cascade(gz1000):
    chi0 = hecke.QuadChar(make_cm(Q, -139))
    f_table = hecke.twist_table(gz1000, chi0)
    f_table.eps_sign = hecke.epsilon_factor(gz1000, chi0, eps_f=1)
    assert f_table.eps_sign == -1
    grid = [1e28, 1e29, 1e30, 1e31, 1e33]
    checked = 0
    for strategy, injected in (
        ("heuristic", None),
        ("injected", {"G1": 1e-13, "G2": 30.0, "G3": 1e7}),
    ):
        g2 = grid if strategy == "heuristic" else [1e37, 1e39, 1e41]
        bundle = bnd.make_bundle(Q, f_table, strategy, injected, lambda_grid=g2)
        C = bnd.final_C(bundle)["C"]
        assert C > 0
        for e in load_corpus(str(ROOT / "corpus" / "q50.txt")):
            K = e.cm()
            if not K.unit_equal or K.rel_disc_norm <= 4:
                continue
            fb = bnd.final_bound(K, bundle, C=C)
            assert fb["ok"] and fb["bound"] <= fb["h_K"]
            assert set(fb["rigor"]) >= {"G1", "B1", "C_T0", "final_C"}
            assert fb["rigor"]["G1"] == bundle.G.provenance
            checked += 1
    _report(13, True, f"final bound below h_K on {checked} field-strategy pairs with rigor ledgers")


def test_14_measures(lat_constants):
    fields = [make_cm(Q, d) for d in (-5, -23, -47)] + [
        make_cm(make_field(2, 2), make_field(2, 2).elem(-5)),
        make_cm(make_field(2, 5), make_field(2, 5).elem(-11)),
    ]
    xs = [0.5 + 1.1 * k for k in range(20)]
    for K in fields:
        lat = lat_constants[K.F]
        rep = dseries.measure_compare(K, xs, lat.A1.hi, lat.A2.hi)
        assert rep["ok"]
    worst = 0.0
    for s, u in ((1.5, 0.0), (3.0, 0.0), (2.5, 0.5), (4.0, 1.0), (2.0, 0.25)):
        closed = dseries.mellin_closed("gamma", {"u": u}, s)
        quad = dseries.mellin_quadrature(u, s)
        worst = max(worst, abs(closed - quad))
    _report(14, worst < 1e-8, f"measure inequalities at 20 points on 5 fields; Mellin quadrature agrees to {worst:.1e} (< 1e-8)")


def test_15_determinism(tmp_path):
    corpus = ROOT / "corpus" / "q50.txt"
    cmd = [
        sys.executable,
        "-m",
        "relclass.cli",
        "verify",
        "--corpus",
        str(corpus),
        "--checks",
        "regression,genus,vsum",
    ]
    r1 = subprocess.run(cmd, capture_output=True, cwd=str(ROOT))
    r2 = subprocess.run(cmd, capture_output=True, cwd=str(ROOT))
    assert r1.returncode == 0 and r2.returncode == 0
    assert r1.stdout == r2.stdout and r1.stdout
    cmd2 = [
        sys.executable,
        "-m",
        "relclass.cli",
        "bound",
        "--corpus",
        str(corpus),
        "--lambda-grid",
        "1e29,1e30,1e31",
        "--pmax",
        "500",
    ]
    r3 = subprocess.run(cmd2, capture_output=True, cwd=str(ROOT))
    r4 = subprocess.run(cmd2, capture_output=True, cwd=str(ROOT))
    assert r3.returncode == r4.returncode == 0
    assert r3.stdout == r4.stdout and r3.stdout
    _report(15, True, "verify and bound reports byte-identical across runs")
