import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    definite_forms,
    hilbert_symbol_2adic_oracle,
    kprimes_up_to,
    make_form,
    relevant_primes_by_trial_division,
    tame_symbol_by_residue_field,
    twoadic_symbol_by_enumeration,
)

from relclass import forms
from relclass.cli import load_corpus
from relclass.cm import class_counts, make_cm
from relclass.errors import DegenerateForm, LemmaViolation, NotFundamental
from relclass.field import make_field, prime_divisors, primes_up_to
from relclass.forms import (
    classify,
    form_field,
    form_to_ideal,
    genus_char,
    genus_places,
    genus_vector,
    hilbert_symbol,
    ideal_to_form,
    is_fundamental,
    lower_bound_t,
    weakly_equivalent,
)
from relclass.constructions import (
    minimal_lines,
    prescribe_genus,
    represent_search,
    representable_criterion,
)

ROOT = Path(__file__).resolve().parent.parent
Q = make_field(1)
F2 = make_field(2, 2)
F5 = make_field(2, 5)


def test_disc_and_norm_ideals():
    assert make_form(Q, 1, 0, 1).disc_ideal().norm() == 4
    assert make_form(Q, 2, 1, 3).disc_ideal().norm() == 23
    assert make_form(Q, 1, 0, 1, Q.ideal(3)).disc_ideal().norm() == 36
    assert make_form(Q, 1, 0, 1).norm_ideal().norm() == 1
    assert make_form(Q, 2, 0, 4).norm_ideal().norm() == 2
    assert make_form(Q, 2, 1, 3).norm_ideal().norm() == 1


def test_degenerate_rejected():
    with pytest.raises(DegenerateForm):
        make_form(Q, 1, 2, 1).disc_ideal()


def test_definiteness():
    assert make_form(Q, 1, 0, 1).is_positive_definite()
    f = make_form(Q, -1, 0, -1)
    assert f.is_definite() and not f.is_positive_definite()
    g = make_form(F2, F2.one(), F2.zero(), F2.omega())  # x^2 + sqrt2 y^2
    assert not g.is_definite()


def _is_fundamental_checked(f) -> bool:
    """is_fundamental, asserted against the discriminant identity: a definite
    form is fundamental exactly when disc(F(Q)/F) = disc(Q) norm(Q)^-2."""
    result = is_fundamental(f)
    nq = f.norm_ideal()
    target = f.disc_ideal() * (nq * nq).inverse()
    assert target.is_integral()
    if f.is_definite():
        assert (target == form_field(f).rel_disc) == result
    return result


def test_fundamentality():
    assert _is_fundamental_checked(make_form(Q, 1, 0, 1))
    assert not _is_fundamental_checked(make_form(Q, 1, 0, 4))
    assert _is_fundamental_checked(make_form(Q, 3, 0, 3))  # disc/norm^2 = (4)
    assert _is_fundamental_checked(make_form(Q, 2, 2, 3))
    assert not _is_fundamental_checked(make_form(Q, 1, 0, 9))  # disc -36 = 9 * (-4)
    # disc -4, but norm (1/3): d* = -36 at 3, a prime of the norm ideal only
    assert not _is_fundamental_checked(make_form(Q, Fraction(1, 3), 0, 3))
    assert not _is_fundamental_checked(make_form(Q, 1, 1, 16))  # disc -63 = 9 * (-7)


def _verdicts(f, monkeypatch) -> tuple[bool, bool]:
    """is_fundamental(f) on its prime set, and on the trial-division prime
    set it read before."""
    new = is_fundamental(f)
    with monkeypatch.context() as patch:
        patch.setattr(forms, "_relevant_primes", relevant_primes_by_trial_division)
        return new, is_fundamental(f)


def test_relevant_primes_agree_with_trial_division_on_classify_forms(monkeypatch):
    """Every form classify builds over both corpora, the norm forms of the
    orbit representatives and their unit-square scalings, gets the same
    verdict from both prime sets."""
    count = 0
    for path in ("q50.txt", "quartic80.txt"):
        for e in load_corpus(str(ROOT / "corpus" / path)):
            K = e.cm()
            units = forms._unit_square_reps(K.F)
            for rep in K.class_data().orbit_reps:
                f = ideal_to_form(K, rep)
                for u in units:
                    assert _verdicts(f.scaled(u), monkeypatch) == (True, True), (e.label(), rep)
                    count += 1
    assert count > 1000


def test_relevant_primes_on_the_gate_forms(monkeypatch):
    """On the random forms of acceptance criterion 6 the two prime sets
    agree except where trial division of a, b and c misses an odd prime p
    with p^2 | b^2 - 4ac, such as 5 for (7, 3, 3) of discriminant -75.
    There the form is not fundamental, as the discriminant identity
    confirms, and only the new prime set says so."""
    rng = random.Random(20260808)
    missed = 0
    for F in [Q, F2, make_field(2, 3), F5, make_field(2, 13)]:
        for f in definite_forms(F, rng, 200):
            new, old = _verdicts(f, monkeypatch)
            if new == old:
                continue
            assert old and not _is_fundamental_checked(f)
            seen = {pr.p for pr in relevant_primes_by_trial_division(f, f.norm_ideal())}
            assert any(pr.p not in seen and v >= 2 for pr, v in f.disc_ideal().factor())
            missed += 1
    assert 0 < missed < 100


def test_basis_change_invariance():
    # random unimodular changes preserve the ideals and fundamentality
    import random

    rng = random.Random(7)
    for _ in range(40):
        a, b, c = 1 + rng.randrange(4), rng.randrange(-3, 4), 1 + rng.randrange(5)
        f = make_form(Q, a, b, c)
        if f.field_disc().is_zero() or not f.is_definite():
            continue
        p, q = rng.randrange(-3, 4), rng.randrange(-3, 4)
        r, s = rng.randrange(-3, 4), rng.randrange(-3, 4)
        if p * s - q * r not in (1, -1):
            continue
        # transformed coefficients
        a2 = f.value(Q.elem(p), Q.elem(r))
        c2 = f.value(Q.elem(q), Q.elem(s))
        b2 = (
            f.value(Q.elem(p + q), Q.elem(r + s)) - a2 - c2
        )
        g = make_form(Q, a2.a, b2.a, c2.a)
        assert g.disc_ideal() == f.disc_ideal()
        assert g.norm_ideal() == f.norm_ideal()
        assert g.is_definite() == f.is_definite()
        assert _is_fundamental_checked(g) == _is_fundamental_checked(f)
        det = p * s - q * r
        assert g.field_disc() == f.field_disc() * Q.elem(det * det)


def test_ideal_to_form_examples():
    K1 = make_cm(Q, -1)
    f = ideal_to_form(K1, K1.maximal_order())
    assert (f.a, f.b, f.c) == (Q.one(), Q.zero(), Q.one())
    K23 = make_cm(Q, -23)
    f = ideal_to_form(K23, K23.maximal_order())
    assert (f.a.a, f.b.a, f.c.a) == (1, 1, 6)
    # the norm form of (2, 1+sqrt-5) has content N(A) = (2)
    K5 = make_cm(Q, -5)
    p2 = kprimes_up_to(K5, 3)[0]
    f = ideal_to_form(K5, p2.ideal)
    assert f.norm_ideal().norm() == 2
    assert f.disc_ideal() == K5.rel_disc * (p2.ideal.rel_norm() ** 2)


def test_form_to_ideal_examples():
    K, A, scale = form_to_ideal(make_form(Q, 1, 0, 1))
    assert scale == Q.elem(4)
    assert A.norm() == 4  # the module Z*2 + Z*2i = (2)
    K, A, scale = form_to_ideal(make_form(Q, 2, 1, 3))
    assert A.norm() == 8
    with pytest.raises(NotFundamental):
        form_to_ideal(make_form(Q, 1, 0, 4))


def test_roundtrip_weak_equivalence():
    for (a, b, c) in ((1, 0, 1), (2, 1, 3), (1, 0, 5), (2, 2, 3), (3, 2, 5)):
        f = make_form(Q, a, b, c)
        K, A, _ = form_to_ideal(f)
        g = ideal_to_form(K, A)
        assert weakly_equivalent(f, g)
    assert not weakly_equivalent(make_form(Q, 1, 0, 5), make_form(Q, 2, 2, 3))


def test_classify_counts():
    for delta, weak_expected in ((-1, 1), (-23, 2), (-5, 2)):
        K = make_cm(Q, delta)
        strong, weak = classify(K)
        assert len(weak) == weak_expected
        assert len(weak) <= class_counts(K)[0] <= 2 * len(weak)


@pytest.mark.parametrize("m", [None, 2, 3, 5, 7, 13, 17, 19, 21])
def test_tame_symbols_match_the_residue_field(m):
    """hilbert_symbol at every prime over an odd p < 40, split, inert or
    ramified, agrees with the symbol read from residue-field images of the
    unit parts.  s and d run over small integral elements, their quotients
    by 3 + omega (a split p then divides the denominator), and products
    with the prime's generator, so that valuations of both signs occur."""
    F = make_field(1) if m is None else make_field(2, m)
    rng = random.Random(m or 1)
    small = {F.elem(a, b * (F.n - 1)) for a in range(-3, 4) for b in range(-3, 4)} - {F.zero()}
    small = sorted(small, key=lambda x: x.coords())
    pool = small + [x / F.elem(3, F.n - 1) for x in small]
    for p in primes_up_to(39)[1:]:
        for pr in F.splitting(p).primes:
            local = pool + [x * pr.second_gen for x in rng.sample(pool, min(20, len(pool)))]
            for _ in range(600):
                s, d = rng.choice(local), rng.choice(local)
                want = tame_symbol_by_residue_field(F, s, d, pr)
                assert hilbert_symbol(F, s, d, pr) == want, (s, d, pr)


def test_omega_over_Q_is_zero():
    """Over Q omega is 0, not a nilpotent with nb = 1: 3 / (omega + 3) is 1,
    and the symbol at 3 of it against -1 is (1, -1)_3 = 1."""
    x = Q.elem(3) / (Q.omega() + 3)
    assert (x.na, x.nb, x.den) == (1, 0, 1)
    assert hilbert_symbol(Q, x, Q.elem(-1), Q.splitting(3).primes[0]) == 1


def test_hilbert_symbol_classics():
    p2 = Q.splitting(2).primes[0]
    for a in (-7, -5, -3, -1, 1, 2, 3, 5, 6, 10):
        for b in (-6, -1, 2, 3, 5, 7):
            got = hilbert_symbol(Q, Q.elem(a), Q.elem(b), p2)
            assert got == hilbert_symbol_2adic_oracle(a, b), (a, b)


def test_hilbert_symbol_product_formula():
    # product over all places is 1
    for (a, b) in ((-5, 3), (2, -15), (-21, 10), (6, -35)):
        prod = hilbert_symbol(Q, Q.elem(a), Q.elem(b), 0)
        for p in {2, 3, 5, 7} | set(prime_divisors(a)) | set(prime_divisors(b)):
            pr = Q.splitting(p).primes[0]
            prod *= hilbert_symbol(Q, Q.elem(a), Q.elem(b), pr)
        assert prod == 1, (a, b)


def test_hilbert_symbol_real_quadratic_product_formula():
    F = F2
    vals = [F.elem(3, 1), F.elem(-1), F.elem(1, 1), F.elem(7), F.elem(-5, 1)]
    for s in vals:
        for d in vals:
            if s.is_zero() or d.is_zero():
                continue
            prod = 1
            for i in range(2):
                prod *= hilbert_symbol(F, s, d, i)
            ps = set(prime_divisors((s.norm() * d.norm() * 2).numerator))
            for p in sorted(ps | {2}):
                for pr in F.splitting(p).primes:
                    prod *= hilbert_symbol(F, s, d, pr)
            assert prod == 1, (s, d)


def _two_adic_args(draw, F, fractional):
    """s or d: a unit of F or a small element, times a power of a uniformizer
    at a prime above 2 (odd and even valuations there), over an optional
    denominator."""
    if draw(st.booleans()):
        x = draw(st.sampled_from([F.one(), -F.one(), F.eps, -F.eps]))
    else:
        a = draw(st.integers(-30, 30))
        b = draw(st.integers(-30, 30)) if F.n == 2 else 0
        assume(a or b)
        x = F.elem(a, b)
    g = draw(st.sampled_from(F.splitting(2).primes)).second_gen
    for _ in range(draw(st.integers(0, 3))):
        x = x * g
    if fractional:
        x = x / F.elem(draw(st.sampled_from([1, 2, 3, 4, 6])))
    return x


@st.composite
def _symbol_pairs(draw, F, fractional):
    s = _two_adic_args(draw, F, fractional)
    kind = draw(st.sampled_from(["independent", "equal", "negated"]))
    if kind == "equal":
        return s, s
    if kind == "negated":
        return s, -s
    return s, _two_adic_args(draw, F, fractional)


# examples per field: the enumeration takes up to a few seconds a pair where
# 2 is inert (residue field F_4) and must escalate
@pytest.mark.parametrize("m, examples", [(None, 60), (2, 40), (3, 40), (5, 10), (13, 10), (17, 60)])
def test_dyadic_symbol_matches_enumeration(m, examples):
    """The closed forms at primes above 2 against the certified residue
    enumeration: reciprocity where 2 has one prime (Q, and m = 2, 3, 5, 13),
    the Q_2 formula where it splits (m = 17).  The enumeration cannot clear a
    denominator at a split prime, so arguments are integral there."""
    F = make_field(1) if m is None else make_field(2, m)
    primes = F.splitting(2).primes

    @settings(max_examples=examples, deadline=None)
    @given(_symbol_pairs(F, fractional=len(primes) == 1), st.sampled_from(primes))
    def check(pair, pr):
        s, d = pair
        assert hilbert_symbol(F, s, d, pr) == twoadic_symbol_by_enumeration(F, s, d, pr)

    check()


def test_split_two_symbol_of_rationals_is_the_q2_symbol():
    """Over Q(sqrt17) both completions at 2 are Q_2, so rational arguments get
    the symbol of Q_2 at each prime, with denominators at 2 too: (1/2, 3) is
    (2, 3), since 1/2 is 2 times a square."""
    F = make_field(2, 17)
    args = [Fraction(1, 2), Fraction(3), Fraction(-5, 4), Fraction(6), Fraction(-1), Fraction(7, 8)]
    for pr in F.splitting(2).primes:
        for a in args:
            for b in args:
                want = hilbert_symbol_2adic_oracle(a.numerator * a.denominator, b.numerator * b.denominator)
                assert hilbert_symbol(F, F.elem(a), F.elem(b), pr) == want, (a, b)


def test_split_two_product_formula():
    """Over Q(sqrt17), where 2 splits, reciprocity is not how the symbols at 2
    are computed, so the product over all places tests them.  The arguments
    include g/conj(g) for a uniformizer g at 2, of norm 1 but valuation +1 and
    -1 at the two primes above 2."""
    F = make_field(2, 17)
    g = F.splitting(2).primes[0].second_gen
    vals = [
        F.elem(3, 1),
        F.elem(-1),
        F.eps,
        F.elem(1, 1),
        F.elem(-5, 1),
        F.elem(Fraction(1, 2)),
        F.elem(Fraction(5, 4), Fraction(-3, 2)),
        g,
        -g * g,
        g / g.conj(),
        F.elem(Fraction(7, 6), 1),
    ]
    for s in vals:
        for d in vals:
            prod = hilbert_symbol(F, s, d, 0) * hilbert_symbol(F, s, d, 1)
            primes = list(F.splitting(2).primes)
            for x in (s, d):
                primes += [pr for pr, _ in F.ideal(x).factor() if pr not in primes]
            for pr in primes:
                prod *= hilbert_symbol(F, s, d, pr)
            assert prod == 1, (s, d)


def test_genus_char_independence():
    # e_5 of 2x^2+2xy+3y^2 computed from different represented values agree
    p5 = Q.splitting(5).primes[0]
    d = Q.elem(-20)
    assert hilbert_symbol(Q, Q.elem(2), d, p5) == hilbert_symbol(Q, Q.elem(3), d, p5)
    f = make_form(Q, 2, 2, 3)
    K5 = make_cm(Q, -5)
    assert genus_char(f, K5, p5) == -1


def test_genus_product_one_for_norm_forms():
    for delta in (-5, -23, -105, -21):
        K = make_cm(Q, delta)
        cd = K.class_data()
        for rep in cd.reps:
            f = ideal_to_form(K, rep)
            gv = genus_vector(f, K)
            assert math.prod(gv.values()) == 1


def test_unramified_characters_trivial():
    K = make_cm(Q, -5)
    f = ideal_to_form(K, K.maximal_order())
    for p in (3, 7, 11, 13):
        pr = Q.splitting(p).primes[0]
        assert genus_char(f, K, pr) == 1


def test_representability():
    K1 = make_cm(Q, -1)
    assert representable_criterion(K1, Q.elem(5))
    assert not representable_criterion(K1, Q.elem(3))
    K5 = make_cm(Q, -5)
    assert representable_criterion(K5, Q.elem(9))
    Qf, A, gamma, xy = represent_search(K1, Q.elem(5))
    assert Qf.value(*xy) == Q.elem(5)
    Qf, A, gamma, xy = represent_search(K5, Q.elem(9))
    assert Qf.value(*xy) == Q.elem(9)


def test_prescribe_genus_disc20():
    K5 = make_cm(Q, -5)
    reals, primes = genus_places(K5)
    keys = [("inf", i) for i in reals] + [("p", pr.p, str(pr.second_gen)) for pr in primes]
    all_plus = {k: 1 for k in keys}
    Qf, e0 = prescribe_genus(K5, all_plus)
    gv = genus_vector(Qf, K5)
    assert all(gv[k] == 1 for k in keys)
    flipped = dict(all_plus)
    flipped[keys[1]] = -1
    flipped[keys[2]] = -1
    Qf2, e02 = prescribe_genus(K5, flipped)
    assert genus_vector(Qf2, K5) == flipped
    bad = dict(all_plus)
    bad[keys[0]] = -1
    with pytest.raises(ValueError):
        prescribe_genus(K5, bad)


def test_lower_bound_t():
    assert lower_bound_t(make_cm(Q, -1)) == (1, 1)
    assert lower_bound_t(make_cm(Q, -5)) == (2, 2)
    assert lower_bound_t(make_cm(Q, -105)) == (4, 8)
    # equality witnesses for t = 1..4
    for delta, t in ((-1, 1), (-5, 2), (-30, 3), (-105, 4)):
        tt, bound = lower_bound_t(make_cm(Q, delta))
        assert tt == t
        assert class_counts(make_cm(Q, delta))[0] >= bound


def test_minimal_line_counts():
    assert len(minimal_lines(make_form(Q, 1, 0, 5))) == 1
    assert len(minimal_lines(make_form(Q, 2, 1, 3))) == 1
    assert len(minimal_lines(make_form(Q, 1, 0, 1))) == 0


def test_minimal_line_random_never_two():
    import random

    rng = random.Random(11)
    count = 0
    for _ in range(200):
        a = 1 + rng.randrange(6)
        b = rng.randrange(-6, 7)
        c = 1 + rng.randrange(8)
        f = make_form(Q, a, b, c)
        d = f.field_disc()
        if d.is_zero() or not d.is_totally_negative():
            continue
        minimal_lines(f)  # raises LemmaViolation if more than one
        count += 1
    assert count > 80


def test_scaling_lemma_on_value_ideals():
    # I(Q, a*N) = a^2 I(Q, N) realized through the form scaled module
    f = make_form(Q, 2, 1, 3)
    base = f.disc_ideal()
    g = make_form(Q, 2, 1, 3, Q.ideal(5))
    assert g.disc_ideal() == base * Q.ideal(25)


def test_real_quadratic_correspondence_small():
    F = F2
    K = make_cm(F, F.elem(-5))
    cd = K.class_data()
    strong, weak = classify(K)
    assert len(weak) == cd.orbits
    for Qf in weak:
        assert Qf.is_positive_definite()
        assert is_fundamental(Qf)


def test_value_ideal_scaling():
    # I(Q, a N) = a^2 I(Q, N) on the line through (x, y)
    from relclass.constructions import _line_colon
    from fractions import Fraction

    f = make_form(Q, 2, 1, 3)
    x, y = Q.elem(1), Q.elem(1)
    b = _line_colon(Q, f, x, y)
    I = Q.ideal(f.value(x, y)) * (b * b)
    x2, y2 = Q.elem(3), Q.elem(3)  # the line scaled by (3)
    b2 = _line_colon(Q, f, x2, y2)
    I2 = Q.ideal(f.value(x2, y2)) * (b2 * b2)
    assert I2 == I  # same saturated line, same value ideal
    # a non-saturated sub-line scales by the square
    g = make_form(Q, 2, 1, 3, Q.ideal(5))
    assert g.disc_ideal() == f.disc_ideal() * Q.ideal(25)


def test_strong_count_reaches_genus_bound():
    K5 = make_cm(Q, -5)
    strong, weak = classify(K5)
    t = len(K5.rel_disc_primes)
    n = 1
    # all sign systems realized implies at least 2^(t+n-1) strong refinements
    assert len(strong) >= 2 ** (t + n - 1)


def test_unit_square_representatives():
    F2l = make_field(2, 2)
    from relclass.forms import _unit_square_reps

    reps = _unit_square_reps(F2l)
    assert len(reps) == F2l.unit_sq_index == 4
    one, minus, eps, meps = reps
    assert eps == F2l.eps and minus == -F2l.one()
