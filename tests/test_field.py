import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import FElem as RefElem

from relclass.errors import MixedFields, NonSquarefree
from relclass.field import (
    FElem,
    FIdeal,
    class_group_F,
    elem_op,
    factor_prime,
    ideals_of_norm_up_to,
    make_field,
    primes_up_to,
)

Q = make_field(1)
F2 = make_field(2, 2)
F5 = make_field(2, 5)
F10 = make_field(2, 10)


def test_rational_field_conventions():
    assert Q.d_F == 1
    assert Q.h_F == 1
    assert Q.d0 == 0.0
    assert Q.regulator == 1.0
    assert Q.unit_sq_index == 2


def test_golden_ratio_field():
    assert F5.d_F == 5
    eps = F5.eps
    assert eps == F5.omega()  # (1 + sqrt 5)/2
    assert eps.norm() == -1


def test_nonsquarefree_rejected():
    with pytest.raises(NonSquarefree):
        make_field(2, 12)
    with pytest.raises(NonSquarefree):
        make_field(2, 9)


@pytest.mark.parametrize(
    "m,x,y",
    [(2, 2, 2), (3, 4, 2), (5, 1, 1), (13, 3, 1), (10, 6, 2), (7, 16, 6)],
)
def test_fundamental_units(m, x, y):
    # eps = (x + y sqrt m)/2
    F = make_field(2, m)
    u, v = F.eps._uv()
    assert (u, v) == (x, y)
    assert abs(F.eps.norm()) == 1


@pytest.mark.parametrize("m", range(2, 51))
def test_unit_is_fundamental_exhaustive(m):
    # no unit of smaller positive logarithmic height exists
    from relclass.field import is_squarefree

    if not is_squarefree(m):
        return
    F = make_field(2, m)
    u, v = F.eps._uv()
    for y in range(1, int(v)):
        for sgn in (-4, 4):
            t2 = m * y * y + sgn
            if t2 <= 0:
                continue
            x = int(t2**0.5)
            for xx in (x - 1, x, x + 1):
                if xx > 0 and xx * xx == t2:
                    if m % 4 == 1:
                        assert (xx - y) % 2 != 0
                    else:
                        assert xx % 2 != 0 or y % 2 != 0


def test_elem_ops():
    assert elem_op("trace", F2.omega()) == 0
    assert elem_op("norm", F2.elem(3, 1)) == 7
    assert not elem_op("is_totally_positive", F2.elem(1, 1))
    assert elem_op("is_totally_positive", F2.elem(3, 1))
    x = F5.elem(1, 2)
    assert elem_op("conj", elem_op("conj", x)) == x
    with pytest.raises(MixedFields):
        elem_op("add", F2.one(), F5.one())


def test_norm_multiplicative():
    xs = [F2.elem(a, b) for a in range(-3, 4) for b in range(-2, 3)]
    for x in xs[:20]:
        for y in xs[5:25]:
            assert (x * y).norm() == x.norm() * y.norm()


def test_division_exact():
    x = F5.elem(Fraction(3, 2), Fraction(-1, 3))
    y = F5.elem(2, 5)
    assert (x / y) * y == x
    q = Q.elem(7)
    assert (q / Q.elem(2)).a == Fraction(7, 2)


@pytest.mark.parametrize(
    "F,p,efs",
    [
        (F5, 5, [(2, 1)]),
        (F5, 11, [(1, 1), (1, 1)]),
        (F5, 2, [(1, 2)]),
        (Q, 7, [(1, 1)]),
        (F2, 2, [(2, 1)]),
        (F2, 7, [(1, 1), (1, 1)]),
        (F2, 3, [(1, 2)]),
    ],
)
def test_factor_prime(F, p, efs):
    st_ = factor_prime(F, p)
    assert sorted((pi.e, pi.f) for pi in st_.primes) == sorted(efs)
    assert st_.sum_ef() == F.n


def test_splitting_invariants_up_to_1000():
    for F in (Q, F2, F5):
        for p in primes_up_to(1000):
            st_ = F.splitting(p)
            assert st_.sum_ef() == F.n
            prod = 1
            for pi in st_.primes:
                prod *= pi.norm() ** pi.e
            assert prod == p**F.n


def test_second_gen_valuations():
    for F in (F2, F5):
        for p in primes_up_to(100):
            for pi in F.splitting(p).primes:
                assert F.ideal(pi.second_gen).valuation(pi) == 1


def test_class_groups():
    assert class_group_F(Q)[0] == 1
    assert class_group_F(F5)[0] == 1
    assert class_group_F(F10)[0] == 2
    assert make_field(2, 3).h_F == 1
    assert make_field(2, 13).h_F == 1


def test_ideal_norm_multiplicative():
    ideals = ideals_of_norm_up_to(F2, 20)
    for a in ideals[:8]:
        for b in ideals[:8]:
            assert (a * b).norm() == a.norm() * b.norm()


def test_ideal_inverse_and_powers():
    idl = F2.splitting(7).primes[0].ideal
    assert (idl * idl.inverse()) == F2.unit_ideal()
    assert (idl**3).norm() == 343


def test_ideal_conj_norm():
    for p in (7, 17, 23):
        for pi in F2.splitting(p).primes:
            assert pi.ideal.conj().norm() == pi.ideal.norm()


def test_principality():
    # Q(sqrt 10): the prime over 2 is not principal
    p2 = F10.splitting(2).primes[0]
    assert not p2.ideal.is_principal()
    p3 = F10.splitting(3).primes[0]
    assert not p3.ideal.is_principal()
    assert (p2.ideal * p3.ideal).is_principal()


def test_serialization_deterministic():
    s1 = F5.to_json()
    s2 = make_field(2, 5).to_json()
    assert s1 == s2
    data = json.loads(s1)
    assert data["dF"] == 5 and data["hF"] == 1


@settings(max_examples=40, deadline=None)
@given(
    a1=st.integers(-9, 9),
    b1=st.integers(-4, 4),
    a2=st.integers(-9, 9),
    b2=st.integers(-4, 4),
)
def test_norm_multiplicative_property(a1, b1, a2, b2):
    x = F5.elem(a1, b1)
    y = F5.elem(a2, b2)
    assert (x * y).norm() == x.norm() * y.norm()
    assert (x * y).conj() == x.conj() * y.conj()


def test_embedding_signs_exact():
    x = F2.elem(1, 1)  # 1 + sqrt 2
    assert x.embedding_sign(0) == 1
    assert x.embedding_sign(1) == -1
    y = F2.elem(0, 1)
    assert not y.is_totally_positive()
    assert F2.elem(3, 1).is_totally_positive()


def test_make_field_one_object_per_field():
    assert make_field(1) is make_field(1, None)
    assert make_field(2, 5) is make_field(2, m=5)


# -- the integer element kernel against the Fraction reference -------------------

REF_FIELDS = [make_field(1)] + [make_field(2, m) for m in (2, 3, 5, 13)]
NUMERATORS = st.integers(-(2**60), 2**60)
DENOMINATORS = st.sampled_from([1, 2, 3, 12, 360])


@st.composite
def coordinates(draw, F):
    a = Fraction(draw(NUMERATORS), draw(DENOMINATORS))
    b = Fraction(draw(NUMERATORS), draw(DENOMINATORS)) if F.n == 2 else Fraction(0)
    return a, b


@st.composite
def field_and_pair(draw):
    F = draw(st.sampled_from(REF_FIELDS))
    x = draw(coordinates(F))
    y = draw(st.one_of(coordinates(F), st.just(x), st.just((Fraction(0), Fraction(0)))))
    return F, x, y


def _agrees(z, ref):
    """The integer element equals the reference, coordinate for coordinate."""
    assert isinstance(z, FElem) and isinstance(ref, RefElem)
    assert (z.a, z.b) == (ref.a, ref.b)
    assert z.den > 0 and math.gcd(z.na, z.nb, z.den) == 1
    assert hash(z) == hash(ref)


@settings(max_examples=300, deadline=None)
@given(field_and_pair(), st.integers(-50, 50))
def test_elements_match_fraction_reference(case, k):
    F, (xa, xb), (ya, yb) = case
    x, y = FElem(F, xa, xb), FElem(F, ya, yb)
    rx, ry = RefElem(F, xa, xb), RefElem(F, ya, yb)
    _agrees(x, rx)
    _agrees(x + y, rx + ry)
    _agrees(x - y, rx - ry)
    _agrees(x * y, rx * ry)
    _agrees(-x, -rx)
    _agrees(x.conj(), rx.conj())
    _agrees(x + k, rx + k)
    _agrees(k - x, k - rx)
    _agrees(x * k, rx * k)
    if ry.is_zero():
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        _agrees(x / y, rx / ry)
        _agrees(k / y, k / ry)
    assert x.norm() == rx.norm() and x.trace() == rx.trace()
    for i in range(F.n):
        assert x.embedding_sign(i) == rx.embedding_sign(i)
        assert x.embed(i) == rx.embed(i)
    assert (x == y) == (rx == ry) and (x == k) == (rx == k)
    assert x.is_zero() == rx.is_zero() and x.is_integral() == rx.is_integral()
    assert repr(x) == repr(rx)
    r_eps = RefElem(F, F.eps.a, F.eps.b)
    for z, rz in ((x, rx), (x * x, rx * rx), (x * x * F.eps, rx * rx * r_eps)):
        root, ref_root = z.square_root(), rz.square_root()
        assert (root is None) == (ref_root is None)
        if root is not None:
            _agrees(root, ref_root)


def test_element_views_and_errors():
    F = make_field(2, 5)
    x = FElem(F, Fraction(3, 4), Fraction(-1, 6))
    assert (x.na, x.nb, x.den) == (9, -2, 12)
    assert (x.a, x.b) == (Fraction(3, 4), Fraction(-1, 6))
    with pytest.raises(AttributeError):
        x.a = Fraction(1)
    with pytest.raises(MixedFields):
        x + make_field(2, 13).one()
    with pytest.raises(ZeroDivisionError):
        x / F.zero()
    assert F.elem(2) == 2 and F.elem(Fraction(1, 2)) == 0.5 and x != None  # noqa: E711


@st.composite
def field_and_elem(draw):
    F = draw(st.sampled_from(REF_FIELDS))
    return F, FElem(F, *draw(coordinates(F)))


@settings(max_examples=300, deadline=None)
@given(field_and_elem(), st.integers(0, 1))
def test_embedding_floor_against_exact_signs(case, i):
    F, x = case
    i %= F.n
    k = x.embedding_floor(i)
    assert (x - k).embedding_sign(i) >= 0 and (x - k - 1).embedding_sign(i) < 0


def test_embedding_floor_where_floats_fail():
    x = F2.elem(0, -1)  # -sqrt 2: floor(v sqrt m) for v < 0 rounds away from zero
    assert (x.embedding_floor(0), x.embedding_floor(1)) == (-2, 1)
    # (1 + sqrt 2)^40 lies 4e-16 below an integer that a double rounds to
    y = F2.one()
    for _ in range(40):
        y = y * F2.elem(1, 1)
    t = y.trace()
    assert t.denominator == 1 and math.floor(y.embed(0)) == t
    assert y.embedding_floor(0) == t - 1 and y.embedding_floor(1) == 0
    assert (-y).embedding_floor(0) == -t
