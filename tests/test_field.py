import itertools
import json
import math
from fractions import Fraction

import mpmath
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import FElem as RefElem
from oracles import FIdeal as RefIdeal

from relclass.cm import make_cm
from relclass.errors import MixedFields, NonSquarefree
from relclass.field import (
    FElem,
    FIdeal,
    factor_prime,
    fundamental_unit_xy,
    ideals_of_norm_up_to,
    is_squarefree,
    kronecker,
    make_field,
    omega_root,
    parity_applicable,
    primes_up_to,
    residue_char,
    splitting_37,
    surd_floor,
    surd_sign,
)

Q = make_field(1)
F2 = make_field(2, 2)
F5 = make_field(2, 5)
F10 = make_field(2, 10)


def test_parity_and_splitting_37():
    assert parity_applicable(Q)
    s, e, f = splitting_37(Q)
    assert (s, e, f) == (1, 1, 1)
    F3 = make_field(2, 3)
    assert parity_applicable(F3)  # 37 splits: s = 2 even
    assert not parity_applicable(F5)  # 37 inert: s = 1, n = 2
    assert not parity_applicable(F2)


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


def test_fundamental_unit_matches_the_scan():
    """The unit read off the cycle of the reduced principal form agrees with
    the y-scan for every squarefree m < 150, and gives m = 151, where the
    scan would step y up to 281269386."""
    for m in range(2, 150):
        if is_squarefree(m):
            assert fundamental_unit_xy(m) == oracles.fundamental_unit_by_scan(m), m
    x, y = fundamental_unit_xy(151)
    assert (x, y) == (3456296080, 281269386) and x * x - 151 * y * y in (4, -4)


def test_residue_char_and_omega_root_match_the_residue_field():
    """Over Q and Q(sqrt m), m in {2, 3, 5, 7, 13, 17, 19, 21}, at every prime
    above an odd p < 40: omega_root is a root of omega's minimal polynomial
    mod p^k at the residue of omega, and residue_char is the Legendre symbol
    of the residue field on small integral elements and on their quotients
    by 3 + omega, which put a split p into the denominator."""
    den_cases = 0
    for F in [Q] + [make_field(2, m) for m in (2, 3, 5, 7, 13, 17, 19, 21)]:
        small = {F.elem(a, b * (F.n - 1)) for a in range(-4, 5) for b in range(-4, 5)} - {F.zero()}
        small = sorted(small, key=FElem.coords)
        pool = small + [x / F.elem(3, F.n - 1) for x in small]
        for p in primes_up_to(39)[1:]:
            for pr in F.splitting(p).primes:
                rf = oracles.ResidueField(F, pr)
                if pr.f == 1:
                    unramified = pr.e == 1 and F.n == 2
                    for k in [1, 2, 3, 5] if unramified else [1]:
                        R = omega_root(pr, k)
                        assert 0 <= R < p**k and R % p == rf.omega_image
                        assert (R * R - F.c1 * R - F.c0) % p**k == 0
                for x in pool:
                    v = x.valuation(pr)
                    if v == 0:
                        assert residue_char(pr, x) == rf.legendre(rf.reduce(x)), (F, pr, x)
                        den_cases += x.den % p == 0
                    elif v > 0 and x.is_integral():
                        assert residue_char(pr, x) == 0
    assert den_cases > 0


def test_elem_ops():
    assert F2.omega().trace() == 0
    assert F2.elem(3, 1).norm() == 7
    assert not F2.elem(1, 1).is_totally_positive()
    assert F2.elem(3, 1).is_totally_positive()
    x = F5.elem(1, 2)
    assert x.conj().conj() == x
    with pytest.raises(MixedFields):
        F2.one() + F5.one()


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
    assert sum(pi.e * pi.f for pi in st_.primes) == F.n


def test_splitting_invariants_up_to_1000():
    for F in (Q, F2, F5):
        for p in primes_up_to(1000):
            st_ = F.splitting(p)
            assert sum(pi.e * pi.f for pi in st_.primes) == F.n
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
    assert Q.h_F == 1
    assert F5.h_F == 1
    assert F10.h_F == 2
    assert make_field(2, 3).h_F == 1
    assert make_field(2, 13).h_F == 1


@pytest.mark.parametrize("m,bound", [(10, 60), (79, 20), (82, 60)])
def test_inverse_class_matches_the_direct_test(m, bound):
    """The class index read on the reduced ideal x a^-1 is the j with
    a * class_reps[j] principal, tested on a itself, for every integral
    ideal of norm <= bound (the direct test is slow over Q(sqrt 79), whose
    unit is 80 + 9 sqrt 79)."""
    F = make_field(2, m)
    assert F.h_F > 1
    for a in ideals_of_norm_up_to(F, bound):
        want = [j for j, r in enumerate(F.class_reps) if oracles.principal_gen_by_scan(a * r) is not None]
        assert want == [F.inverse_class(a)], (F, a)


def test_principal_gen_matches_the_scan():
    """The cycle's verdict and generator are the r1 scan's on o_F and every
    integral ideal of norm <= 40 times the inverse of each class
    representative, and on their quotients by 2 and 3, over every squarefree
    m < 60."""
    for m in range(2, 60):
        if not is_squarefree(m):
            continue
        F = make_field(2, m)
        for a in [F.unit_ideal()] + ideals_of_norm_up_to(F, 40):
            for r in F.class_reps:
                b = a * r.inverse()
                for J in (b, b.scale(Fraction(1, 2)), b.scale(Fraction(1, 3))):
                    assert J.principal_gen() == oracles.principal_gen_by_scan(J), (F, J)


def test_class_number_formula():
    """h_F log eps = -1/2 sum_{0<a<d} chi_d(a) log sin(pi a/d), the analytic
    class number formula of a real quadratic field of discriminant d, for
    every squarefree m <= 200; m = 94 has eps = 2143295 + 221064 sqrt 94."""
    for m in range(2, 201):
        if not is_squarefree(m):
            continue
        F = make_field(2, m)
        d = F.d_F
        rhs = -sum(kronecker(d, a) * math.log(math.sin(math.pi * a / d)) for a in range(1, d)) / 2
        assert abs(F.h_F * F.regulator - rhs) < 1e-6, m


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


@settings(max_examples=400, deadline=None)
@given(
    st.integers(-(10**30), 10**30),
    st.one_of(st.just(0), st.integers(-(10**15), 10**15)),
    st.sampled_from([2, 3, 5, 6, 7, 13, 21, 33, 1, 4, 9, 49]),
    st.integers(1, 10**6),
)
def test_surd_kernel_against_fraction_and_mpmath(p, q, m, d):
    """floor((p + q sqrt m)/d) and sign(p + q sqrt m), with q < 0 and q = 0
    among them: against Fraction where q = 0 or m is a square, and elsewhere
    against 60 digits, which decide both because p + q sqrt m lies at least
    1/(2 |q| sqrt m) > 1e-17 from every integer."""
    k, sign = surd_floor(p, q, m, d), surd_sign(p, q, m)
    r = math.isqrt(m)
    if q == 0 or r * r == m:
        x = Fraction(p + q * r, d)
        assert k == math.floor(x) and sign == (x > 0) - (x < 0)
        return
    with mpmath.workdps(60):
        x = mpmath.mpf(p) + q * mpmath.sqrt(m)
        assert k == int(mpmath.floor(x / d)) and sign == (x > 0) - (x < 0)


def test_surd_kernel_at_the_edges():
    # q < 0 rounds floor(q sqrt m) away from zero, q = 0 is a rational floor
    assert surd_floor(0, -1, 2, 1) == -2 and surd_floor(0, 1, 2, 1) == 1
    assert surd_floor(-7, 0, 5, 2) == -4 and surd_floor(7, 0, 5, 2) == 3
    assert surd_floor(3, -2, 2, 1) == 0  # 3 - 2 sqrt 2 = 0.17...
    assert surd_sign(3, -2, 2) == 1 and surd_sign(-3, 2, 2) == -1 and surd_sign(0, 0, 2) == 0
    assert surd_sign(0, -1, 7) == -1 and surd_sign(-1, 0, 7) == -1
    # (1 + sqrt 2)^40 = p + q sqrt 2 lies 4e-16 below 2p, to which a double rounds
    p, q = 1, 0
    for _ in range(40):
        p, q = p + 2 * q, p + q
    assert math.floor(p + q * math.sqrt(2)) == 2 * p
    assert surd_floor(p, q, 2, 1) == 2 * p - 1 and surd_floor(p, -q, 2, 1) == 0
    assert surd_floor(-p, -q, 2, 1) == -2 * p


# -- the lattice ideal type against the FIdeal it replaced -----------------------

IDEAL_FIELDS = [make_field(1)] + [make_field(2, m) for m in (2, 3, 5, 10, 13)]


@st.composite
def small_elem(draw, F):
    a = Fraction(draw(st.integers(-30, 30)), draw(st.sampled_from([1, 2, 3, 6])))
    b = Fraction(draw(st.integers(-30, 30)), draw(st.sampled_from([1, 2, 5]))) if F.n == 2 else 0
    return FElem(F, a, b)


@st.composite
def field_and_ideals(draw):
    """A field, two generator lists (each spans a nonzero ideal, fractional
    when a denominator is drawn), an element and an integral element."""
    F = draw(st.sampled_from(IDEAL_FIELDS))
    gens = st.lists(small_elem(F), min_size=1, max_size=3).filter(
        lambda xs: any(not x.is_zero() for x in xs)
    )
    integral = FElem(F, draw(st.integers(-9, 9)), draw(st.integers(-9, 9)) if F.n == 2 else 0)
    return F, draw(gens), draw(gens), draw(small_elem(F)), integral


def _same(ideal, ref):
    assert isinstance(ideal, FIdeal) and isinstance(ref, RefIdeal)
    assert (ideal.num, ideal.den) == (ref.num, ref.den)
    assert hash(ideal) == hash(ref)


@settings(max_examples=150, deadline=None)
@given(field_and_ideals(), st.integers(-2, 3))
def test_ideals_match_reference(case, k):
    F, gens1, gens2, x, w = case
    a, b = FIdeal.from_generators(F, gens1), FIdeal.from_generators(F, gens2)
    ra, rb = RefIdeal.from_generators(F, gens1), RefIdeal.from_generators(F, gens2)
    _same(a, ra)
    _same(b, rb)
    _same(a * b, ra * rb)
    _same(a.conj(), ra.conj())
    _same(a.inverse(), ra.inverse())
    _same(a**k, ra**k)
    if not x.is_zero():
        _same(a * x, ra * x)
    assert a.norm() == ra.norm()
    y = gens1[0] * w  # in a
    for z in (x, y):
        assert a.contains(z) == ra.contains(z)
    assert a.contains(y)
    for p in (2, 3, 5, 7):
        for pr in F.splitting(p).primes:
            assert a.valuation(pr) == ra.valuation(pr)


@settings(max_examples=150, deadline=None)
@given(field_and_ideals())
def test_factor_recomposes(case):
    F, gens, *_ = case
    a = FIdeal.from_generators(F, gens)
    fac = a.factor()
    prod = F.unit_ideal()
    for pr, v in fac:
        assert v != 0 and v == a.valuation(pr)
        prod = prod * pr.ideal**v
    assert prod == a
    order = [(pr.p, F.splitting(pr.p).primes.index(pr)) for pr, _ in fac]
    assert order == sorted(order)


# -- intersection of ideals ------------------------------------------------------------

LCM_FIELDS = [make_field(1)] + [make_field(2, m) for m in (2, 3, 5, 6, 7, 10, 13, 17)]
LCM_CM_FIELDS = [
    make_cm(F, F.elem(a, b))
    for F, a, b in [(LCM_FIELDS[0], -5, 0), (LCM_FIELDS[0], -84, 0), (F2, -21, 0), (F5, -11, 0),
                    (make_field(2, 3), -7, -1)]
]


def _small_primes(F):
    return [pr for p in (2, 3, 5, 7) for pr in F.splitting(p).primes]


@st.composite
def prime_power_products(draw, primes, low=0):
    """The product of the given prime ideals with exponents in [low, 2]."""
    out = primes[0] ** 0
    for P in primes:
        out = out * P ** draw(st.integers(low, 2))
    return out


def _within(X, Y) -> bool:
    """X is contained in Y: each row of X over X.den lies in the lattice of
    Y over Y.den."""
    for r in X.num:
        scaled = [x * Y.den for x in r]
        if any(s % X.den for s in scaled):
            return False
        if not oracles.echelon_contains(Y.num, [s // X.den for s in scaled]):
            return False
    return True


def _check_intersection(A, B):
    """A & B lies in A and in B; over a common denominator d the integral
    ideals dA, dB satisfy dA dB in dA & dB = d(A & B), with equality to the
    product when their norms are coprime."""
    C = A & B
    assert _within(C, A) and _within(C, B)
    d = math.lcm(A.den, B.den)
    a, b = A.scale(d), B.scale(d)
    assert a & b == C.scale(d) == b & a
    assert _within(a * b, a & b)
    if math.gcd(int(a.norm()), int(b.norm())) == 1:
        assert a & b == a * b


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_intersection_is_the_lcm(data):
    """On integral ideals of Q and Q(sqrt m), products of the primes above
    2, 3, 5 and 7, A & B is the lcm from the factorisations; on fractional
    ideals of F and on ideals of CM fields it has the lattice properties of
    the intersection."""
    F = data.draw(st.sampled_from(LCM_FIELDS))
    primes = [pr.ideal for pr in _small_primes(F)]
    A, B = data.draw(prime_power_products(primes)), data.draw(prime_power_products(primes))
    assert A & B == oracles.ideal_lcm(F, A, B)
    _check_intersection(A, B)
    gens = st.lists(small_elem(F), min_size=1, max_size=3).filter(lambda xs: any(not x.is_zero() for x in xs))
    _check_intersection(FIdeal.from_generators(F, data.draw(gens)), FIdeal.from_generators(F, data.draw(gens)))
    K = data.draw(st.sampled_from(LCM_CM_FIELDS))
    kprimes = [kp.ideal for pr in _small_primes(K.F) for kp in K.primes_above(pr)]
    A, B = (data.draw(prime_power_products(kprimes, -1)).scale(Fraction(1, data.draw(st.integers(1, 3))))
            for _ in range(2))
    _check_intersection(A, B)


VALUATION_FIELDS = [make_field(1)] + [make_field(2, m) for m in (2, 3, 5, 13, 17)]


def _primes_of_each_kind(F):
    """The primes above the least split, inert and ramified p below 17 (over
    Q, the primes 2 and 3)."""
    kinds = {}
    for p in primes_up_to(17):
        primes = F.splitting(p).primes
        kind = "ramified" if primes[0].e == 2 else "inert" if primes[0].f == 2 else "split"
        kinds.setdefault(kind, primes)
    if F.n == 2:
        assert sorted(kinds) == ["inert", "ramified", "split"]
    else:  # every prime of Q splits: take 2 and 3
        kinds["split"] += F.splitting(3).primes
    return [pr for primes in kinds.values() for pr in primes]


@pytest.mark.parametrize("F", VALUATION_FIELDS, ids=lambda F: f"m={F.m}")
def test_valuation_shortcut_matches_repeated_inverse(F):
    """FIdeal.valuation, the least valuation of a basis element, against the
    oracle, which multiplies by P^-1 until the result is not integral; some
    cases have p | den with N(P) not dividing the norm of the numerator."""
    S = _primes_of_each_kind(F)
    skipped_with_p_in_den = 0
    for exps in itertools.product((-1, 0, 1), repeat=len(S)):
        idl = F.unit_ideal()
        for pr, k in zip(S, exps):
            idl = idl * pr.ideal**k
        for scale in (1, Fraction(1, S[0].p)):
            a = idl.scale(scale)
            ref = RefIdeal(F, [list(r) for r in a.num], a.den)
            nm = math.prod(r[i] for i, r in enumerate(a.num))
            for pr in S:
                assert a.valuation(pr) == ref.valuation(pr), (a, pr)
                if nm % pr.norm() and a.den % pr.p == 0:
                    skipped_with_p_in_den += 1
    assert skipped_with_p_in_den > 0


@pytest.mark.parametrize("F", VALUATION_FIELDS, ids=lambda F: f"m={F.m}")
def test_element_valuation_matches_ideal_valuation(F):
    """FElem.valuation, on integer coordinates, against the valuation of the
    principal ideal, at split, inert and ramified primes; the element is a
    power of one prime's second generator times a random element over a
    random denominator, so valuations of both signs occur."""
    S = _primes_of_each_kind(F)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(-300, 300),
        st.integers(-300, 300) if F.n == 2 else st.just(0),
        st.integers(1, 360),
        st.sampled_from(S),
        st.integers(0, 4),
    )
    def check(a, b, den, pr, k):
        x = F.elem(Fraction(a, den), Fraction(b, den))
        for _ in range(k):
            x = x * pr.second_gen
        if x.is_zero():
            with pytest.raises(ZeroDivisionError):
                x.valuation(pr)
            return
        for q in S:
            assert x.valuation(q) == F.ideal(x).valuation(q), (x, q)

    check()


def test_factor_of_norm_one_quotient():
    # P/P' over 7 in Q(sqrt 2) has norm 1: its primes divide no norm
    P, P2 = F2.splitting(7).primes
    idl = P.ideal * P2.ideal.inverse()
    assert idl.norm() == 1
    assert idl.factor() == [(P, 1), (P2, -1)]
    assert (P.ideal**2 * F2.ideal(Fraction(1, 6))).factor() == [
        (F2.splitting(2).primes[0], -2),
        (F2.splitting(3).primes[0], -1),
        (P, 2),
    ]


# The lists the recursion gave before one generator served F and K, keyed by
# (n, m), as the flattened HNF rows of each ideal (all have den = 1).
IDEALS_OF_NORM_UP_TO_60 = {
    (1, None): [(2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,), (10,), (11,), (12,), (13,), (14,),
         (15,), (16,), (17,), (18,), (19,), (20,), (21,), (22,), (23,), (24,), (25,), (26,),
         (27,), (28,), (29,), (30,), (31,), (32,), (33,), (34,), (35,), (36,), (37,), (38,),
         (39,), (40,), (41,), (42,), (43,), (44,), (45,), (46,), (47,), (48,), (49,), (50,),
         (51,), (52,), (53,), (54,), (55,), (56,), (57,), (58,), (59,), (60,)],
    (2, 2): [(2, 0, 0, 1), (2, 0, 0, 2), (1, 5, 0, 7), (1, 2, 0, 7), (4, 0, 0, 2), (3, 0, 0, 3),
         (2, 3, 0, 7), (2, 4, 0, 7), (4, 0, 0, 4), (1, 3, 0, 17), (1, 14, 0, 17), (6, 0, 0, 3),
         (1, 14, 0, 23), (1, 9, 0, 23), (5, 0, 0, 5), (2, 10, 0, 14), (2, 4, 0, 14),
         (1, 4, 0, 31), (1, 27, 0, 31), (8, 0, 0, 4), (2, 6, 0, 17), (2, 11, 0, 17),
         (6, 0, 0, 6), (1, 29, 0, 41), (1, 12, 0, 41), (2, 5, 0, 23), (2, 18, 0, 23),
         (1, 27, 0, 47), (1, 20, 0, 47), (1, 5, 0, 49), (7, 0, 0, 7), (1, 44, 0, 49),
         (10, 0, 0, 5), (4, 6, 0, 14), (4, 8, 0, 14)],
    (2, 5): [(2, 0, 0, 2), (1, 3, 0, 5), (3, 0, 0, 3), (1, 4, 0, 11), (1, 8, 0, 11), (4, 0, 0, 4),
         (1, 5, 0, 19), (1, 15, 0, 19), (2, 6, 0, 10), (5, 0, 0, 5), (1, 6, 0, 29),
         (1, 24, 0, 29), (1, 13, 0, 31), (1, 19, 0, 31), (6, 0, 0, 6), (1, 7, 0, 41),
         (1, 35, 0, 41), (2, 8, 0, 22), (2, 16, 0, 22), (3, 9, 0, 15), (7, 0, 0, 7),
         (1, 48, 0, 55), (1, 8, 0, 55), (1, 26, 0, 59), (1, 34, 0, 59)],
    (2, 10): [(2, 0, 0, 1), (1, 1, 0, 3), (1, 2, 0, 3), (2, 0, 0, 2), (5, 0, 0, 1), (2, 2, 0, 3),
         (2, 1, 0, 3), (4, 0, 0, 2), (1, 1, 0, 9), (3, 0, 0, 3), (1, 8, 0, 9), (10, 0, 0, 1),
         (2, 2, 0, 6), (2, 4, 0, 6), (1, 11, 0, 13), (1, 2, 0, 13), (5, 2, 0, 3), (5, 1, 0, 3),
         (4, 0, 0, 4), (2, 2, 0, 9), (6, 0, 0, 3), (2, 7, 0, 9), (10, 0, 0, 2), (4, 4, 0, 6),
         (4, 2, 0, 6), (5, 0, 0, 5), (2, 9, 0, 13), (2, 4, 0, 13), (1, 10, 0, 27), (3, 3, 0, 9),
         (3, 6, 0, 9), (1, 17, 0, 27), (10, 1, 0, 3), (10, 2, 0, 3), (1, 20, 0, 31),
         (1, 11, 0, 31), (8, 0, 0, 4), (2, 2, 0, 18), (6, 0, 0, 6), (2, 16, 0, 18),
         (1, 27, 0, 37), (1, 10, 0, 37), (1, 37, 0, 39), (1, 28, 0, 39), (1, 11, 0, 39),
         (1, 2, 0, 39), (20, 0, 0, 2), (1, 18, 0, 41), (1, 23, 0, 41), (1, 23, 0, 43),
         (1, 20, 0, 43), (5, 5, 0, 9), (15, 0, 0, 3), (5, 4, 0, 9), (4, 4, 0, 12),
         (4, 8, 0, 12), (7, 0, 0, 7), (10, 0, 0, 5), (2, 22, 0, 26), (2, 4, 0, 26),
         (1, 49, 0, 53), (1, 4, 0, 53), (2, 20, 0, 27), (6, 6, 0, 9), (6, 3, 0, 9),
         (2, 7, 0, 27), (10, 4, 0, 6), (10, 2, 0, 6)],
    (2, 13): [(1, 2, 0, 3), (3, 0, 0, 1), (2, 0, 0, 2), (1, 2, 0, 9), (3, 0, 0, 3), (3, 1, 0, 3),
         (2, 4, 0, 6), (6, 0, 0, 2), (1, 11, 0, 13), (4, 0, 0, 4), (1, 13, 0, 17),
         (1, 10, 0, 17), (1, 3, 0, 23), (1, 5, 0, 23), (5, 0, 0, 5), (1, 11, 0, 27),
         (3, 6, 0, 9), (9, 0, 0, 3), (3, 4, 0, 9), (1, 13, 0, 29), (1, 26, 0, 29),
         (2, 4, 0, 18), (6, 0, 0, 6), (6, 2, 0, 6), (1, 11, 0, 39), (3, 7, 0, 13),
         (1, 4, 0, 43), (1, 25, 0, 43), (4, 8, 0, 12), (12, 0, 0, 4), (7, 0, 0, 7),
         (1, 47, 0, 51), (1, 44, 0, 51), (3, 5, 0, 17), (3, 13, 0, 17), (2, 22, 0, 26),
         (1, 38, 0, 53), (1, 33, 0, 53)],
}


@pytest.mark.parametrize("n,m", list(IDEALS_OF_NORM_UP_TO_60))
def test_ideals_of_norm_up_to_pinned(n, m):
    got = ideals_of_norm_up_to(make_field(n, m), 60)
    assert all(idl.den == 1 for idl in got)
    assert [tuple(x for r in idl.num for x in r) for idl in got] == IDEALS_OF_NORM_UP_TO_60[n, m]

