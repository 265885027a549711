import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import cholesky_rational, reduced_gram, scaled_gram
from oracles import lll_reduce_gram as lll_reference
from oracles import short_vectors as short_vectors_reference

from relclass.lattice import lll_reduce_gram, short_vectors

DENOMINATORS = (1, 2, 3, 12, 360)


@st.composite
def gram_and_bound(draw):
    """A positive definite integer Gram matrix G = A A^T + I of dimension 2-4,
    and a bound B; G >= I keeps every coordinate of x^T G x <= B within sqrt(B)."""
    n = draw(st.integers(2, 4))
    A = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
    G = [
        [sum(A[i][k] * A[j][k] for k in range(n)) + (i == j) for j in range(n)]
        for i in range(n)
    ]
    return G, draw(st.integers(1, 16))


def _brute_force(G, B):
    n = len(G)
    r = math.isqrt(B)
    found = set()
    for x in itertools.product(range(-r, r + 1), repeat=n):
        if any(x) and sum(x[i] * G[i][j] * x[j] for i in range(n) for j in range(n)) <= B:
            found.add(max(x, tuple(-a for a in x)))
    return sorted(found)


def _integer_lll(gram):
    """The integer LLL on a rational Gram matrix, in the terms of the
    Fraction references: lll_reduce_gram runs on (D, D * gram), D the lcm
    of the denominators (oracles.scaled_gram), and its result comes back as
    (reduced Gram over D as Fractions, U), the pair that the references
    return and that oracles.short_vectors takes, followed by the LLLData
    itself for short_vectors."""
    red = lll_reduce_gram(scaled_gram(gram))
    return [[Fraction(x, red.D) for x in row] for row in reduced_gram(red)], red.U, red


@settings(max_examples=60, deadline=None)
@given(gram_and_bound())
def test_short_vectors_match_brute_force(gb):
    G, B = gb
    assert short_vectors(lll_reduce_gram((1, G)), B) == _brute_force(G, B)


@st.composite
def rational_gram(draw):
    """A positive definite Gram matrix L diag(B) L^T of dimension 2-4 whose
    entries have denominators from DENOMINATORS.  L is unit lower triangular
    and its entries are often half-integers, so |mu| = 1/2 ties come up in
    the size reductions."""
    n = draw(st.integers(2, 4))
    den = st.sampled_from(DENOMINATORS)
    entry = st.one_of(st.builds(Fraction, st.integers(-7, 7), st.just(2)),
                      st.builds(Fraction, st.integers(-40, 40), den))
    B = [draw(st.builds(Fraction, st.integers(1, 60), den)) for _ in range(n)]
    L = [[draw(entry) if j < i else Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    return [[sum(L[i][k] * B[k] * L[j][k] for k in range(n)) for j in range(n)] for i in range(n)]


def _as_fractions(rows):
    return [[Fraction(x) for x in row] for row in rows]


TIES = [
    [[2, 1], [1, 2]],  # A2: mu = 1/2 at the first step
    [[2, -1], [-1, 2]],
    [[4, 2, 2], [2, 4, 2], [2, 2, 4]],
    [[2, 1, 1, 1], [1, 2, 1, 1], [1, 1, 2, 1], [1, 1, 1, 2]],
    [[Fraction(1, 3), Fraction(1, 6)], [Fraction(1, 6), Fraction(361, 360)]],
]


@settings(max_examples=150, deadline=None)
@given(rational_gram())
@example(_as_fractions(TIES[0]))
@example(_as_fractions(TIES[1]))
@example(_as_fractions(TIES[2]))
@example(_as_fractions(TIES[3]))
@example(TIES[4])
def test_lll_matches_fraction_reference(gram):
    assert _integer_lll(gram)[:2] == lll_reference(gram)


@st.composite
def gram_and_rational_bounds(draw):
    """A rational Gram matrix and two bounds a small multiple of its first
    minimum: one on a grid of step 1, 1/3 or 2^-20 (as unit_window and the
    form windows round), and one equal to the norm of a short vector, so
    that the boundary of x^T G x <= bound is hit."""
    gram = draw(rational_gram())
    G, U, red = _integer_lll(gram)
    cap = G[0][0] * draw(st.integers(1, 6))
    den = draw(st.sampled_from((1, 3, 2**20)))
    grid = Fraction(math.floor(cap * den * draw(st.fractions(0, 1))), den)
    vecs = short_vectors_reference((G, U), cap)
    v = vecs[draw(st.integers(0, len(vecs) - 1))]
    n = len(gram)
    norm = sum(v[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))
    return (G, U, red), grid, v, norm


@settings(max_examples=100, deadline=None)
@given(gram_and_rational_bounds())
def test_short_vectors_match_fraction_reference(data):
    """The enumeration on the LLL's own LDL^T data against the Fraction
    enumeration on the reduced Gram matrix."""
    (G, U, red), grid, v, norm = data
    below = norm - Fraction(1, 2**40)
    for bound in (grid, norm, below):
        assert short_vectors(red, bound) == short_vectors_reference((G, U), bound)
    assert v in short_vectors(red, norm) and v not in short_vectors(red, below)


def _det(M):
    if len(M) == 1:
        return M[0][0]
    return sum((-1) ** j * M[0][j] * _det([row[:j] + row[j + 1:] for row in M[1:]])
               for j in range(len(M)))


@settings(max_examples=100, deadline=None)
@given(rational_gram())
def test_lll_result_is_reduced(gram):
    G, U, red = _integer_lll(gram)
    n = len(gram)
    assert G == [[sum(U[i][a] * gram[a][b] * U[j][b] for a in range(n) for b in range(n))
                  for j in range(n)] for i in range(n)]
    assert abs(_det(U)) == 1
    d, mu = cholesky_rational(G)
    assert all(abs(mu[i][j]) <= Fraction(1, 2) for i in range(n) for j in range(i))
    assert all(d[k] >= (Fraction(99, 100) - mu[k][k - 1] ** 2) * d[k - 1] for k in range(1, n))
    # the returned LDL^T data is the reduced Gram matrix's: d[k] the leading
    # minors of D * G, lam[k][j] = d[j+1] mu[k][j]
    scale = 1
    for k in range(n):
        scale *= red.D * d[k]
        assert red.d[k + 1] == scale
        assert all(red.lam[k][j] == red.d[j + 1] * mu[k][j] for j in range(k))


@pytest.mark.parametrize(
    "gram", [[[1, 2], [2, 1]], [[1, 1], [1, 1]], [[0]], [[2, 0, 1], [0, 1, 0], [1, 0, -3]]]
)
def test_lll_rejects_gram_not_positive_definite(gram):
    with pytest.raises(ValueError):
        lll_reduce_gram((1, gram))
