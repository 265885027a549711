import itertools
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from relclass.lattice import lll_reduce_gram, short_vectors


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


@settings(max_examples=60, deadline=None)
@given(gram_and_bound())
def test_short_vectors_match_brute_force(gb):
    G, B = gb
    gram = [[Fraction(a) for a in row] for row in G]
    assert short_vectors(lll_reduce_gram(gram), B) == _brute_force(G, B)
