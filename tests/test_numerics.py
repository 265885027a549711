import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relclass.numerics import Interval

NAN = math.nan

EXACT = st.one_of(
    st.integers(-(2**70), 2**70),
    st.fractions(max_denominator=10**25).filter(lambda x: abs(x) < 2**70),
)


@pytest.mark.parametrize("endpoints", [(NAN, 1.0), (0.0, NAN), (NAN,)])
def test_interval_rejects_nan(endpoints):
    with pytest.raises(ValueError):
        Interval(*endpoints)


def _encloses(iv, x):
    return Fraction(iv.lo) <= x <= Fraction(iv.hi)


@settings(max_examples=300, deadline=None)
@given(EXACT, EXACT, st.sampled_from([operator.add, operator.sub, operator.mul]))
def test_exact_arithmetic_encloses_fraction_result(a, b, op):
    ia, ib = Interval.exact(a), Interval.exact(b)
    assert _encloses(ia, a) and _encloses(ib, b)
    assert _encloses(op(ia, ib), op(Fraction(a), Fraction(b)))
