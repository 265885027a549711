from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import solve_integral

from relclass.intmat import echelon_solve, hnf_lattice, zspan_solve

ROW = st.lists(st.integers(-20, 20), min_size=4, max_size=4)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(ROW, min_size=1, max_size=5),
    st.lists(st.integers(-3, 3), min_size=5, max_size=5),
    st.lists(st.integers(-40, 40), min_size=4, max_size=4),
    st.booleans(),
)
def test_echelon_solve_matches_fraction_solve(vectors, coeffs, free, inside):
    rows = hnf_lattice(vectors)
    assume(rows)
    if inside:
        target = [sum(c * r[k] for c, r in zip(coeffs, rows)) for k in range(4)]
    else:
        target = free
    got = echelon_solve(rows, target)
    assert got == solve_integral(rows, target)
    if inside:
        assert got == coeffs[: len(rows)]
    if got is not None:
        assert [sum(c * r[k] for c, r in zip(got, rows)) for k in range(4)] == target


@settings(max_examples=200, deadline=None)
@given(st.lists(ROW, min_size=1, max_size=5), st.lists(st.integers(-40, 40), min_size=4, max_size=4))
def test_zspan_solve_finds_a_combination_exactly_on_the_span(vectors, target):
    sol = zspan_solve(vectors, target)
    span = hnf_lattice(vectors)
    in_span = not any(target) or (bool(span) and solve_integral(span, target) is not None)
    assert (sol is not None) == in_span
    if sol is not None:
        assert [sum(c * v[k] for c, v in zip(sol, vectors)) for k in range(4)] == target
