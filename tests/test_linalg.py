"""Property tests of the two eliminations in ``flowfan.linalg`` and of the
functions that read their answers off them, against the oracle's own
independent ``Fraction`` elimination where one is needed."""

from fractions import Fraction
from math import gcd, lcm

from hypothesis import assume, given, settings, strategies as st

from flowfan.linalg import (dot, int_rank, integer_kernel, is_zero, primitive,
                            rref_int, solve_left, solve_left_many)
from flowfan.oracle import _kernel, _rank

# a fixed example sequence, so a run is reproducible and writes no database
SETTINGS = settings(deadline=None, derandomize=True, database=None)

BIG = 2**70  # entries beyond 2**64 exercise the arbitrary-precision path
entries = st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG))


@st.composite
def matrices(draw, max_rows=5, max_cols=5):
    """(ncols, rows) with some rows integer combinations of the others, so
    that rank-deficient matrices are common."""
    ncols = draw(st.integers(1, max_cols))
    row = st.tuples(*[entries] * ncols)
    rows = draw(st.lists(row, max_size=max_rows))
    if rows:
        for _ in range(draw(st.integers(0, 2))):
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows),
                                   max_size=len(rows)))
            rows.append(tuple(sum(c * r[j] for c, r in zip(coeffs, rows))
                              for j in range(ncols)))
    return ncols, draw(st.permutations(rows))


def _independent(rows, ncols):
    """A maximal linearly independent subset of the rows, by the oracle."""
    basis = []
    for r in rows:
        if _rank(basis + [r], ncols) > len(basis):
            basis.append(r)
    return basis


def _ints(vec):
    den = lcm(*(x.denominator for x in vec))
    return primitive([int(x * den) for x in vec])


@SETTINGS
@given(matrices())
def test_rref_int_rows_primitive_with_positive_pivots(m):
    ncols, rows = m
    r = rref_int(rows)
    pivots = [next(j for j, x in enumerate(row) if x != 0) for row in r]
    assert pivots == sorted(set(pivots))
    for row, p in zip(r, pivots):
        assert row[p] > 0
        assert gcd(*row) == 1
        assert all(other[p] == 0 for other in r if other is not row)


@SETTINGS
@given(matrices(), st.randoms(use_true_random=False),
       st.lists(st.integers(-5, 5).filter(bool), min_size=10, max_size=10),
       st.lists(st.integers(-3, 3), min_size=10, max_size=10))
def test_rref_int_depends_only_on_the_row_span(m, rng, scales, multiples):
    ncols, rows = m
    expected = rref_int(rows)
    moved = [tuple(s * x for x in r) for s, r in zip(scales, rows)]
    for i in range(1, len(moved)):
        j = rng.randrange(i)
        c = multiples[i]
        moved[i] = tuple(x + c * y for x, y in zip(moved[i], moved[j]))
    rng.shuffle(moved)
    assert rref_int(moved) == expected


@SETTINGS
@given(matrices())
def test_int_rank_matches_oracle(m):
    ncols, rows = m
    assert int_rank(rows) == _rank(rows, ncols)


@SETTINGS
@given(matrices(), st.lists(st.integers(-BIG, BIG), min_size=5, max_size=5))
def test_solve_left_round_trips(m, coeffs):
    ncols, rows = m
    rows = _independent(rows, ncols)
    coeffs = coeffs[:len(rows)]
    target = tuple(sum(c * r[j] for c, r in zip(coeffs, rows))
                   for j in range(ncols))
    assert solve_left(rows, target) == tuple(Fraction(c) for c in coeffs)
    # doubling the rows halves the coefficients, so fractions do occur
    doubled = [tuple(2 * x for x in r) for r in rows]
    assert solve_left(doubled, target) == tuple(Fraction(c, 2) for c in coeffs)


@SETTINGS
@given(matrices())
def test_solve_left_rejects_inconsistent_targets(m):
    ncols, rows = m
    ker = _kernel(rows, ncols)
    if ker:
        # a nonzero kernel vector is orthogonal to the row span, so it is
        # not in it, and neither is its sum with any vector of the span
        v = _ints(ker[0])
        shifted = tuple(x + y for x, y in zip(v, rows[0])) if rows else v
        assert solve_left(rows, v) is None
        assert solve_left(rows, shifted) is None
    if len(rows) > int_rank(rows):
        # dependent rows have no unique solution
        assert solve_left(rows, tuple(rows[0])) is None


@SETTINGS
@given(matrices(), st.lists(st.lists(st.integers(-3, 3), min_size=6, max_size=6),
                            max_size=6))
def test_solve_left_many_solves_each_target_alone(m, combos):
    # targets mix span vectors with vectors off the span, some of them
    # multiples or shifts of an earlier one, whose columns then hold no
    # pivot of their own; each entry must match the target's own system
    ncols, rows = m
    rows = _independent(rows, ncols)
    off = [_ints(v) for v in _kernel(rows, ncols)]
    pool = rows + off
    targets = [tuple(sum(c * r[j] for c, r in zip(combo, pool))
                     for j in range(ncols)) for combo in combos]
    got = solve_left_many(rows, targets)
    assert len(got) == len(targets)
    for target, sol in zip(targets, got):
        if _rank(rows + [target], ncols) > len(rows):
            assert sol is None
        else:
            assert sol is not None
            assert tuple(sum(c * r[j] for c, r in zip(sol, rows))
                         for j in range(ncols)) == target


def test_solve_left_many_examples():
    rows = [(1, 0, 0), (0, 1, 0)]
    # (0, 0, 2) has no pivot of its own, after (0, 0, 1)'s
    assert solve_left_many(rows, [(0, 0, 1), (0, 0, 2), (3, 1, 0), (1, 0, 1)]) == (
        None, None, (3, 1), None)
    assert solve_left_many([(2, 0), (0, 3)], [(1, 1)]) == (
        (Fraction(1, 2), Fraction(1, 3)),)
    # dependent rows leave every target unsolved
    assert solve_left_many([(1, 1), (2, 2)], [(1, 1), (0, 0)]) == (None, None)
    assert solve_left_many([], [(0, 0), (1, 0)]) == ((), None)
    assert solve_left_many(rows, []) == ()


@SETTINGS
@given(matrices(), st.lists(st.integers(-4, 4), min_size=5, max_size=5))
def test_integer_kernel_is_a_saturated_basis(m, combo):
    ncols, rows = m
    k = integer_kernel(rows, ncols)
    assert all(dot(r, x) == 0 for x in k for r in rows)
    assert len(k) == ncols - _rank(rows, ncols)
    assert int_rank(k) == len(k)
    ker = _kernel(rows, ncols)
    v = [sum((c * b[j] for c, b in zip(combo, ker)), Fraction(0))
         for j in range(ncols)]
    assume(not is_zero(v))
    # every primitive integer kernel vector is an integer combination
    sol = solve_left(k, _ints(v))
    assert sol is not None and all(x.denominator == 1 for x in sol)


def test_integer_kernel_examples():
    assert integer_kernel((), 2) == ((1, 0), (0, 1))
    assert integer_kernel([(1, 1)], 2) in (((1, -1),), ((-1, 1),))
    # (2, 0, -2), (0, 1, -2) span this kernel over Q but reach (1, 1, -3)
    # only with a half; a saturated basis reaches it with integers
    k = integer_kernel([(2, 4, 2)], 3)
    sol = solve_left(k, (1, 1, -3))
    assert sol is not None and all(x.denominator == 1 for x in sol)
