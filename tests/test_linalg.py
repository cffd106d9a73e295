import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import naive_kernel, naive_rref, naive_span
from tautilt.errors import ContractViolation
from tautilt.linalg import (
    Matrix,
    Subspace,
    kernel_basis,
    rref_rank,
    solve_linear,
    subspace_complement,
    subspace_intersection,
    subspace_sum,
)


def M(rows):
    return Matrix.from_rows(rows)


def test_rref_identity():
    red, pivots, rank = rref_rank(Matrix.identity(2))
    assert red == Matrix.identity(2)
    assert pivots == [0, 1]
    assert rank == 2


def test_rref_zero():
    z = Matrix.zeros(3, 3)
    red, pivots, rank = rref_rank(z)
    assert red == z
    assert pivots == []
    assert rank == 0


def test_rref_rank_one():
    # hand elimination: second row is twice the first
    red, pivots, rank = rref_rank(M([[1, 2], [2, 4]]))
    assert red == M([[1, 2], [0, 0]])
    assert rank == 1
    assert pivots == [0]


def test_rref_clears_fractions():
    red, _, rank = rref_rank(M([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), 1]]))
    assert rank == 2
    assert red == Matrix.identity(2)


def test_solve_identity():
    b = M([[3], [5]])
    x, ker = solve_linear(Matrix.identity(2), b)
    assert x == b
    assert ker.is_zero()


def test_solve_underdetermined():
    # x1 + x2 = 2: one particular solution plus a 1-dim kernel
    a = M([[1, 1]])
    b = M([[2]])
    x, ker = solve_linear(a, b)
    assert a @ x == b
    assert ker.dim == 1
    assert ker.contains_vector([-1, 1])


def test_solve_inconsistent():
    a = M([[1], [1]])
    b = M([[0], [1]])
    x, ker = solve_linear(a, b)
    assert x is None
    assert ker.is_zero()


def test_solve_shape_contract():
    with pytest.raises(ContractViolation):
        solve_linear(M([[1, 2]]), M([[1], [2]]))


def test_kernel_identity_and_zero():
    assert kernel_basis(Matrix.identity(3)).is_zero()
    full = kernel_basis(Matrix.zeros(2, 4))
    assert full.dim == 4


def test_kernel_line():
    ker = kernel_basis(M([[1, 2]]))
    assert ker.dim == 1
    assert ker.contains_vector([-2, 1])


def test_zero_by_n_matrices_are_legal():
    a = Matrix(0, 3, [])
    assert kernel_basis(a).is_full()
    b = Matrix(3, 0, [])
    assert (b @ a).rows == 3 and (b @ a).cols == 3
    assert (b @ a).is_zero()


def test_subspace_canonical_equality():
    u = Subspace.from_rows(2, [[-2, 1]])
    v = Subspace.from_rows(2, [[4, -2]])
    assert u == v


def test_subspace_ops_trivial_cases():
    u = Subspace.from_rows(2, [[1, 0]])
    s, i = subspace_sum(u, u), subspace_intersection(u, u)
    c = subspace_complement(u, s)
    assert s == u and i == u and c.is_zero()

    v = Subspace.from_rows(2, [[0, 1]])
    s, i = subspace_sum(u, v), subspace_intersection(u, v)
    assert s.is_full()
    assert i.is_zero()


def test_subspace_intersection_planes():
    u = Subspace.from_rows(3, [[1, 0, 0], [0, 1, 0]])
    v = Subspace.from_rows(3, [[0, 1, 0], [0, 0, 1]])
    assert subspace_intersection(u, v) == Subspace.from_rows(3, [[0, 1, 0]])


def test_complement_extends_to_ambient():
    u = Subspace.from_rows(3, [[1, 1, 0]])
    c = subspace_complement(u)
    assert subspace_sum(u, c).is_full()
    assert subspace_intersection(u, c).is_zero()


def test_subspace_ambient_contract():
    with pytest.raises(ContractViolation):
        subspace_sum(Subspace.zero(2), Subspace.zero(3))


def _random_matrix(rng, rows, cols, span=6):
    return Matrix.from_rows(
        [[Fraction(rng.randint(-span, span), rng.choice([1, 1, 2, 3])) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def test_rank_nullity_seeded():
    rng = random.Random(20240811)
    for _ in range(40):
        rows = rng.randint(0, 5)
        cols = rng.randint(0, 5)
        m = _random_matrix(rng, rows, cols)
        _, _, rank = rref_rank(m)
        assert rank + kernel_basis(m).dim == cols


def test_rref_idempotent_and_canonical():
    rng = random.Random(7)
    for _ in range(25):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols)
        red, _, rank = rref_rank(m)
        assert rref_rank(red)[0] == red
        # row-equivalent matrix: shuffle + add multiples of other rows
        lists = red.to_lists()[:rank] or [[0] * cols]
        mixed = [list(r) for r in lists]
        for i in range(len(mixed)):
            j = rng.randrange(len(mixed))
            if i != j:
                c = Fraction(rng.randint(1, 4), rng.randint(1, 3))
                mixed[i] = [a + c * b for a, b in zip(mixed[i], mixed[j])]
        rng.shuffle(mixed)
        assert rref_rank(Matrix.from_rows(mixed, cols=cols))[0] == rref_rank(Matrix.from_rows(lists, cols=cols))[0]


def test_dimension_formula_seeded():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(1, 5)
        u = Subspace.from_rows(n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))])
        v = Subspace.from_rows(n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))])
        s = subspace_sum(u, v)
        i = subspace_intersection(u, v)
        assert s.dim + i.dim == u.dim + v.dim
        assert s.contains(u) and s.contains(v)
        assert u.contains(i) and v.contains(i)


def test_exactness_no_epsilon():
    a = Fraction(3, 7)
    assert a * (1 / a) == 1
    m = M([[Fraction(1, 3), Fraction(1, 6)], [Fraction(1, 6), Fraction(1, 12)]])
    assert rref_rank(m)[2] == 1


def test_public_constructors_coerce_and_check():
    m = Matrix(2, 2, [1, "2/3", Fraction(-1, 2), 0])
    assert m.entries == (Fraction(1), Fraction(2, 3), Fraction(-1, 2), Fraction(0))
    assert all(type(x) is Fraction for x in m.entries)
    assert Matrix.from_rows([[3, "1/4"]]).entries == (Fraction(3), Fraction(1, 4))
    with pytest.raises(ContractViolation, match="needs 4 entries, got 3"):
        Matrix(2, 2, [1, 2, 3])
    with pytest.raises(ContractViolation, match="needs 0 entries"):
        Matrix(0, 3, [1])
    with pytest.raises(ContractViolation, match="ragged"):
        Matrix.from_rows([[1, 2], [3]])


# -- the integer-row core against a textbook Fraction Gauss-Jordan ------------

ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**20)),
)


@st.composite
def row_lists(draw, cols, max_rows=5):
    """Rows of width cols; some are combinations of the earlier ones, so that
    ranks drop below the row count."""
    out = []
    for _ in range(draw(st.integers(0, max_rows))):
        if out and draw(st.booleans()):
            coeffs = draw(st.lists(ENTRIES, min_size=len(out), max_size=len(out)))
            out.append([sum((c * row[j] for c, row in zip(coeffs, out)), Fraction(0))
                        for j in range(cols)])
        else:
            out.append(draw(st.lists(ENTRIES, min_size=cols, max_size=cols)))
    return out


@st.composite
def linalg_cases(draw):
    """(cols, rows of a, rows of b, rows of a second space over the same columns)."""
    cols = draw(st.integers(0, 5))
    a = draw(row_lists(cols))
    width = draw(st.integers(0, 2))
    if a and draw(st.booleans()):  # a consistent right-hand side a @ x
        x = draw(st.lists(st.lists(ENTRIES, min_size=width, max_size=width),
                          min_size=cols, max_size=cols))
        b = [[sum((r[t] * x[t][j] for t in range(cols)), Fraction(0)) for j in range(width)]
             for r in a]
    else:
        b = [draw(st.lists(ENTRIES, min_size=width, max_size=width)) for _ in a]
    return cols, a, b, draw(row_lists(cols))


def _greedy_complement(u_rows, v_rows, cols):
    picked, rank = [], len(naive_span(u_rows, cols))
    for cand in v_rows:
        if len(naive_span(u_rows + picked + [cand], cols)) > rank:
            picked.append(cand)
            rank += 1
    return naive_span(picked, cols)


def _fr(rows):
    return [[Fraction(x) for x in row] for row in rows]


# rref_rank returns reduced input as it is and runs the integer core on
# anything else; these pin both branches, including near misses of each rule
REDUCED = [
    (3, _fr([[1, 0, 0], [0, 1, 0], [0, 0, 1]])),                            # identity
    (4, _fr([[1, 2, 0, 3], [0, 0, 1, Fraction(-1, 2)], [0, 0, 0, 0], [0, 0, 0, 0]])),
    (4, []),                                                                # 0 x n
]
NEAR_MISSES = [
    (3, _fr([[2, 0, 1], [0, 1, 0]])),               # leading entry 2
    (3, _fr([[1, 1, 0], [0, 1, 0]])),               # nonzero entry above a pivot
    (3, _fr([[1, 0, 0], [0, 0, 0], [0, 1, 0]])),    # zero row between nonzero rows
    (3, _fr([[0, 1, 0], [1, 0, 0]])),               # decreasing pivots
]


def test_rref_returns_reduced_input_as_is():
    for cols, rows in REDUCED:
        m = Matrix.from_rows(rows, cols=cols)
        red, pivots, rank = rref_rank(m)
        assert red is m
        assert (red.to_lists(), pivots) == naive_rref(rows, cols) and rank == len(pivots)
    for cols, rows in NEAR_MISSES:
        m = Matrix.from_rows(rows, cols=cols)
        red, pivots, _ = rref_rank(m)
        assert red != m
        assert (red.to_lists(), pivots) == naive_rref(rows, cols)


@settings(max_examples=200, deadline=None)
@given(linalg_cases())
@example((0, [], [], []))
@example((3, [], [], []))
@example((3, REDUCED[0][1], [[]] * 3, REDUCED[0][1][1:]))
@example((4, REDUCED[1][1], _fr([[1], [2], [0], [0]]), REDUCED[1][1]))
@example((4, REDUCED[2][1], [], _fr([[1, 0, 0, 0]])))
@example((3, NEAR_MISSES[0][1], _fr([[1], [1]]), NEAR_MISSES[1][1]))
@example((3, NEAR_MISSES[1][1], [[], []], NEAR_MISSES[0][1]))
@example((3, NEAR_MISSES[2][1], _fr([[0], [1], [0]]), NEAR_MISSES[3][1]))
@example((3, NEAR_MISSES[3][1], [[], []], NEAR_MISSES[2][1]))
@example((0, [[], []], [[Fraction(1)], [Fraction(0)]], [[]]))
@example((2, [[Fraction(10**30, 7), Fraction(-1, 10**20)], [Fraction(2), Fraction(3, 5)]],
          [[Fraction(1)], [Fraction(2)]], [[Fraction(1, 3), Fraction(0)]]))
def test_linalg_matches_naive_gauss_jordan(case):
    cols, a_rows, b_rows, w_rows = case
    a = Matrix.from_rows(a_rows, cols=cols)
    ref, ref_pivots = naive_rref(a_rows, cols)

    red, pivots, rank = rref_rank(a)
    assert (red.rows, red.cols) == (a.rows, cols)
    assert red.to_lists() == ref
    assert pivots == ref_pivots and rank == len(ref_pivots)
    assert a.rank() == len(ref_pivots)
    assert kernel_basis(a).basis.to_lists() == naive_kernel(a_rows, cols)

    width = len(b_rows[0]) if b_rows else 0
    x, ker = solve_linear(a, Matrix.from_rows(b_rows, cols=width))
    aug_ref, aug_pivots = naive_rref([r + s for r, s in zip(a_rows, b_rows)], cols + width)
    if any(p >= cols for p in aug_pivots):
        assert x is None
    else:
        want = [[Fraction(0)] * width for _ in range(cols)]
        for r, p in enumerate(aug_pivots):
            want[p] = aug_ref[r][cols:]
        assert x is not None and x.to_lists() == want
    assert ker.basis.to_lists() == naive_kernel(a_rows, cols)

    u = Subspace.from_rows(cols, a_rows)
    w = Subspace.from_rows(cols, w_rows)
    u_basis, w_basis = naive_span(a_rows, cols), naive_span(w_rows, cols)
    assert u.basis.to_lists() == u_basis and w.basis.to_lists() == w_basis
    assert u.contains(w) == (len(naive_span(u_basis + w_basis, cols)) == len(u_basis))
    assert w.contains(u) == (len(naive_span(u_basis + w_basis, cols)) == len(w_basis))
    for vec in w_rows + a_rows:
        assert u.contains_vector(vec) == (len(naive_span(u_basis + [vec], cols)) == len(u_basis))

    both = naive_span(u_basis + w_basis, cols)
    assert subspace_complement(u, Subspace.from_rows(cols, both)).basis.to_lists() == \
        _greedy_complement(u_basis, both, cols)
    identity = [[Fraction(int(i == j)) for j in range(cols)] for i in range(cols)]
    assert subspace_complement(u).basis.to_lists() == _greedy_complement(u_basis, identity, cols)
