import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foursub.errors import DimensionMismatch, NotSquare, ReducibleModulus
from foursub.fields import GF, QQ, Poly, parse_poly
from foursub.matrices import (
    Matrix,
    column_echelon,
    column_span_basis,
    companion,
    direct_sum,
    hstack,
    i_down,
    i_left,
    i_right,
    i_up,
    inverse,
    is_invertible,
    jordan_plus,
    kernel_basis,
    min_poly,
    poly_eval_matrix,
    random_invertible,
    random_matrix,
    reduce_rows,
    rref,
    solve,
    vstack,
)

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)


def M(field, rows):
    return Matrix.from_rows(field, rows)


class TestBasics:
    def test_shape_checks(self):
        with pytest.raises(DimensionMismatch):
            Matrix(F2, 2, 2, [1, 0, 1])
        with pytest.raises(DimensionMismatch):
            M(F2, [[1, 0], [1]])

    def test_zero_dimensional(self):
        a = Matrix.zeros(F2, 0, 3)
        b = Matrix.zeros(F2, 3, 0)
        assert (a @ b).rows == 0 and (a @ b).cols == 0
        c = b @ a  # 3x0 @ 0x3 = 3x3 zero
        assert c == Matrix.zeros(F2, 3, 3)
        assert rref(a).rank == 0
        assert kernel_basis(a).cols == 3  # everything in the kernel
        assert kernel_basis(b).cols == 0

    def test_matmul_known(self):
        a = M(F5, [[1, 2], [3, 4]])
        b = M(F5, [[0, 1], [1, 0]])
        assert a @ b == M(F5, [[2, 1], [4, 3]])
        q = M(QQ, [[Fraction(1, 2), 1]])
        r = M(QQ, [[2], [Fraction(1, 3)]])
        assert (q @ r).entries == (Fraction(4, 3),)

    def test_immutable_and_hashable(self):
        a = M(F2, [[1, 0], [0, 1]])
        with pytest.raises(AttributeError):
            a.rows = 3
        assert len({a, Matrix.identity(F2, 2)}) == 1

    def test_transpose(self):
        a = M(F3, [[1, 2, 0], [0, 1, 1]])
        assert a.transpose() == M(F3, [[1, 0], [2, 1], [0, 1]])
        assert a.transpose().transpose() == a


class TestRref:
    def test_known_f2(self):
        a = M(F2, [[1, 1, 0], [1, 0, 1], [0, 1, 1]])
        red, rank, pivots = rref(a)
        assert rank == 2
        assert pivots == (0, 1)
        assert red == M(F2, [[1, 0, 1], [0, 1, 1], [0, 0, 0]])

    def test_known_q(self):
        a = M(QQ, [[2, 4], [1, 3]])
        red, rank, pivots = rref(a)
        assert rank == 2
        assert red == Matrix.identity(QQ, 2)

    def test_idempotent_and_cached(self):
        a = M(F3, [[1, 2], [2, 1], [0, 1]])
        red = rref(a).reduced
        assert rref(red).reduced == red
        assert rref(a) is rref(a)

    def test_kernel_known(self):
        assert kernel_basis(Matrix.identity(F3, 3)).cols == 0
        k = kernel_basis(M(F2, [[1, 1]]))
        assert k == M(F2, [[1], [1]])
        k2 = kernel_basis(Matrix.zeros(F5, 0, 2))
        assert k2 == Matrix.identity(F5, 2)

    def test_kernel_columns_annihilated(self):
        rng = random.Random(7)
        for field in (F2, F5, QQ):
            for _ in range(10):
                a = random_matrix(field, rng.randrange(4), rng.randrange(4), rng)
                k = kernel_basis(a)
                assert a.rank + k.cols == a.cols
                assert (a @ k).is_zero


class TestSolveInverse:
    def test_solve_known(self):
        a = M(F5, [[1, 2], [3, 4]])
        b = M(F5, [[1], [0]])
        x = solve(a, b)
        assert x is not None and a @ x == b

    def test_solve_no_solution(self):
        a = M(F2, [[1, 0], [1, 0]])
        b = M(F2, [[1], [0]])
        assert solve(a, b) is None

    def test_solve_underdetermined_canonical(self):
        a = M(QQ, [[1, 1]])
        b = M(QQ, [[5]])
        assert solve(a, b) == M(QQ, [[5], [0]])  # free variable pinned to zero

    def test_inverse(self):
        a = M(F2, [[1, 1], [0, 1]])
        assert inverse(a) == a  # involution over F2
        assert inverse(M(F3, [[1, 2], [2, 1]])) is None  # det = 1-4 = 0 mod 3
        assert inverse(Matrix.zeros(QQ, 0, 0)) == Matrix.zeros(QQ, 0, 0)
        with pytest.raises(NotSquare):
            inverse(Matrix.zeros(F2, 1, 2))

    def test_inverse_roundtrip(self):
        rng = random.Random(3)
        for field in (F3, QQ):
            for n in (1, 2, 3, 4):
                a = random_invertible(field, n, rng)
                assert a @ inverse(a) == Matrix.identity(field, n)

    def test_is_invertible(self):
        assert is_invertible(Matrix.identity(F2, 3))
        assert not is_invertible(Matrix.zeros(F2, 2, 2))
        assert not is_invertible(Matrix.zeros(F2, 2, 3))


class TestBlocks:
    def test_hstack_vstack(self):
        a = M(F3, [[1], [2]])
        b = M(F3, [[0], [1]])
        assert hstack(a, b) == M(F3, [[1, 0], [2, 1]])
        assert vstack(a.transpose(), b.transpose()) == M(F3, [[1, 2], [0, 1]])
        with pytest.raises(DimensionMismatch):
            hstack(a, Matrix.zeros(F3, 3, 1))

    def test_direct_sum_with_zero_blocks(self):
        a = M(F2, [[1]])
        z = Matrix.zeros(F2, 0, 2)
        s = direct_sum(a, z, a)
        assert (s.rows, s.cols) == (2, 4)
        assert s == M(F2, [[1, 0, 0, 0], [0, 0, 0, 1]])

    def test_take_blocks(self):
        a = M(F5, [[1, 2, 3], [4, 0, 1]])
        assert a.take_rows(1, 2) == M(F5, [[4, 0, 1]])
        assert a.take_cols(1, 3) == M(F5, [[2, 3], [0, 1]])
        assert a.select_cols([2, 0]) == M(F5, [[3, 1], [1, 4]])

    def test_column_span(self):
        a = M(F2, [[1, 1, 0], [0, 0, 1]])
        assert column_span_basis(a) == M(F2, [[1, 0], [0, 1]])
        # same span, different generating sets
        b = M(F3, [[1, 2], [1, 2], [0, 0]])
        c = M(F3, [[2, 1], [2, 1], [0, 0]])
        assert column_echelon(b) == column_echelon(c)
        assert column_echelon(b).cols == 1


class TestCanonicalConstructors:
    def test_i_up_down(self):
        assert i_up(2, F2) == M(F2, [[0, 0], [1, 0], [0, 1]])
        assert i_down(2, F2) == M(F2, [[1, 0], [0, 1], [0, 0]])
        assert (i_up(0, F3).rows, i_up(0, F3).cols) == (1, 0)
        assert (i_down(0, F3).rows, i_down(0, F3).cols) == (1, 0)

    def test_i_left_right(self):
        assert i_left(1, QQ) == M(QQ, [[0, 1]])
        assert i_right(1, QQ) == M(QQ, [[1, 0]])
        assert (i_left(0, F2).rows, i_left(0, F2).cols) == (0, 1)
        # net effect of shift composed with co-shift
        assert i_left(1, QQ) @ i_up(1, QQ) == M(QQ, [[1]])

    def test_companion_frozen(self):
        assert companion(parse_poly(F3, "t-1"), 2) == M(F3, [[0, 2], [1, 2]])
        assert companion(parse_poly(QQ, "t^2+1"), 1) == M(QQ, [[0, -1], [1, 0]])
        assert companion(parse_poly(F2, "t^2+t+1"), 1) == M(F2, [[0, 1], [1, 1]])

    def test_companion_rejects_reducible(self):
        with pytest.raises(ReducibleModulus):
            companion(parse_poly(F2, "t^2+1"), 1)

    def test_companion_satisfies_its_polynomial(self):
        for field, text, s in [(F2, "t^2+t+1", 1), (F3, "t-1", 3), (QQ, "t^2-2", 2)]:
            p = parse_poly(field, text)
            c = companion(p, s)
            from foursub.fields import poly_power

            assert poly_eval_matrix(poly_power(p, s), c).is_zero
            assert min_poly(c) == poly_power(p, s)

    def test_jordan(self):
        j = jordan_plus(3, F2)
        assert j == M(F2, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        assert (j @ j @ j).is_zero
        assert not (j @ j).is_zero
        with pytest.raises(ValueError):
            jordan_plus(0, F2)


class TestMinPoly:
    def test_known(self):
        assert min_poly(Matrix.identity(F3, 4)) == parse_poly(F3, "t-1")
        assert min_poly(Matrix.zeros(F2, 2, 2)) == parse_poly(F2, "t")
        assert min_poly(jordan_plus(3, F5)) == parse_poly(F5, "t^3")
        assert min_poly(Matrix.zeros(QQ, 0, 0)) == Poly.one(QQ)

    def test_block_diagonal(self):
        a = direct_sum(Matrix.identity(F2, 1), jordan_plus(2, F2))
        # min poly = lcm(t-1, t^2) = t^3 + t^2 over F2
        assert min_poly(a) == parse_poly(F2, "t^3+t^2")

    def test_annihilates(self):
        rng = random.Random(11)
        for field in (F2, F3, QQ):
            for n in (1, 2, 3, 4):
                a = random_matrix(field, n, n, rng)
                mu = min_poly(a)
                assert mu.is_monic
                assert poly_eval_matrix(mu, a).is_zero


@pytest.mark.parametrize("field", [F2, F3, F5], ids=["F2", "F3", "F5"])
def test_poly_eval_matches_sum_of_powers(field):
    # sum_k c_k M^k with Matrix products, for sizes 0..6 and degrees 0..7;
    # degree 0 is a constant, and the zero polynomial gives the zero matrix
    rng = random.Random(field.p)
    for n in range(7):
        for degree in range(-1, 8):
            m = random_matrix(field, n, n, rng)
            top = [rng.randrange(1, field.p)] if degree >= 0 else []
            p = Poly.make(field, [rng.randrange(field.p) for _ in range(degree)] + top)
            want, power = Matrix.zeros(field, n, n), Matrix.identity(field, n)
            for c in p.coeffs:
                want = want + power.scale(c)
                power = power @ m
            got = poly_eval_matrix(p, m)
            assert (got.rows, got.cols) == (n, n)
            assert got == want


@pytest.mark.parametrize("field", [F3, F5], ids=["F3", "F5"])
def test_large_rref_matches_list_elimination(field):
    # past 400 entries rref reduces on an int64 array; the list-level
    # reduce_rows is the reference, on sparse and rank-deficient systems too
    rng = random.Random(field.p)
    for rows, cols, rank in [(21, 20, 20), (30, 40, 12), (45, 25, 25), (50, 50, 7)]:
        left = random_matrix(field, rows, rank, rng)
        right = random_matrix(field, rank, cols, rng)
        dense = left @ right
        sparse = Matrix(field, rows, cols, [x * (rng.random() < 0.3) for x in dense.entries])
        for m in (dense, sparse):
            work = [list(m.row(i)) for i in range(rows)]
            pivots = reduce_rows(work, field.p)
            reduced = Matrix(field, rows, cols, [x for r in work for x in r])
            assert rref(m) == (reduced, len(pivots), pivots)


@st.composite
def small_matrix(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    field = GF(p)
    rows = draw(st.integers(0, 4))
    cols = draw(st.integers(0, 4))
    entries = draw(
        st.lists(st.integers(0, p - 1), min_size=rows * cols, max_size=rows * cols)
    )
    return Matrix(field, rows, cols, entries)


@given(small_matrix())
@settings(deadline=None, max_examples=80)
def test_rank_equals_rank_of_transpose(m):
    assert m.rank == m.transpose().rank


@given(small_matrix())
@settings(deadline=None, max_examples=80)
def test_rref_fixes_rref(m):
    red = rref(m).reduced
    again, rank, pivots = rref(red)
    assert again == red
    assert rank == rref(m).rank and pivots == rref(m).pivot_cols
