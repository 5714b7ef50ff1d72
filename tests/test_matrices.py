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
    kernel_vectors,
    min_poly,
    poly_eval_matrix,
    random_invertible,
    random_matrix,
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

    def test_inverse_of_singular_is_none(self):
        # solve(m, I) alone decides singularity: no rank check runs first
        singular = [
            M(F2, [[1, 1], [1, 1]]),
            M(F2, [[1, 0, 1], [0, 1, 1], [1, 1, 0]]),
            M(F5, [[1, 2], [3, 1]]),  # det = 1 - 6 = 0 mod 5
            M(F5, [[0, 0, 0], [1, 2, 3], [4, 0, 1]]),
            M(QQ, [[Fraction(1, 2), 1], [1, 2]]),
            M(QQ, [[1, 2, 3], [4, 5, 6], [7, 8, 9]]),
            Matrix.zeros(QQ, 1, 1),
        ]
        for m in singular:
            assert inverse(m) is None, m
        for field in (F2, F5, QQ):
            assert inverse(Matrix.zeros(field, 0, 0)) == Matrix.zeros(field, 0, 0)

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

    def test_one_by_one_is_invertible_without_elimination(self, monkeypatch):
        # a 1 x 1 matrix is decided by its entry: no rref, no reduced Matrix
        cases = [(F2, 0), (F2, 1), (F5, 0), (F5, 3), (QQ, Fraction(0)), (QQ, Fraction(-2, 7))]
        ms = [(Matrix(field, 1, 1, [x]), bool(x)) for field, x in cases]

        def refuse(m):
            raise AssertionError("rref on a 1 x 1 matrix")

        def refuse_forward(f, rows):
            raise AssertionError(f"forward pass over {len(rows)} rows")

        monkeypatch.setattr("foursub.matrices.rref", refuse)
        monkeypatch.setattr("foursub.matrices.echelon", refuse_forward)
        for m, invertible in ms:
            assert is_invertible(m) is invertible
        with pytest.raises(AssertionError, match="forward pass over 2 rows"):
            is_invertible(Matrix.identity(F5, 2))  # larger ones still reduce


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


def _sympy_rref(m: Matrix) -> tuple:
    """rref by sympy's DomainMatrix, as (entries, pivot columns)."""
    from sympy import GF as SymGF, QQ as SymQQ
    from sympy.polys.matrices import DomainMatrix

    p = m.field.p
    if p is None:
        dom = SymQQ
        rows = [[dom(x.numerator, x.denominator) for x in m.row(i)] for i in range(m.rows)]
    else:
        dom = SymGF(p)
        rows = [[dom(x) for x in m.row(i)] for i in range(m.rows)]
    red, pivots = DomainMatrix(rows, (m.rows, m.cols), dom).rref()
    flat = [x for row in red.to_list() for x in row]
    if p is None:
        entries = tuple(Fraction(int(x.numerator), int(x.denominator)) for x in flat)
    else:
        entries = tuple(int(x) % p for x in flat)
    return entries, tuple(pivots)


def _wide_q_matrices(rng):
    """Seeded rational matrices past random_matrix's +-3/<=3 entries, as
    (label, columns, rows): numerators near 2^40 over denominators up to 10^6,
    negative pivots, duplicate and zero rows, integral rows mixed with
    fractional ones, rank-deficient products, and 0xn and nx0 shapes."""

    def wide():
        num = rng.choice((-1, 1)) * (2**40 + rng.randint(-10**6, 10**6))
        return Fraction(num, rng.randint(1, 10**6)) if rng.random() < 0.8 else Fraction(0)

    def small():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 7, 10**6)))

    cases = []
    for rows, cols in ((1, 1), (2, 3), (3, 2), (4, 4), (5, 7), (7, 5), (8, 8)):
        cases.append(("wide", cols, [[wide() for _ in range(cols)] for _ in range(rows)]))
        rank = max(1, min(rows, cols) - 2)
        a = [[wide() for _ in range(rank)] for _ in range(rows)]
        b = [[small() for _ in range(cols)] for _ in range(rank)]
        cases.append(("wide product", cols, [
            [sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a
        ]))
        negative = [[small() for _ in range(cols)] for _ in range(rows)]
        for j, row in enumerate(negative):
            row[min(j, cols - 1)] = -abs(wide()) or Fraction(-1)
        cases.append(("negative pivots", cols, negative))
        integral = [[Fraction(rng.randint(-2**40, 2**40)) for _ in range(cols)] for _ in range(rows)]
        cases.append(("integral", cols, integral))
        mixed = [row if k % 2 else [small() for _ in range(cols)] for k, row in enumerate(integral)]
        cases.append(("integral and fractional", cols, mixed))
        base = [[wide() for _ in range(cols)] for _ in range(rows)]
        dup = [list(base[0]), [Fraction(0)] * cols] + [list(r) for r in base] + [list(base[-1])]
        rng.shuffle(dup)
        cases.append(("duplicate and zero rows", cols, dup))
    cases.append(("zero", 4, [[Fraction(0)] * 4 for _ in range(3)]))
    cases.append(("0x4", 4, []))
    cases.append(("3x0", 0, [[], [], []]))
    return cases


def test_rref_q_matches_sympy_past_small_entries():
    # the rational elimination works on primitive integer rows; rref and
    # kernel_vectors must give sympy's exact forms, and rref Fractions only
    from sympy import Matrix as SymMatrix, Rational

    rng = random.Random(2026)
    for label, cols, data in _wide_q_matrices(rng):
        rows = len(data)
        m = Matrix(QQ, rows, cols, [x for row in data for x in row])
        sym = SymMatrix(rows, cols, [Rational(x.numerator, x.denominator) for x in m.entries])
        sym_red, sym_pivots = sym.rref()
        want = tuple(Fraction(int(x.p), int(x.q)) for x in sym_red)
        red, rank, pivots = rref(m)
        assert (red.entries, pivots, rank) == (want, sym_pivots, len(sym_pivots)), label
        # == cannot tell 0 from Fraction(0)
        assert all(type(x) is Fraction for x in red.entries), label
        assert all(type(x) is Fraction for x in column_echelon(m).entries), label
        kernel = [[Fraction(int(x.p), int(x.q)) for x in v] for v in sym.nullspace()]
        assert kernel_vectors(QQ, [list(row) for row in data], cols) == kernel, label


ELIMINATION_FIELDS = [F2, F3, F5, GF(1000003), QQ, GF(4294967311)]


def _elimination_cases(field, rng):
    """Seeded systems over field as (label, Matrix): dense, sparse,
    rank-deficient products (past 400 entries too), duplicate and zero
    rows, invertible squares, and 0xn, nx0 and zero matrices."""
    z = field.zero()
    cases = []
    shapes = [
        (1, 1, 1), (2, 3, 1), (3, 2, 2), (3, 5, 2), (6, 4, 4), (7, 7, 3), (12, 9, 5),
        (21, 20, 20), (25, 30, 6), (45, 25, 25), (50, 50, 7),
    ]
    for rows, cols, rank in shapes:
        dense = random_matrix(field, rows, cols, rng)
        cases.append(("dense", dense))
        sparse = [x if rng.random() < 0.3 else z for x in dense.entries]
        cases.append(("sparse", Matrix(field, rows, cols, sparse)))
        product = random_matrix(field, rows, rank, rng) @ random_matrix(field, rank, cols, rng)
        cases.append(("rank-deficient", product))
        masked = [x if rng.random() < 0.3 else z for x in product.entries]
        cases.append(("sparse rank-deficient", Matrix(field, rows, cols, masked)))
        dup = product.to_lists()
        dup += [list(dup[0]), [z] * cols, list(dup[-1])]
        rng.shuffle(dup)
        cases.append(("duplicate and zero rows", Matrix.from_rows(field, dup)))
    for n in (2, 3, 5, 8):
        cases.append(("invertible", random_invertible(field, n, rng)))
    for rows, cols in ((0, 4), (4, 0), (0, 0), (3, 4)):
        cases.append((f"zero {rows}x{cols}", Matrix.zeros(field, rows, cols)))
    return cases


def _system_rows(m: Matrix) -> list:
    """m's rows as kernel_vectors takes them: bitmasks over F_2, lists otherwise."""
    if m.field.p == 2:
        return [sum(1 << j for j in range(m.cols) if m.entry(i, j)) for i in range(m.rows)]
    return m.to_lists()


def _kernel_from_rref(field, entries, pivots, cols) -> list:
    """The canonical kernel basis read off a reduced form: 1 at one free
    column, minus that column's reduced entries at the pivots."""
    z, o = field.zero(), field.one()
    out = []
    for fc in range(cols):
        if fc in pivots:
            continue
        vec = [z] * cols
        vec[fc] = o
        for r, pc in enumerate(pivots):
            vec[pc] = field.neg(entries[r * cols + fc])
        out.append(vec)
    return out


@pytest.mark.parametrize("field", ELIMINATION_FIELDS, ids=lambda f: f.name)
def test_rref_matches_sympy(field):
    # the forward pass and back substitution against sympy's reduced form,
    # one row kind per field: bitmasks over F_2, residue lists over odd p
    # and integer rows over Q
    rng = random.Random(17)
    for label, m in _elimination_cases(field, rng):
        rows, cols = m.rows, m.cols
        entries, pivots = _sympy_rref(m)
        rank = len(pivots)
        red = rref(m)
        assert (red.reduced.entries, red.rank, red.pivot_cols) == (entries, rank, pivots), label
        want = _kernel_from_rref(field, entries, pivots, cols)
        got = kernel_vectors(field, _system_rows(m), cols)
        assert got == want, label
        if field.p is None:
            # == cannot tell 0 from Fraction(0)
            assert all(type(x) is Fraction for vec in got for x in vec), label
            assert all(type(x) is Fraction for x in red.reduced.entries), label
            assert all(type(x) is Fraction for x in column_echelon(m).entries), label
        kernel = kernel_basis(m)
        assert (kernel.rows, kernel.cols) == (cols, len(want)), label
        assert [list(kernel.col(j)) for j in range(kernel.cols)] == want, label
        assert m.rank == rank, label
        assert is_invertible(m) is (rows == cols == rank), label
        assert column_span_basis(m) == m.select_cols(pivots), label


def test_rref_back_substitutes_only_free_columns_right_of_a_pivot(monkeypatch):
    # a reduced row has an entry at free column fc only when its pivot lies
    # left of fc, so rref back-substitutes no vector for a free column with
    # no pivot to its left, and none at all for a matrix with no rows
    from foursub import matrices

    seen = []
    back_substitute = matrices._back_substitute

    def recorded(f, rows, pivots, cols, free):
        seen.extend(free)
        return back_substitute(f, rows, pivots, cols, free)

    monkeypatch.setattr(matrices, "_back_substitute", recorded)
    for field in (F2, F5, QQ):
        seen.clear()
        assert rref(Matrix.zeros(field, 0, 4)) == (Matrix.zeros(field, 0, 4), 0, ())
        assert seen == []
        seen.clear()
        red = rref(M(field, [[0, 1, 0, 1, 1], [0, 0, 0, 1, 1]]))
        assert red.pivot_cols == (1, 3)
        assert seen == [(2, 1), (4, 2)]


@pytest.mark.parametrize("field", ELIMINATION_FIELDS, ids=lambda f: f.name)
def test_solve_matches_sympy(field):
    # solve reads column j of X off [a | -b] by back substitution; sympy's
    # reduced [a | b] gives the same canonical solution, free variables zero
    rng = random.Random(21)
    for label, a in _elimination_cases(field, rng):
        if a.rows * a.cols > 400:  # the rref test covers the large shapes
            continue
        for b in (random_matrix(field, a.rows, 2, rng), a @ random_matrix(field, a.cols, 3, rng)):
            entries, pivots = _sympy_rref(hstack(a, b))
            width = a.cols + b.cols
            if any(pc >= a.cols for pc in pivots):
                assert solve(a, b) is None, label
                continue
            want = [[field.zero()] * b.cols for _ in range(a.cols)]
            for r, pc in enumerate(pivots):
                want[pc] = list(entries[r * width + a.cols : (r + 1) * width])
            x = solve(a, b)
            assert x == Matrix(field, a.cols, b.cols, [v for row in want for v in row]), label
            assert a @ x == b, label
        if a.is_square:
            inv = inverse(Matrix(field, a.rows, a.cols, a.entries))
            if len(_sympy_rref(a)[1]) == a.rows:
                assert a @ inv == Matrix.identity(field, a.rows), label
            else:
                assert inv is None, label


@pytest.mark.parametrize("field", ELIMINATION_FIELDS, ids=lambda f: f.name)
def test_hom_dim_is_hom_basis_length(field):
    # hom_dim stops after the forward pass, hom_basis back-substitutes:
    # both must give sympy's nullity of the commutation system
    from foursub.quivers import (
        QUIVERS,
        QuiverRep,
        _hom_system,
        direct_sum,
        hom_basis,
        hom_dim,
        random_conjugate,
        random_rep,
    )

    rng = random.Random(22)
    for name in ("F", "S", "K"):
        quiver = QUIVERS[name]
        for _ in range(3):
            v = random_rep(field, quiver, [rng.randint(0, 2) for _ in quiver.vertices], rng)
            u = random_rep(field, quiver, [rng.randint(0, 2) for _ in quiver.vertices], rng)
            w = random_conjugate(direct_sum(v, u, v), rng)
            # every arrow zero: Hom(flat, flat) is all of the unknowns
            flat = QuiverRep(field, quiver, v.dims, [Matrix.zeros(field, m.rows, m.cols) for m in v.mats])
            for x, y in ((v, v), (v, w), (w, v), (w, w), (flat, v), (flat, flat)):
                rows, _, total = _hom_system(x, y)
                if field.p == 2:
                    rows = [[(r >> j) & 1 for j in range(total)] for r in rows]
                system = Matrix(field, len(rows), total, [e for row in rows for e in row])
                nullity = total - len(_sympy_rref(system)[1])
                basis = hom_basis(x, y)
                assert hom_dim(x, y) == len(basis) == nullity, (name, x.dims, y.dims)
                assert all(phi.is_valid() for phi in basis)


@pytest.mark.parametrize("field", ELIMINATION_FIELDS, ids=lambda f: f.name)
def test_hom_space_reader_matches_hom_dim_and_hom_basis(monkeypatch, field):
    # the reader's dim is hom_dim, and its stream is hom_basis one element
    # at a time, each built only when it is read
    from foursub import quivers
    from foursub.quivers import QUIVERS, RepMorphism, direct_sum, random_conjugate, random_rep

    built = []
    trusted = RepMorphism._trusted

    def counting(source, target, comps):
        built.append(comps)
        return trusted(source, target, comps)

    rng = random.Random(24)
    for name in ("F", "D", "K", "C"):
        quiver = QUIVERS[name]
        for _ in range(4):
            v = random_rep(field, quiver, [rng.randint(0, 2) for _ in quiver.vertices], rng)
            u = random_rep(field, quiver, [rng.randint(0, 2) for _ in quiver.vertices], rng)
            w = random_conjugate(direct_sum(v, u), rng)
            for x, y in ((v, w), (w, v), (w, w), (u, u)):
                basis = quivers.hom_basis(x, y)
                dim, stream = quivers._hom_space(x, y)
                assert dim == quivers.hom_dim(x, y) == len(basis), (name, x.dims, y.dims)
                with monkeypatch.context() as patch:
                    patch.setattr(RepMorphism, "_trusted", staticmethod(counting))
                    built.clear()
                    for k, phi in enumerate(stream):
                        assert len(built) == k + 1
                        assert phi == basis[k], (name, x.dims, y.dims, k)
                    assert len(built) == dim


@st.composite
def small_matrix(draw):
    p = draw(st.sampled_from([2, 3, 5, None]))
    rows = draw(st.integers(0, 4))
    cols = draw(st.integers(0, 4))
    if p is None:
        entry = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 1, 2, 3, 10**6]))
        return Matrix(QQ, rows, cols, draw(st.lists(entry, min_size=rows * cols,
                                                    max_size=rows * cols)))
    entries = draw(
        st.lists(st.integers(0, p - 1), min_size=rows * cols, max_size=rows * cols)
    )
    return Matrix(GF(p), rows, cols, entries)


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
