"""Exact dense matrices over a :class:`~foursub.fields.FieldSpec`.

Matrices are immutable values; zero-row and zero-column matrices are
first-class citizens (several canonical constructors start at size 0).
Entries are stored as raw field values (int residues / Fractions).  Over
prime fields all arithmetic stays integral and is reduced mod p at every
step, so results are exact:

* row reduction over GF(2) works on rows as int bitmasks, bit j for column
  j (reduce_bits);
* over odd p below 2^20 it works on rows as lists of residues when the
  system has at most 400 entries (reduce_rows) and on an int64 numpy array
  when larger;
* products, minimal polynomials and polynomial evaluation run on int64
  arrays.

kernel_vectors returns the canonical null-space basis of a system handed in
as such rows, without building a Matrix.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .errors import DimensionMismatch, NotSquare, ReducibleModulus
from .fields import FieldSpec, Poly, is_irreducible, poly_power

# numpy int64 stays exact as long as p*p*cols cannot overflow; fields in
# practice are tiny, the guard is just defensive.
_NP_PRIME_LIMIT = 1 << 20


class Matrix:
    """An immutable ``rows x cols`` matrix of raw field values (row-major)."""

    __slots__ = ("field", "rows", "cols", "entries", "_rref")

    def __init__(self, field: FieldSpec, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise DimensionMismatch(f"negative shape {rows}x{cols}")
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_rref", None)

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("Matrix is immutable")

    def __reduce__(self):
        return (Matrix, (self.field, self.rows, self.cols, self.entries))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(field: FieldSpec, rows_data) -> "Matrix":
        """Build from a list of rows of ints/Fractions; converts into the field."""
        rows_data = [list(r) for r in rows_data]
        rows = len(rows_data)
        cols = len(rows_data[0]) if rows else 0
        for r in rows_data:
            if len(r) != cols:
                raise DimensionMismatch("ragged rows")
        return Matrix(
            field, rows, cols, [field.convert(x) for r in rows_data for x in r]
        )

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "Matrix":
        z = field.zero()
        return Matrix(field, rows, cols, [z] * (rows * cols))

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        return Matrix(
            field, n, n, [o if i == j else z for i in range(n) for j in range(n)]
        )

    # -- access ------------------------------------------------------------

    def entry(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_lists(self) -> list[list]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_zero(self) -> bool:
        return all(not x for x in self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.field, self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"Matrix({self.field.name}, {self.rows}x{self.cols}, {self.to_lists()})"

    # -- arithmetic ----------------------------------------------------------

    def _check_field(self, other: "Matrix") -> None:
        if self.field != other.field:
            from .errors import FieldMismatch

            raise FieldMismatch(f"{self.field.name} vs {other.field.name}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("add: shape mismatch")
        f = self.field
        return Matrix(
            f,
            self.rows,
            self.cols,
            [f.add(a, b) for a, b in zip(self.entries, other.entries)],
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("sub: shape mismatch")
        f = self.field
        return Matrix(
            f,
            self.rows,
            self.cols,
            [f.sub(a, b) for a, b in zip(self.entries, other.entries)],
        )

    def __neg__(self) -> "Matrix":
        f = self.field
        return Matrix(f, self.rows, self.cols, [f.neg(a) for a in self.entries])

    def scale(self, c) -> "Matrix":
        f = self.field
        c = f.convert(c)
        return Matrix(f, self.rows, self.cols, [f.mul(c, a) for a in self.entries])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"matmul: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        f = self.field
        if self.rows == 0 or other.cols == 0 or self.cols == 0:
            return Matrix.zeros(f, self.rows, other.cols)
        p = f.p
        if p is not None and p < _NP_PRIME_LIMIT:
            a = np.array(self.entries, dtype=np.int64).reshape(self.rows, self.cols)
            b = np.array(other.entries, dtype=np.int64).reshape(other.rows, other.cols)
            c = (a @ b) % p
            return Matrix(f, self.rows, other.cols, c.ravel().tolist())
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                acc = f.zero()
                for k in range(self.cols):
                    x = ri[k]
                    if x:
                        acc = f.add(acc, f.mul(x, other.entries[k * other.cols + j]))
                out.append(acc)
        return Matrix(f, self.rows, other.cols, out)

    def transpose(self) -> "Matrix":
        return Matrix(
            self.field,
            self.cols,
            self.rows,
            [self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
        )

    # -- block extraction ----------------------------------------------------

    def take_rows(self, start: int, stop: int) -> "Matrix":
        return Matrix(
            self.field,
            stop - start,
            self.cols,
            self.entries[start * self.cols : stop * self.cols],
        )

    def take_cols(self, start: int, stop: int) -> "Matrix":
        return Matrix(
            self.field,
            self.rows,
            stop - start,
            [self.entries[i * self.cols + j] for i in range(self.rows) for j in range(start, stop)],
        )

    def select_cols(self, indices) -> "Matrix":
        idx = list(indices)
        return Matrix(
            self.field,
            self.rows,
            len(idx),
            [self.entries[i * self.cols + j] for i in range(self.rows) for j in idx],
        )

    @property
    def rank(self) -> int:
        return rref(self).rank


class RrefResult(NamedTuple):
    reduced: Matrix
    rank: int
    pivot_cols: tuple


def rref(m: Matrix) -> RrefResult:
    """Unique reduced row-echelon form, with rank and pivot columns.

    Deterministic (first nonzero pivot in column order); result is cached on
    the matrix.
    """
    cached = m._rref
    if cached is not None:
        return cached
    f = m.field
    p = f.p
    if m.rows == 0 or m.cols == 0:
        result = RrefResult(m, 0, ())
    elif p == 2:
        result = _rref_gf2(m)
    elif p is not None and p < _NP_PRIME_LIMIT:
        if m.rows * m.cols <= _SMALL_RREF_LIMIT:
            result = _rref_prime_small(m)
        else:
            result = _rref_prime(m)
    else:
        result = _rref_generic(m)
    object.__setattr__(m, "_rref", result)
    return result


_SMALL_RREF_LIMIT = 400


def _rref_gf2(m: Matrix) -> RrefResult:
    cols = m.cols
    ent = m.entries
    bits = []
    for i in range(m.rows):
        b = 0
        base = i * cols
        for j in range(cols):
            if ent[base + j]:
                b |= 1 << j
        bits.append(b)
    pivots = reduce_bits(bits)
    entries = [(b >> j) & 1 for b in bits for j in range(cols)]
    reduced = Matrix(m.field, m.rows, m.cols, entries)
    return RrefResult(reduced, len(pivots), pivots)


def reduce_bits(bits: list) -> tuple:
    """Bring a list of GF(2) rows, each an int bitmask with bit j for column
    j, to reduced row echelon form in place (zero rows last), and return
    its pivot columns.

    Rows are added one at a time: a new row is cleared of the pivots found
    so far (one xor each), its lowest bit becomes a pivot and is cleared
    from the earlier rows.  The reduced form is unique, so this is the
    column-by-column elimination in another order."""
    basis = {}  # pivot bit -> row holding no other pivot bit
    mask = 0
    for b in bits:
        hit = b & mask
        while hit:
            low = hit & -hit
            b ^= basis[low]
            hit ^= low
        if b:
            low = b & -b
            for key, row in basis.items():
                if row & low:
                    basis[key] = row ^ b
            basis[low] = b
            mask |= low
    order = sorted(basis)
    bits[:] = [basis[k] for k in order] + [0] * (len(bits) - len(order))
    return tuple(k.bit_length() - 1 for k in order)


def _rref_prime_small(m: Matrix) -> RrefResult:
    cols = m.cols
    work = [list(m.entries[i * cols : (i + 1) * cols]) for i in range(m.rows)]
    pivots = reduce_rows(work, m.field.p)
    reduced = Matrix(m.field, m.rows, m.cols, [x for row in work for x in row])
    return RrefResult(reduced, len(pivots), pivots)


def reduce_rows(work: list, p: int) -> tuple:
    """Bring a list of equally long rows of residues mod the prime p to
    reduced row echelon form in place, and return its pivot columns."""
    rows, cols = len(work), len(work[0]) if work else 0
    r = 0
    pivots = []
    for c in range(cols):
        if r == rows:
            break
        sel = -1
        for i in range(r, rows):
            if work[i][c]:
                sel = i
                break
        if sel < 0:
            continue
        work[r], work[sel] = work[sel], work[r]
        row_r = work[r]
        piv = row_r[c]
        if piv != 1:
            inv = pow(piv, p - 2, p)
            work[r] = row_r = [(inv * x) % p for x in row_r]
        for i in range(rows):
            if i != r:
                factor = work[i][c]
                if factor:
                    row_i = work[i]
                    work[i] = [
                        (x - factor * y) % p for x, y in zip(row_i, row_r)
                    ]
        pivots.append(c)
        r += 1
    return tuple(pivots)


def _rref_prime(m: Matrix) -> RrefResult:
    a = np.array(m.entries, dtype=np.int64).reshape(m.rows, m.cols)
    pivots = _reduce_array(a, m.field.p)
    reduced = Matrix(m.field, m.rows, m.cols, a.ravel().tolist())
    return RrefResult(reduced, len(pivots), pivots)


def _reduce_array(a: np.ndarray, p: int) -> tuple:
    """reduce_rows on a 2-d int64 array of residues mod the odd prime p, in
    place, for systems too large for Python lists."""
    rows, cols = a.shape
    r = 0
    pivots = []
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        # rows r.. are zero left of column c, so only columns c.. change
        piv = int(a[r, c])
        if piv != 1:
            a[r, c:] = a[r, c:] * pow(piv, p - 2, p) % p
        others = np.flatnonzero(a[:, c])
        others = others[others != r]
        if others.size:
            a[others, c:] = (a[others, c:] - np.outer(a[others, c], a[r, c:])) % p
        pivots.append(c)
        r += 1
    return tuple(pivots)


def _rref_generic(m: Matrix) -> RrefResult:
    f = m.field
    work = [list(m.row(i)) for i in range(m.rows)]
    r = 0
    pivots = []
    for c in range(m.cols):
        if r == m.rows:
            break
        pivot_row = None
        for i in range(r, m.rows):
            if work[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        piv_inv = f.inv(work[r][c])
        if work[r][c] != f.one():
            work[r] = [f.mul(piv_inv, x) for x in work[r]]
        for i in range(m.rows):
            if i != r and work[i][c]:
                factor = work[i][c]
                work[i] = [
                    f.sub(x, f.mul(factor, y)) for x, y in zip(work[i], work[r])
                ]
        pivots.append(c)
        r += 1
    reduced = Matrix(f, m.rows, m.cols, [x for row in work for x in row])
    return RrefResult(reduced, r, tuple(pivots))


def kernel_basis(m: Matrix) -> Matrix:
    """Canonical null-space basis; columns are the basis vectors.

    The result has ``m.cols`` rows and ``m.cols - rank(m)`` columns, derived
    from the RREF with each free variable set to one in turn.
    """
    red, rank, pivots = rref(m)
    cols = m.cols
    reduced = [red.entries[r * cols : (r + 1) * cols] for r in range(rank)]
    vectors = _null_vectors(m.field, reduced, pivots, cols)
    return Matrix(m.field, cols, len(vectors), [x for row in zip(*vectors) for x in row])


def kernel_vectors(f: FieldSpec, rows: list, cols: int) -> list[list[int]]:
    """The basis kernel_basis gives, as lists, for the system over the prime
    field f whose rows are int bitmasks (bit j for column j) when p = 2 and
    residue lists otherwise.  The rows are reduced in place, by reduce_bits,
    by reduce_rows when small (or p too large for int64 products) and on an
    int64 array when large."""
    p = f.p
    if p == 2:
        pivots = reduce_bits(rows)
        reduced = [_BitRow(b) for b in rows[: len(pivots)]]
    elif len(rows) * cols <= _SMALL_RREF_LIMIT or p >= _NP_PRIME_LIMIT:
        pivots = reduce_rows(rows, p)
        reduced = rows
    else:
        a = np.array(rows, dtype=np.int64)
        pivots = _reduce_array(a, p)
        reduced = a[: len(pivots)].tolist()
    return _null_vectors(f, reduced, pivots, cols)


class _BitRow(int):
    """A GF(2) row bitmask that reads its entry in column j as row[j]."""

    __slots__ = ()

    def __getitem__(self, j: int) -> int:
        return (self >> j) & 1


def _null_vectors(f: FieldSpec, reduced, pivots: tuple, cols: int) -> list[list]:
    """Vector k of the canonical null-space basis is 1 at the k-th free
    column, 0 at the other free columns, and minus the reduced rows' entries
    in that column at the pivot columns."""
    pivot_set = set(pivots)
    z, o = f.zero(), f.one()
    out = []
    for fc in range(cols):
        if fc in pivot_set:
            continue
        vec = [z] * cols
        vec[fc] = o
        for row, pc in zip(reduced, pivots):
            x = row[fc]
            if x:
                vec[pc] = f.neg(x)
        out.append(vec)
    return out


def solve(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """One particular solution ``X`` of ``a @ X = b``, or ``None``.

    The canonical solution sets all free variables to zero.
    """
    if a.field != b.field:
        from .errors import FieldMismatch

        raise FieldMismatch(f"{a.field.name} vs {b.field.name}")
    if a.rows != b.rows:
        raise DimensionMismatch(f"solve: {a.rows} rows vs {b.rows} rows")
    aug = hstack(a, b)
    red, rank, pivots = rref(aug)
    for pc in pivots:
        if pc >= a.cols:
            return None
    f = a.field
    z = f.zero()
    entries = [[z] * b.cols for _ in range(a.cols)]
    for r_idx, pc in enumerate(pivots):
        for j in range(b.cols):
            entries[pc][j] = red.entry(r_idx, a.cols + j)
    return Matrix(f, a.cols, b.cols, [x for row in entries for x in row])


def inverse(m: Matrix) -> Optional[Matrix]:
    """The inverse, or ``None`` when singular; 0x0 matrices are invertible."""
    if not m.is_square:
        raise NotSquare(f"inverse of {m.rows}x{m.cols} matrix")
    if m.rank < m.rows:
        return None
    return solve(m, Matrix.identity(m.field, m.rows))


def is_invertible(m: Matrix) -> bool:
    return m.is_square and m.rank == m.rows


# -- block operations ---------------------------------------------------------


def hstack(*ms: Matrix) -> Matrix:
    if not ms:
        raise DimensionMismatch("hstack of nothing")
    rows = ms[0].rows
    f = ms[0].field
    for m in ms:
        if m.rows != rows:
            raise DimensionMismatch("hstack: row counts differ")
    entries = []
    for i in range(rows):
        for m in ms:
            entries.extend(m.row(i))
    return Matrix(f, rows, sum(m.cols for m in ms), entries)


def vstack(*ms: Matrix) -> Matrix:
    if not ms:
        raise DimensionMismatch("vstack of nothing")
    cols = ms[0].cols
    f = ms[0].field
    for m in ms:
        if m.cols != cols:
            raise DimensionMismatch("vstack: column counts differ")
    entries = []
    for m in ms:
        entries.extend(m.entries)
    return Matrix(f, sum(m.rows for m in ms), cols, entries)


def direct_sum(*ms: Matrix) -> Matrix:
    """Block-diagonal direct sum; correct for 0-dimensional blocks."""
    if not ms:
        raise DimensionMismatch("direct_sum of nothing")
    f = ms[0].field
    rows = sum(m.rows for m in ms)
    cols = sum(m.cols for m in ms)
    z = f.zero()
    entries = [z] * (rows * cols)
    ro = co = 0
    for m in ms:
        for i in range(m.rows):
            base = (ro + i) * cols + co
            entries[base : base + m.cols] = m.row(i)
        ro += m.rows
        co += m.cols
    return Matrix(f, rows, cols, entries)


def column_span_basis(m: Matrix) -> Matrix:
    """The original columns at the RREF pivot positions (a basis of the
    column space, deterministic)."""
    return m.select_cols(rref(m).pivot_cols)


def column_echelon(m: Matrix) -> Matrix:
    """Canonical full-column-rank basis of the column span.

    Computed as the transposed RREF of the transpose with zero columns
    dropped; two matrices have equal column span iff their canonical forms
    are equal.
    """
    red, rank, _ = rref(m.transpose())
    return red.take_rows(0, rank).transpose()


# -- canonical constructors ---------------------------------------------------


def i_up(n: int, field: FieldSpec) -> Matrix:
    """(n+1) x n: identity with a zero row adjoined above; 1x0 for n = 0."""
    m = Matrix.zeros(field, n + 1, n)
    o = field.one()
    e = list(m.entries)
    for j in range(n):
        e[(j + 1) * n + j] = o
    return Matrix(field, n + 1, n, e)


def i_down(n: int, field: FieldSpec) -> Matrix:
    """(n+1) x n: identity with a zero row adjoined below; 1x0 for n = 0."""
    m = Matrix.zeros(field, n + 1, n)
    o = field.one()
    e = list(m.entries)
    for j in range(n):
        e[j * n + j] = o
    return Matrix(field, n + 1, n, e)


def i_left(n: int, field: FieldSpec) -> Matrix:
    """n x (n+1): identity with a zero column adjoined on the left; 0x1 for n = 0."""
    m = Matrix.zeros(field, n, n + 1)
    o = field.one()
    e = list(m.entries)
    for i in range(n):
        e[i * (n + 1) + i + 1] = o
    return Matrix(field, n, n + 1, e)


def i_right(n: int, field: FieldSpec) -> Matrix:
    """n x (n+1): identity with a zero column adjoined on the right; 0x1 for n = 0."""
    m = Matrix.zeros(field, n, n + 1)
    o = field.one()
    e = list(m.entries)
    for i in range(n):
        e[i * (n + 1) + i] = o
    return Matrix(field, n, n + 1, e)


def companion(p: Poly, s: int, field: FieldSpec | None = None) -> Matrix:
    """Companion matrix of ``p**s`` (subdiagonal ones, negated coefficients
    of ``p**s`` in the last column).

    ``p`` must be monic irreducible; raises :class:`ReducibleModulus`
    otherwise.
    """
    if field is not None and field != p.field:
        from .errors import FieldMismatch

        raise FieldMismatch(f"{field.name} vs {p.field.name}")
    f = p.field
    if not is_irreducible(p):
        raise ReducibleModulus(f"{p} is reducible over {f.name}")
    q = poly_power(p, s)
    n = q.degree
    m = Matrix.zeros(f, n, n)
    e = list(m.entries)
    o = f.one()
    for i in range(n - 1):
        e[(i + 1) * n + i] = o
    for i in range(n):
        e[i * n + (n - 1)] = f.neg(q.coeff(i))
    return Matrix(f, n, n, e)


def jordan_plus(n: int, field: FieldSpec) -> Matrix:
    """n x n nilpotent Jordan block with eigenvalue 0 and superdiagonal ones."""
    if n < 1:
        raise ValueError(f"jordan_plus needs n >= 1, got {n}")
    m = Matrix.zeros(field, n, n)
    o = field.one()
    e = list(m.entries)
    for i in range(n - 1):
        e[i * n + i + 1] = o
    return Matrix(field, n, n, e)


# -- polynomial/operator helpers ----------------------------------------------


def poly_eval_matrix(p: Poly, m: Matrix) -> Matrix:
    """Evaluate a polynomial at a square matrix (Horner; over F_p on one
    int64 array)."""
    if not m.is_square:
        raise NotSquare("polynomial evaluation needs a square matrix")
    f = m.field
    n = m.rows
    q = f.p
    if q is not None and q < _NP_PRIME_LIMIT:
        a = np.array(m.entries, dtype=np.int64).reshape(n, n)
        acc = np.zeros((n, n), dtype=np.int64)
        for c in reversed(p.coeffs):
            acc = acc @ a % q
            acc.flat[:: n + 1] += c
        return Matrix(f, n, n, (acc % q).ravel().tolist())
    acc = Matrix.zeros(f, n, n)
    ident = Matrix.identity(f, n)
    for c in reversed(p.coeffs):
        acc = acc @ m
        if c:
            acc = acc + ident.scale(c)
    return acc


def min_poly(m: Matrix) -> Poly:
    """Minimal polynomial of a square matrix (monic); 0x0 gives 1."""
    if not m.is_square:
        raise NotSquare("minimal polynomial needs a square matrix")
    f = m.field
    if m.rows == 0:
        return Poly.one(f)
    if f.p is not None and f.p < _NP_PRIME_LIMIT:
        return _min_poly_prime(m)
    # Incrementally reduce vec(M^k) against the span of the earlier powers,
    # tracking the combination; the first dependency gives the minimal
    # polynomial.
    basis: list[tuple[list, int, list]] = []  # (reduced vec, pivot, combo)
    power = Matrix.identity(f, m.rows)
    k = 0
    while True:
        v = list(power.entries)
        combo = [f.zero()] * (k + 1)
        combo[k] = f.one()
        for bvec, bpiv, bcombo in basis:
            c = v[bpiv]
            if c:
                v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, bvec)]
                for j, bc in enumerate(bcombo):
                    combo[j] = f.sub(combo[j], f.mul(c, bc))
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            # 0 = sum_j combo[j] * M^j with combo[k] = 1: monic dependency.
            return Poly.make(f, combo)
        c_inv = f.inv(v[pivot])
        v = [f.mul(c_inv, x) for x in v]
        combo = [f.mul(c_inv, x) for x in combo]
        basis.append((v, pivot, combo))
        power = power @ m
        k += 1
        if k > m.rows + 1:  # pragma: no cover - safety net
            raise RuntimeError("minimal polynomial search exceeded degree bound")


def _min_poly_prime(m: Matrix) -> Poly:
    f = m.field
    p = f.p
    n = m.rows
    t = np.array(m.entries, dtype=np.int64).reshape(n, n)
    basis = np.zeros((n + 1, n * n), dtype=np.int64)
    combos = np.zeros((n + 1, n + 1), dtype=np.int64)
    pivots: list[int] = []
    power = np.eye(n, dtype=np.int64)
    for k in range(n + 1):
        v = power.ravel().copy()
        combo = np.zeros(n + 1, dtype=np.int64)
        combo[k] = 1
        for idx, piv in enumerate(pivots):
            c = int(v[piv])
            if c:
                v = (v - c * basis[idx]) % p
                combo = (combo - c * combos[idx]) % p
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return Poly.make(f, combo[: k + 1].tolist())
        piv = int(nz[0])
        inv = pow(int(v[piv]), p - 2, p)
        basis[k] = (v * inv) % p
        combos[k] = (combo * inv) % p
        pivots.append(piv)
        power = (power @ t) % p
    raise RuntimeError("minimal polynomial search exceeded degree bound")  # pragma: no cover


# -- random helpers (seeded by the caller) -------------------------------------


def random_matrix(field: FieldSpec, rows: int, cols: int, rng) -> Matrix:
    if field.is_prime_field:
        return Matrix(
            field, rows, cols, [rng.randrange(field.p) for _ in range(rows * cols)]
        )
    from fractions import Fraction

    return Matrix(
        field,
        rows,
        cols,
        [
            Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
            for _ in range(rows * cols)
        ],
    )


def random_invertible(field: FieldSpec, n: int, rng) -> Matrix:
    while True:
        m = random_matrix(field, n, n, rng)
        if is_invertible(m):
            return m
