"""Exact dense matrices over a :class:`~foursub.fields.FieldSpec`.

Matrices are immutable values; zero-row and zero-column matrices are
first-class citizens (several canonical constructors start at size 0).
Entries are stored as raw field values (int residues / Fractions).  Over
prime fields all arithmetic stays integral and is reduced mod p at every
step, so results are exact.

Row reduction has one forward pass per kind of row (echelon), which
clears only the rows below each pivot:

* over F_2, rows are int bitmasks, bit j for column j (_echelon_bits);
* over odd prime fields, rows are Python lists of residues
  (_echelon_rows);
* over ℚ, rows are handed in as lists of Fractions and reduced as
  primitive integer vectors (_echelon_rationals).

The list passes hand back each pivot row as its nonzero (column, entry)
pairs, pivot first, and update the rows below only at those columns,
since hom systems are sparse.  Ranks, pivots (Matrix.rank,
is_invertible, column_span_basis, hom_dim) need that pass alone.
Back substitution (_back_substitute) reads vectors off the pivot rows one
at a time, each only when its caller reads it, so a hom space whose
caller stops early (quivers._hom_space) builds only the vectors it reads.
kernel_vectors, kernel_basis and solve take every vector, and rref reads
the reduced form off the vectors of the free columns with a pivot to
their left; no backward pass runs.

numpy int64 is used only where p < 2^20 (_NP_PRIME_LIMIT), so that no
product or sum of products can overflow: products, minimal polynomials
and polynomial evaluation.  Every other field takes the Python-integer or
Fraction path; products and minimal polynomials over ℚ stay on
Fractions.  kernel_vectors and echelon take a system handed in as such
rows, without building a Matrix.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Optional

import numpy as np

from .errors import DimensionMismatch, NotSquare, ReducibleModulus
from .fields import FieldSpec, Poly, is_irreducible, poly_power

# numpy int64 stays exact as long as p*p*cols cannot overflow
_NP_PRIME_LIMIT = 1 << 20
# shared by every kernel vector _back_substitute gives over ℚ
_Q_ZERO, _Q_ONE = Fraction(0), Fraction(1)


class Matrix:
    """An immutable ``rows x cols`` matrix of raw field values (row-major)."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: FieldSpec, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise DimensionMismatch(f"negative shape {rows}x{cols}")
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        _set_field(self, field)
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_entries(self, entries)

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

    def select_rows(self, indices) -> "Matrix":
        idx = list(indices)
        return Matrix(
            self.field, len(idx), self.cols, [x for i in idx for x in self.row(i)]
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
        return len(_pivots(self))


# The slots' own descriptors set them past the immutability guard, at less
# cost than object.__setattr__, which looks each name up first.
_set_field = Matrix.field.__set__
_set_rows = Matrix.rows.__set__
_set_cols = Matrix.cols.__set__
_set_entries = Matrix.entries.__set__


class RrefResult(NamedTuple):
    reduced: Matrix
    rank: int
    pivot_cols: tuple


def rref(m: Matrix) -> RrefResult:
    """Unique reduced row-echelon form, with rank and pivot columns (the
    first nonzero pivot in column order).

    Read off the canonical kernel vectors of one forward pass
    (_back_substitute): reduced row i is 1 at its pivot and, at each free
    column fc, minus entry pivots[i] of fc's kernel vector, which is 0
    unless the pivot lies left of fc; the rows past the rank are zero.  So
    only the free columns with a pivot to their left get a vector."""
    f, cols = m.field, m.cols
    rows, pivots = echelon(f, _system_rows(m))
    free = [(fc, k) for fc, k in _free_columns(pivots, cols) if k]
    zero, one, neg = f.zero(), f.one(), f.neg
    entries = [zero] * (m.rows * cols)
    for i, pc in enumerate(pivots):
        entries[i * cols + pc] = one
    for (fc, k), vec in zip(free, _back_substitute(f, rows, pivots, cols, free)):
        for i in range(k):
            if x := vec[pivots[i]]:
                entries[i * cols + fc] = neg(x)
    return RrefResult(Matrix(f, m.rows, cols, entries), len(pivots), pivots)


def _bit_rows(m: Matrix) -> list:
    """m's rows as GF(2) bitmasks, bit j for column j."""
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
    return bits


def _list_rows(m: Matrix) -> list:
    cols = m.cols
    return [list(m.entries[i * cols : (i + 1) * cols]) for i in range(m.rows)]


def _system_rows(m: Matrix) -> list:
    """m's rows as echelon and kernel_vectors take them."""
    return _bit_rows(m) if m.field.p == 2 else _list_rows(m)


def _pivots(m: Matrix) -> tuple:
    """The pivot columns of m's reduced form, from one forward pass
    (echelon)."""
    return echelon(m.field, _system_rows(m))[1]


def echelon(f: FieldSpec, rows: list) -> tuple:
    """One forward pass over the system over f whose rows are int bitmasks
    (bit j for column j) over F_2 and lists of field values otherwise:
    (pivot rows, pivot columns), the pivots those of the reduced form.
    The pivot rows are new bitmasks over F_2 and lists of nonzero (column,
    entry) pairs otherwise, pivot first: residues with a leading 1 over odd
    p, a primitive integer row over ℚ."""
    p = f.p
    if p == 2:
        return _echelon_bits(rows)
    if p is None:
        return _echelon_rationals(rows)
    return _echelon_rows(rows, p)


def _echelon_bits(bits: list) -> tuple:
    """Forward pass over GF(2) bitmask rows: (echelon rows in pivot order,
    pivot columns); bits is left as it is.

    Rows are added one at a time: while its lowest bit is a pivot found so
    far, a new row is xored with that pivot's row; a row left nonzero
    brings a new pivot, its lowest bit.  No echelon row has a bit below
    its pivot."""
    basis = {}  # lowest bit -> echelon row
    for b in bits:
        while b:
            low = b & -b
            row = basis.get(low)
            if row is None:
                basis[low] = b
                break
            b ^= row
    order = sorted(basis)
    return [basis[k] for k in order], tuple(k.bit_length() - 1 for k in order)


def _echelon_rows(work: list, p: int) -> tuple:
    """Forward pass over rows of residues mod p, with work as the work
    space: (pivot rows, pivot columns), each pivot row its nonzero (column,
    entry) pairs scaled to a leading 1.  Only the rows below a pivot are
    cleared, at the pivot row's nonzero columns: left of the pivot column
    the pivot row is zero, and hom systems are sparse."""
    rows, cols = len(work), len(work[0]) if work else 0
    r = 0
    pivot_rows = []
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
        inv = pow(row_r[c], p - 2, p)
        nonzero = [(j, row_r[j] * inv % p) for j in range(c, cols) if row_r[j]]
        for i in range(r + 1, rows):
            row_i = work[i]
            factor = row_i[c]
            if factor:
                for j, y in nonzero:
                    row_i[j] = (row_i[j] - factor * y) % p
        pivot_rows.append(nonzero)
        pivots.append(c)
        r += 1
    return pivot_rows, tuple(pivots)


def _echelon_rationals(work: list) -> tuple:
    """Forward pass over rows of Fractions on integers (fraction-free
    elimination, Bareiss, Math. Comp. 22, 1968): (pivot rows, pivot
    columns), each pivot row the nonzero (column, entry) pairs of a
    primitive integer row; work is left as it is.

    Each row becomes a primitive integer vector: times the lcm of its
    denominators (skipped when they are all 1), over the gcd of its
    entries.  Only the rows below a pivot are cleared, by _clear."""
    rows, cols = len(work), len(work[0]) if work else 0
    if not rows or not cols:
        return [], ()
    ints = []
    for row in work:
        ratios = [x.as_integer_ratio() for x in row]
        den = lcm(*{d for _, d in ratios})
        if den == 1:
            v = [n for n, _ in ratios]
        else:
            v = [n * (den // d) for n, d in ratios]
        g = gcd(*v)
        ints.append([x // g for x in v] if g > 1 else v)
    r = 0
    pivot_rows = []
    pivots = []
    for c in range(cols):
        if r == rows:
            break
        sel = -1
        for i in range(r, rows):
            if ints[i][c]:
                sel = i
                break
        if sel < 0:
            continue
        ints[r], ints[sel] = ints[sel], ints[r]
        row_r = ints[r]
        a = row_r[c]
        nonzero = [(j, row_r[j]) for j in range(c, cols) if row_r[j]]
        for i in range(r + 1, rows):
            b = ints[i][c]
            if b:
                ints[i] = _clear(ints[i], a, b, nonzero)
        pivot_rows.append(nonzero)
        pivots.append(c)
        r += 1
    return pivot_rows, tuple(pivots)


def _clear(row: list, a: int, b: int, nonzero: list) -> list:
    """The primitive integer row (a*row - b*pivot_row) / gcd(a, b), which is
    0 at the pivot column; a is the pivot entry, b the row's entry there and
    nonzero the pivot row's nonzero (column, entry) pairs.  When a divides b
    no entry of row is scaled, so only the pivot row's nonzero columns
    change; the row is updated in place unless it is scaled."""
    g = gcd(a, b)
    scale, factor = a // g, b // g
    if scale == 1 or scale == -1:
        factor *= scale
    else:
        row = [scale * x for x in row]
    for j, y in nonzero:
        row[j] -= factor * y
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def kernel_basis(m: Matrix) -> Matrix:
    """Canonical null-space basis; columns are the basis vectors.

    The result has ``m.cols`` rows and ``m.cols - rank(m)`` columns: the
    vectors of kernel_vectors, one per free column.
    """
    cols = m.cols
    vectors = kernel_vectors(m.field, _system_rows(m), cols)
    return Matrix(m.field, cols, len(vectors), [x for row in zip(*vectors) for x in row])


def kernel_vectors(f: FieldSpec, rows: list, cols: int) -> list[list]:
    """The canonical null-space basis of the system over f whose rows are
    int bitmasks (bit j for column j) over F_2 and lists of field values
    otherwise, as lists: vector k is 1 at the k-th free column and 0 at the
    other free columns.  Its pivot entries come from the pivot rows of one
    forward pass by back substitution (_back_substitute).  Lists over odd
    p are the forward pass's work space."""
    pivot_rows, pivots = echelon(f, rows)
    return list(_back_substitute(f, pivot_rows, pivots, cols, _free_columns(pivots, cols)))


def _free_columns(pivots: tuple, cols: int) -> list:
    """(free column, number of pivots left of it), for each free column."""
    out = []
    k = 0
    for fc in range(cols):
        if k < len(pivots) and pivots[k] == fc:
            k += 1
        else:
            out.append((fc, k))
    return out


def _back_substitute(f: FieldSpec, rows: list, pivots: tuple, cols: int, free: list):
    """Yields, for each (free column fc, k) in free, the vector that is 1 at
    fc and 0 at every other free column and that the pivot rows of echelon
    annihilate, each one only when it is read.  Its entries right of fc are
    0, so only the first k rows, those with a pivot left of fc, take part:
    from the last of them up, each row fixes its pivot entry from its tail,
    the entries right of it."""
    p = f.p
    if p == 2:
        pivot_bits = [1 << pc for pc in pivots]
        for fc, k in free:
            v = 1 << fc
            for i in range(k - 1, -1, -1):
                if (rows[i] & v).bit_count() & 1:
                    v |= pivot_bits[i]
            yield [(v >> j) & 1 for j in range(cols)]
        return
    tails = [row[1:] for row in rows]
    for fc, k in free:
        vec = [0] * cols
        vec[fc] = 1
        for i in range(k - 1, -1, -1):
            s = 0
            for j, y in tails[i]:
                s += y * vec[j]
            if p is not None:
                s %= p
                if s:
                    vec[pivots[i]] = p - s
            elif s:
                # integer rows: vec stays an integer multiple of the kernel
                # vector, scaled by a / gcd(a, s) where the pivot entry a
                # does not divide s
                pc, a = rows[i][0]
                g = gcd(a, s)
                if a != g:
                    vec = [a // g * x for x in vec]
                vec[pc] = -s // g
        if p is None:
            den = vec[fc]
            vec = [_Q_ZERO if not x else _Q_ONE if x == den else Fraction(x, den) for x in vec]
        yield vec


def solve(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """One particular solution ``X`` of ``a @ X = b``, or ``None``.

    The canonical solution sets all free variables to zero.  Column j of X
    is the kernel vector of [a | -b] at the free column of b's column j,
    read off one forward pass (_back_substitute); there is none when a
    pivot lies in the b part.
    """
    if a.field != b.field:
        from .errors import FieldMismatch

        raise FieldMismatch(f"{a.field.name} vs {b.field.name}")
    if a.rows != b.rows:
        raise DimensionMismatch(f"solve: {a.rows} rows vs {b.rows} rows")
    f = a.field
    n, cols = a.cols, a.cols + b.cols
    if f.p == 2:
        rows = [x | y << n for x, y in zip(_bit_rows(a), _bit_rows(b))]
    else:
        rows = [x + [f.neg(y) for y in row_b] for x, row_b in zip(_list_rows(a), _list_rows(b))]
    pivot_rows, pivots = echelon(f, rows)
    if pivots and pivots[-1] >= n:
        return None
    free = [(n + j, len(pivots)) for j in range(b.cols)]
    vectors = list(_back_substitute(f, pivot_rows, pivots, cols, free))
    return Matrix(f, n, b.cols, [vec[i] for i in range(n) for vec in vectors])


def inverse(m: Matrix) -> Optional[Matrix]:
    """The inverse, or ``None`` when singular; 0x0 matrices are invertible."""
    if not m.is_square:
        raise NotSquare(f"inverse of {m.rows}x{m.cols} matrix")
    return solve(m, Matrix.identity(m.field, m.rows))


def is_invertible(m: Matrix) -> bool:
    if m.rows == m.cols == 1:  # decided by its entry, with no elimination
        return bool(m.entries[0])
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
    return m.select_cols(_pivots(m))


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
