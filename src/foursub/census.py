"""Brute-force isomorphism-class census over small finite fields.

For a fixed category and dimension vector, enumerate *every* object —
all matrix assignments for a quiver shape, or all subspaces (pairs of
subspaces) for the relation categories — split them into isomorphism
classes, decide indecomposability of each class by counting (see below),
and name each indecomposable class by the canonical tag tables, looking
the table entries up in the classes (see the end).

The isomorphism classes at a fixed dimension vector are the orbits of
the group G = prod_v GL(d_v, q) acting by change of basis, so the census
finds them without any isomorphism test, by the orbit algorithm of
Holt-Eick-O'Brien (*Handbook of Computational Group Theory*, 2005, §4.1)
on a permutation action:

* The objects of a cell are the integers 0 .. total-1, numbered in
  canonical order.  The number is mixed-radix over the object's factors:
  the arrow matrices of a quiver representation (each numbered by its
  entries read as one base-q number), the one subspace of a LinRel1
  object, or the two subspaces of a PairRel object (i1 * S + i2 with S
  the number of subspaces).
* G acts factor by factor: each arrow matrix moves on its own, and so
  does each subspace.  So every generator of G (a small generating set,
  see _gl_generators) is one permutation table per factor it moves;
  table[i] is the number of the image of factor value i.  Each table is
  one numpy computation over all factor values: for arrow matrices moved
  by M -> left M right, one product with kron(left, right^T); for
  subspaces, one product and one batched row reduction (_batched_rref)
  over the stacked echelon rows of each rank.  An arrow matrix table
  depends only on (q, shape, generator, side), so it is built once per
  process and shared, read-only, by every cell that moves a matrix of
  that shape (_matrix_table); subspace tables are built once per cell.
* A generator's permutation of all numbers gathers each factor through
  its table (_MixedRadix.images).  The orbits are the connected components
  of these permutations, found by label propagation with pointer jumping
  (Shiloach-Vishkin, J. Algorithms 3, 1982): every number starts labelled
  with itself, each round lowers both ends of every permutation edge to
  the smaller label and then sets label = label[label], until a round
  changes nothing.  At that fixpoint each label is the least number of its
  orbit (see _orbits), the number a scan in order meets first.
* That least number is the class representative; only then is it
  unranked into an object, so classes come out in order of first
  appearance.

The enumeration is deterministic: matrix entries run row-major in the
field's canonical element order, and subspace bases run over reduced
echelon forms ordered by (rank, pivot set, free entries).

The verdict is a certificate by counting.  The stabilizer of X is
Aut X = End(X)^x (for relations through _as_rep, which is full and
faithful), so |Aut X| = |G| / |orbit|, and with e = dim End X a nonzero X
is indecomposable exactly when q^e - |Aut X| is a power of q:

* X is indecomposable iff End X is local (Auslander-Reiten-Smalo, ch. I).
  Let J = rad End X and A = End X / J = prod_i M_{n_i}(F_{q^{f_i}}).  The
  non-units of End X number |J| * (|A| - |A^x|).
* |A| - |A^x| = q^v (prod_j x_j - prod_j (x_j - 1)) with
  v = sum_i f_i n_i (n_i - 1) / 2 and x_j running over the q^{f_i k}
  (1 <= k <= n_i); the bracket is prime to q.  It is 1 only for a single
  x_j >= 2, that is when A is a field and End X is local; with two or
  more factors it is at least x_1 + x_2 - 1 >= 3.

So one hom system (dim End X) and integer arithmetic decide each class.

The tag is found by orbit membership, with no isomorphism test.
canon.table_trials lists the table entries an indecomposable X is matched
against, in order, and the first that matches names X.  Each entry is an
object Y of the cell: a canonical representative, or the pullback of a
permuted embedded representative.  X matches the entry exactly when X is
isomorphic to Y, that is, when Y lies in the orbit of X: when the label
of Y's number (_RelationSpace.number, _QuiverSpace.number) is the number
of X.  classify_indecomposable decides the same entries in the same order
by hom-basis tests, so the tags are the ones it gives.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import threading
import warnings
from dataclasses import dataclass
from math import prod
from typing import Optional

import numpy as np

from .canon import IndecompTag, _object_shape, table_trials
from .errors import ShapeError, TooLarge, UnmatchedClass, UnsupportedField
from .fields import FieldSpec
# rref is unused here but stays bound: perfbench's tracer test checks that
# wrapping matrices.rref also reaches this copied binding.
from .matrices import Matrix, direct_sum, inverse, rref  # noqa: F401
from .quivers import QUIVERS, QuiverRep, end_dim
from .relations import PairRelObj, RelObj, _as_rep

CensusObject = QuiverRep | RelObj | PairRelObj

ENUMERATION_GUARD = 10**8
COMPONENT_CAP = 4
# Subspaces mapped and reduced at once by _RelationSpace._tables.  Slices
# keep every temporary near 1 MB; whole ranks of LinRel1 (4) over F2
# (200,787 subspaces) left the heap about 30 MB larger.
_SLICE = 1 << 14
# Bytes of arrow matrix tables that _matrix_table keeps for later cells,
# least recently used dropped first.  The criterion-1 sweep over F2 leaves
# 24 tables, 5,504 bytes in all; one 4 x 4 table over F3 (3^16 entries) takes
# 344 MB, and a table over the bound serves only the cell that builds it.
_TABLE_BYTES = 1 << 26
_tables: dict = {}  # (q, t, s, left, right) -> table, oldest use first
_tables_lock = threading.Lock()

_DIMS_LEN = {
    "F": 5,
    "S": 4,
    "D": 3,
    "K": 2,
    "C": 2,
    "LinRel1": 1,
    "PairRel": 2,
}


@dataclass(frozen=True)
class ClassEntry:
    """One isomorphism class: representative, orbit size, verdicts.

    indecomposable is certified by counting: q^dim End - |G| / orbit_size
    is a power of q (see the module docstring)."""

    representative: CensusObject
    orbit_size: int
    indecomposable: bool
    tag: Optional[IndecompTag]

    @property
    def unmatched(self) -> bool:
        """True for an indecomposable class that matched no canonical tag."""
        return self.indecomposable and self.tag is None

    def shape(self) -> tuple:
        return _object_dims(self.representative)


@dataclass(frozen=True)
class CensusReport:
    """Full census of one (category, field, dims) cell."""

    category: str
    field: FieldSpec
    dims: tuple
    total: int
    classes: tuple

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def num_indecomposable(self) -> int:
        return sum(1 for c in self.classes if c.indecomposable)

    @property
    def unmatched_indices(self) -> tuple:
        return tuple(i for i, c in enumerate(self.classes) if c.unmatched)


# -- sizes and guards -----------------------------------------------------------


def _gaussian_binomial(n: int, r: int, q: int) -> int:
    num, den = 1, 1
    for i in range(r):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _subspace_count(n: int, q: int) -> int:
    return sum(_gaussian_binomial(n, r, q) for r in range(n + 1))


def _quiver_entry_count(category: str, dims) -> int:
    quiver = QUIVERS[category]
    return sum(dims[ti] * dims[si] for si, ti in quiver.ends)


def enumeration_size(category: str, field: FieldSpec, dims) -> int:
    """Exact number of objects the census will enumerate."""
    q = field.p
    if category in QUIVERS:
        return q ** _quiver_entry_count(category, dims)
    if category == "LinRel1":
        return _subspace_count(2 * dims[0], q)
    return _subspace_count(dims[0] + dims[1], q) ** 2


def _check_inputs(category: str, field: FieldSpec, dims) -> tuple:
    if category not in _DIMS_LEN:
        raise ShapeError(f"unknown census category {category!r}")
    if field.p is None:
        raise UnsupportedField("census enumeration needs a finite field")
    dims = tuple(int(d) for d in dims)
    if len(dims) != _DIMS_LEN[category]:
        raise ShapeError(
            f"category {category} needs {_DIMS_LEN[category]} dims, got {len(dims)}"
        )
    if any(d < 0 for d in dims):
        raise ShapeError("negative dimension")
    if any(d > COMPONENT_CAP for d in dims):
        raise TooLarge(
            f"dims {dims} exceed the componentwise cap {COMPONENT_CAP}"
        )
    size = enumeration_size(category, field, dims)
    if size > ENUMERATION_GUARD:
        raise TooLarge(
            f"{size} objects at dims {dims} over {field.name} "
            f"exceed the guard {ENUMERATION_GUARD}"
        )
    return dims


# -- enumeration ----------------------------------------------------------------


def _echelon_shapes(n: int):
    """All (rank, pivot-columns) shapes of reduced row echelon forms on n columns."""
    for r in range(n + 1):
        yield from ((r, pivots) for pivots in itertools.combinations(range(n), r))


def _echelon_free_positions(n: int, pivots) -> list:
    """Free (row, col) slots of a reduced echelon form, row-major."""
    pivot_set = set(pivots)
    out = []
    for i, p in enumerate(pivots):
        for j in range(p + 1, n):
            if j not in pivot_set:
                out.append((i, j))
    return out


def _echelon_rows(n: int, pivots, free, values) -> list:
    """The rows of the reduced echelon form with the given pivot columns
    whose free (row, col) slots hold the given values."""
    rows = [[0] * n for _ in pivots]
    for i, p in enumerate(pivots):
        rows[i][p] = 1
    for (i, j), v in zip(free, values):
        rows[i][j] = v
    return rows


def _basis(field: FieldSpec, n: int, rows) -> Matrix:
    """The subspace basis (n rows, one column per echelon row) whose
    columns are the given echelon rows."""
    return Matrix(field, n, len(rows), [row[j] for j in range(n) for row in rows])


def _echelon_bases(field: FieldSpec, n: int, shape):
    """All subspace basis matrices (n rows, rank columns) with the given
    reduced echelon shape; each subspace of k^n appears exactly once."""
    _, pivots = shape
    free = _echelon_free_positions(n, pivots)
    for values in itertools.product(field.elements(), repeat=len(free)):
        yield _basis(field, n, _echelon_rows(n, pivots, free, values))


def _digits_base_q(number: int, q: int, length: int) -> list:
    """The base-q digits of number, most significant first, padded to length."""
    digits = [0] * length
    for k in range(length - 1, -1, -1):
        number, digits[k] = divmod(number, q)
    return digits


def _uint_dtype(bound: int):
    """The smallest unsigned numpy integer dtype that holds range(bound + 1),
    or object (Python ints) past 64 bits."""
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        if bound <= np.iinfo(dtype).max:
            return dtype
    return object


def _powers(q: int, length: int) -> np.ndarray:
    """The weights of length base-q digits, most significant first."""
    return np.array([q**k for k in range(length - 1, -1, -1)], dtype=np.int64)


# -- the group action -------------------------------------------------------------


def _primitive_root(p: int) -> int:
    """The least generator of the multiplicative group of F_p."""
    n, factors, r = p - 1, [], 2
    while r * r <= n:
        if n % r == 0:
            factors.append(r)
            while n % r == 0:
                n //= r
        r += 1
    if n > 1:
        factors.append(n)
    return next(
        w for w in range(1, p) if all(pow(w, (p - 1) // r, p) != 1 for r in factors)
    )


@functools.lru_cache(maxsize=8 * (COMPONENT_CAP + 1))  # every d of eight fields
def _gl_generators(field: FieldSpec, d: int) -> tuple:
    """Generators of GL(d, q) (D. E. Taylor, "Pairs of generators for matrix
    groups", 1987): for d >= 2 the transvection I + E_12 and the d-cycle
    permutation matrix, and for q > 2 also diag(w, 1, ..., 1) with w a
    primitive root.  GL(1, 2) is trivial and gets no generator."""
    identity = Matrix.identity(field, d).to_lists()
    gens = []
    if d >= 2:
        transvection = [row[:] for row in identity]
        transvection[0][1] = 1
        cycle = [identity[(i - 1) % d] for i in range(d)]
        gens += [transvection, cycle]
    if d >= 1 and field.p > 2:
        diagonal = [row[:] for row in identity]
        diagonal[0][0] = _primitive_root(field.p)
        gens.append(diagonal)
    return tuple(Matrix.from_rows(field, g) for g in gens)


@functools.lru_cache(maxsize=8 * (COMPONENT_CAP + 1))
def _gl_inverses(field: FieldSpec, d: int) -> tuple:
    """The inverses of _gl_generators(field, d), in the same order."""
    return tuple(inverse(g) for g in _gl_generators(field, d))


class _MixedRadix:
    """The objects of a census cell as the integers range(total).

    An object is a tuple of factors, factor k running over range(sizes[k]),
    and its number is the mixed-radix integer with those digits, the first
    factor most significant.  G acts factor by factor, so each generator of
    G is a move: one (k, table) pair per factor k it moves, where table[i]
    is the image of factor value i.  Subclasses fill in the tables and
    build an object from its number."""

    def __init__(self, sizes, moves):
        self.sizes = list(sizes)
        self.weights = [prod(self.sizes[k + 1 :]) for k in range(len(self.sizes))]
        self.total = prod(self.sizes)
        self.moves = moves

    def digits(self, index: int) -> list:
        """The factor values of object index."""
        return [index // w % s for w, s in zip(self.weights, self.sizes)]

    def images(self, move) -> np.ndarray:
        """The permutation of range(total) a move induces: entry i is the
        number of the image of object i.  The numbers laid out as an array
        of shape sizes have factor k on axis k, so the move gathers each
        axis it moves through that factor's table."""
        perm = np.arange(self.total, dtype=_uint_dtype(self.total)).reshape(self.sizes)
        for k, table in move:
            perm = perm.take(table, axis=k)
        return perm.ravel()


def _matrix_table(q: int, t: int, s: int, left, right) -> np.ndarray:
    """The permutation M -> left M right of the t x s matrices over F_q (see
    _build_matrix_table).  Built on the first call for its arguments and
    kept read-only in _tables for later cells, up to _TABLE_BYTES."""
    key = (q, t, s, left, right)
    with _tables_lock:
        table = _tables.pop(key, None)
        if table is None:
            table = _build_matrix_table(q, t, s, left, right)
            table.flags.writeable = False
            _tables[key] = table
            while sum(kept.nbytes for kept in _tables.values()) > _TABLE_BYTES:
                del _tables[next(iter(_tables))]
        else:
            _tables[key] = table  # now the most recent use
    return table


def _build_matrix_table(q: int, t: int, s: int, left, right) -> np.ndarray:
    """The permutation M -> left M right of the t x s matrices over F_q, each
    numbered by its entries read row-major as one base-q number; a side
    that is None is not multiplied.  Row-major, the entries of left M right
    are kron(left, right^T) times those of M.  The enumeration guard keeps
    q^(t s) <= 10^8, so sums of t s products below q^2 fit in int64."""
    left = np.eye(t, dtype=np.int64) if left is None else np.array(left.to_lists())
    right = np.eye(s, dtype=np.int64) if right is None else np.array(right.to_lists())
    action = np.kron(left, right.T) % q
    powers = _powers(q, t * s)
    digits = np.arange(q ** (t * s), dtype=np.int64)[:, None] // powers % q
    return digits @ action.T % q @ powers


class _QuiverSpace(_MixedRadix):
    """Representations numbered by their arrow matrices' entries read as one
    base-q number, so each arrow is a factor; g in GL(d_v, q) acts by
    M_a -> g_t M_a g_s^-1, moving only the arrows at v."""

    def __init__(self, field: FieldSpec, quiver, dims):
        self.field, self.quiver, self.dims = field, quiver, dims
        self.shapes = [(dims[ti], dims[si]) for si, ti in quiver.ends]
        moves = []
        for v, d in zip(quiver.vertices, dims):
            for g, g_inv in zip(_gl_generators(field, d), _gl_inverses(field, d)):
                move = []
                for k, (a, (t, s)) in enumerate(zip(quiver.arrows, self.shapes)):
                    if v in (a.target, a.source) and t * s:
                        left = g if a.target == v else None
                        right = g_inv if a.source == v else None
                        move.append((k, _matrix_table(field.p, t, s, left, right)))
                moves.append(move)
        super().__init__([field.p ** (t * s) for t, s in self.shapes], moves)

    def build(self, index: int) -> QuiverRep:
        mats = tuple(
            Matrix(self.field, t, s, _digits_base_q(digit, self.field.p, t * s))
            for (t, s), digit in zip(self.shapes, self.digits(index))
        )
        return QuiverRep._trusted(self.field, self.quiver, self.dims, mats)

    def number(self, rep: QuiverRep) -> int:
        """The number of rep, the inverse of build."""
        if rep.quiver is not self.quiver or rep.dims != self.dims:
            raise ShapeError(f"{rep.quiver.name} dims {rep.dims} is not in this cell")
        q, index = self.field.p, 0
        for m, size in zip(rep.mats, self.sizes):
            digit = 0
            for entry in m.entries:
                digit = digit * q + entry
            index = index * size + digit
        return index


def _inverse_mod(x: np.ndarray, q: int) -> np.ndarray:
    """x^(q-2) mod the prime q, entry by entry: the inverses of the nonzero
    entries (Fermat), by square and multiply."""
    inverse, power, e = np.ones_like(x), x, q - 2
    while e:
        if e & 1:
            inverse = inverse * power % q
        power = power * power % q
        e >>= 1
    return inverse


def _batched_rref(m: np.ndarray, q: int) -> tuple:
    """(reduced, mask): the reduced row echelon forms of a stack of matrices,
    and mask[j, b] True when column j is a pivot column of matrix b.
    m[i, j, b] is entry (i, j) of matrix b, a residue mod the prime q in an
    unsigned dtype that holds 2 q^2; the matrix index runs last, so each
    step is one long vector operation.  m is the work space.

    Column by column, every matrix takes as its pivot row the first of its
    unused rows that is nonzero in the column, scales it to a leading 1 and
    adds multiples of q minus it to its other rows, in place, one row index
    at a time.  Unused rows are zero left of the column, so only the columns
    from it on change.  The k-th pivot row becomes row k of the reduced
    form and the rows left over are zero; the reduced form is unique, so it
    is the one matrices.rref gives."""
    r, n, count = m.shape
    mask = np.zeros((n, count), dtype=bool)
    place = np.full((r, count), r, dtype=np.uint8)  # row i's row in the result
    rank = np.zeros(count, dtype=np.uint8)
    for c in range(n if r else 0):
        sel = np.full(count, r, dtype=np.uint8)  # the pivot row, r if none
        for i in reversed(range(r)):
            sel = np.where((m[i, c] != 0) & (place[i] == r), i, sel)
        found = mask[c] = sel < r
        pivot = _pick(m[:, c:], sel)
        scale = _inverse_mod(np.where(found, pivot[0], 1), q)
        minus = q - pivot * scale % q
        for i in range(r):
            row, is_pivot = m[i, c:], sel == i
            factor = np.where(found & ~is_pivot, row[0], 0)
            row *= np.where(is_pivot, scale, 1)
            row += factor * minus
            row %= q
            place[i] = np.where(is_pivot, rank, place[i])
        rank += found
    reduced = np.zeros_like(m)
    for k, i in itertools.product(range(r), range(r)):
        reduced[k] += np.where(place[i] == k, m[i], 0)
    return reduced, mask


def _pick(m: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Row rows[b] of every matrix b of the stack m (row 0 where rows[b]
    is out of range)."""
    out = m[0]
    for i in range(1, len(m)):
        out = np.where(rows == i, m[i], out)
    return out


def _echelon_stack(n: int, pivots, free, q: int, dtype) -> np.ndarray:
    """The rows of every reduced echelon form with the given pivot columns,
    in _echelon_bases order, as one stack: entry [i, j, b] is entry (i, j)
    of form b."""
    stack = np.zeros((len(pivots), n, q ** len(free)), dtype)
    stack[range(len(pivots)), list(pivots)] = 1
    numbers = np.arange(stack.shape[2], dtype=np.int64)
    for (i, j), power in zip(free, _powers(q, len(free))):
        stack[i, j] = numbers // power % q
    return stack


def _image_numbers(g: np.ndarray, stack: np.ndarray, q: int, start_of) -> np.ndarray:
    """The numbers of the subspaces G U, for the echelon rows of the U
    stacked as _echelon_stack stacks them.  The number of a subspace is the
    first number of its pivot shape (start_of, indexed by the bitmask of the
    pivot columns) plus its free entries read in base q: in reduced echelon
    form the free slots of row i are the non-pivot columns right of its
    pivot, that is, right of the (i+1)-th pivot column."""
    image = np.einsum("jk,ikb->ijb", g, stack)  # rows -> rows G^T
    image %= q
    image, mask = _batched_rref(image, q)
    r, n, count = image.shape
    seen = np.cumsum(mask, axis=0, dtype=np.uint8)  # pivots in columns 0..j
    number = np.zeros(count, dtype=np.int64)
    for i, j in itertools.product(range(r), range(n)):
        free = ~mask[j] & (seen[j] > i)
        number = np.where(free, number * q + image[i, j], number)
    return start_of[(1 << np.arange(n)) @ mask] + number


class _RelationSpace(_MixedRadix):
    """Tuples of subspaces of k^n = V1 + V2, dims the dimensions of V1 and
    V2 (one subspace for LinRel1, two for PairRel), each subspace a factor
    numbered by its position in _echelon_bases order.
    Each generator acts on k^n as an invertible matrix G, by
    basis -> column_echelon(G basis), that is, on the echelon rows spanning
    the subspace, rows -> rref(rows G^T); its table serves every factor."""

    def __init__(self, field: FieldSpec, dims, group, arity: int, make):
        self.field, self.dims, self.make = field, dims, make
        self.n = n = sum(dims)
        q = field.p
        self.shapes = []  # (number of the first subspace, pivots, free slots)
        offset = 0
        for _, pivots in _echelon_shapes(n):
            free = _echelon_free_positions(n, pivots)
            self.shapes.append((offset, pivots, free))
            offset += q ** len(free)
        self.shape_of = {pivots: (start, free) for start, pivots, free in self.shapes}
        self.offsets = [start for start, _, _ in self.shapes]
        tables = self._tables(q, group)
        super().__init__(
            [offset] * arity, [[(k, table) for k in range(arity)] for table in tables]
        )

    def _tables(self, q: int, group) -> list:
        """One table per G in group: the number of G U for every subspace U.

        The echelon rows of all subspaces of one rank are stacked (see
        _echelon_stack) and numbered by _image_numbers, _SLICE subspaces at
        a time."""
        n = self.n
        dtype = _uint_dtype(max(n, 2) * q**2)
        start_of = np.zeros(2**n, dtype=np.int64)  # pivot bitmask -> first number
        for start, pivots, _ in self.shapes:
            start_of[sum(1 << c for c in pivots)] = start
        group = [np.array(g.to_lists(), dtype) for g in group]
        parts = [[] for _ in group]
        for r in range(n + 1):
            stack = np.concatenate(
                [
                    _echelon_stack(n, pivots, free, q, dtype)
                    for _, pivots, free in self.shapes
                    if len(pivots) == r
                ],
                axis=2,
            )
            for lo in range(0, stack.shape[2], _SLICE):
                for part, g in zip(parts, group):
                    part.append(_image_numbers(g, stack[:, :, lo : lo + _SLICE], q, start_of))
        # object images (q^2 past 64 bits) give object numbers
        return [np.concatenate(part).astype(np.int64, copy=False) for part in parts]

    def build(self, index: int):
        q, bases = self.field.p, []
        for digit in self.digits(index):
            start, pivots, free = self.shapes[bisect.bisect_right(self.offsets, digit) - 1]
            values = _digits_base_q(digit - start, q, len(free))
            rows = _echelon_rows(self.n, pivots, free, values)
            bases.append(_basis(self.field, self.n, rows))
        return self.make(*bases)

    def number(self, obj) -> int:
        """The number of obj, the inverse of build.  Raises ShapeError when
        obj is not in this cell or a basis is not in the canonical echelon
        form that build gives (RelObj and PairRelObj keep theirs so)."""
        bases = (obj.basis,) if isinstance(obj, RelObj) else (obj.basis1, obj.basis2)
        if (obj.dim1, obj.dim2) != self.dims or len(bases) != len(self.sizes):
            raise ShapeError(f"relation on dims {(obj.dim1, obj.dim2)} is not in this cell")
        index = 0
        for basis, size in zip(bases, self.sizes):
            rows = basis.transpose().to_lists()
            pivots = tuple(next((j for j, x in enumerate(row) if x), self.n) for row in rows)
            start, free = self.shape_of.get(pivots, (None, ()))
            values = [rows[i][j] for i, j in free]
            if start is None or rows != _echelon_rows(self.n, pivots, free, values):
                raise ShapeError("basis is not in canonical echelon form")
            digit = 0
            for v in values:
                digit = digit * self.field.p + v
            index = index * size + start + digit
        return index


def _census_space(category: str, field: FieldSpec, dims):
    if category in QUIVERS:
        return _QuiverSpace(field, QUIVERS[category], dims)
    if category == "LinRel1":
        (d,) = dims
        group = [direct_sum(g, g) for g in _gl_generators(field, d)]
        return _RelationSpace(
            field, (d, d), group, 1, lambda b: RelObj._trusted(field, d, d, b)
        )
    d1, d2 = dims
    one1, one2 = Matrix.identity(field, d1), Matrix.identity(field, d2)
    group = [direct_sum(g, one2) for g in _gl_generators(field, d1)]
    group += [direct_sum(one1, g) for g in _gl_generators(field, d2)]
    return _RelationSpace(
        field,
        (d1, d2),
        group,
        2,
        lambda b1, b2: PairRelObj._trusted(field, d1, d2, b1, b2),
    )


def _labels(space) -> np.ndarray:
    """The label of every object: the least number of its orbit.

    Every object starts labelled with its own number.  A round takes each
    move's permutation perm and lowers label[i] and label[perm[i]] to the
    smaller of the two, then jumps every label to its label's label; the
    rounds stop after one that changes nothing.  A label is always the
    number of an object in the same orbit and never grows.  At the fixpoint
    the labels agree along every move, so they are constant on each orbit
    (the orbits are the connected components of the moves' permutations),
    and the constant is at most the least number of the orbit and belongs
    to it: it is that least number, the first object of the orbit a scan in
    numbering order meets."""
    perms = [space.images(move) for move in space.moves]
    label = np.arange(space.total, dtype=_uint_dtype(space.total))
    while True:
        before = label.copy()
        for perm in perms:
            np.minimum(label, label[perm], out=label)
            label[perm] = np.minimum(label[perm], label)
        label = label[label]
        if np.array_equal(label, before):
            break
    return label


def _orbits(label: np.ndarray) -> list:
    """(number of the representative, orbit size) for every orbit, in order
    of the representatives' numbers, from the labels of _labels.  The
    representative is the orbit's label, so np.unique of the labels lists
    the first-seen representatives in the order a scan meets them, with
    the number of objects carrying each label as its orbit size."""
    representatives, sizes = np.unique(label, return_counts=True)
    return list(zip(representatives.tolist(), sizes.tolist()))


# -- verdicts ---------------------------------------------------------------------


def _object_dims(obj: CensusObject) -> tuple:
    if isinstance(obj, QuiverRep):
        return obj.dims
    if isinstance(obj, PairRelObj):
        return (obj.dim1, obj.dim2, obj.basis1.cols, obj.basis2.cols)
    return (obj.dim1, obj.dim2, obj.rel_dim)


def _group_order(field: FieldSpec, dims) -> int:
    """|G| = prod_v |GL(d_v, q)|, the group whose orbits are the classes: one
    factor per vertex of a quiver, GL(d) for LinRel1 (dims (d,), acting as
    g + g), GL(d1) x GL(d2) for PairRel."""
    q = field.p
    return prod(q**d - q**i for d in dims for i in range(d))


def _decide_indecomposable(obj: CensusObject, orbit_size: int, group_order: int) -> bool:
    """Whether the class of obj is indecomposable, from dim End obj and
    |Aut obj| = group_order / orbit_size (certificate in the module
    docstring).  Raises ShapeError when the counts are impossible, which
    means the orbit partition or the hom system is wrong."""
    rep = obj if isinstance(obj, QuiverRep) else _as_rep(obj)
    if rep.total_dim == 0:
        return False
    q = rep.field.p
    automorphisms, rest = divmod(group_order, orbit_size)
    non_units = q ** end_dim(rep) - automorphisms
    if rest or non_units < 1:
        raise ShapeError(
            f"orbit of size {orbit_size} at dims {_object_dims(obj)} contradicts "
            f"|G| = {group_order} and dim End"
        )
    while non_units % q == 0:
        non_units //= q
    return non_units == 1  # non_units was a power of q


def _tags(category: str, space, label: np.ndarray, classes) -> list:
    """The tag of each (number, representative, indecomposable) class, None
    for a decomposable or unmatched one: the first entry of
    canon.table_trials that lies in the class's orbit (see the module
    docstring).  The label each entry carries is computed once per cell."""
    # id(entry) -> (entry, label of its number): entries are cached objects,
    # so keying by id skips hashing their matrices; holding each keeps its id
    shown = {}

    def shows(entry) -> int:
        key = id(entry)
        if key not in shown:
            shown[key] = entry, int(label[space.number(entry)])
        return shown[key][1]

    tags = []
    for number, obj, indecomposable in classes:
        trials = table_trials(category, _object_shape(category, obj), space.field)
        matches = (tag for tag, entry in trials if shows(entry) == number)
        tags.append(next(matches, None) if indecomposable else None)
    return tags


def census(
    category: str,
    field: FieldSpec,
    dims,
    *,
    workers: int = 1,
) -> CensusReport:
    """Enumerate every object at the given dimension vector, split the
    objects into isomorphism classes, the orbits of G = prod_v GL(d_v, q),
    by label propagation over per-factor permutation tables, and report
    each class's first-seen representative, orbit size, indecomposability
    and canonical-tag match (tag None on an indecomposable class means
    UNMATCHED; decomposable classes carry no tag).  Indecomposability is
    certified by counting: q^dim End - |G| / orbit size is a power of q.
    The tag is the first trial of canon.table_trials whose object lies in
    the class's orbit, the tag classify_indecomposable gives (see _tags).
    With workers > 1 the counting verdicts are computed in that many
    processes; the report does not depend on the count."""
    dims = _check_inputs(category, field, dims)
    total = enumeration_size(category, field, dims)
    space = _census_space(category, field, dims)
    label = _labels(space)
    numbers, sizes = zip(*_orbits(label))
    reps = [space.build(number) for number in numbers]

    decide = functools.partial(_decide_indecomposable, group_order=_group_order(field, dims))
    if workers > 1 and len(reps) > 1:
        # imported here: a single-process census never loads them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
            verdicts = list(pool.map(decide, reps, sizes))
    else:
        verdicts = list(map(decide, reps, sizes))
    tags = _tags(category, space, label, zip(numbers, reps, verdicts))
    entries = [
        ClassEntry(obj, size, indec, tag)
        for obj, size, indec, tag in zip(reps, sizes, verdicts, tags)
    ]

    found = sum(e.orbit_size for e in entries)
    if found != total:
        raise ShapeError(
            f"orbit accounting broke: {found} enumerated vs {total} expected"
        )
    return CensusReport(category, field, dims, total, tuple(entries))


def census_sweep(
    category: str,
    field: FieldSpec,
    max_total_dim: int,
    *,
    workers: int = 1,
) -> list:
    """Run census over every dimension vector with total at most
    max_total_dim (componentwise within the cap).  Raises UnmatchedClass
    on any indecomposable class that matches no canonical tag; dimension
    vectors over the enumeration guard are skipped with a warning."""
    if category not in _DIMS_LEN:
        raise ShapeError(f"unknown census category {category!r}")
    nv = _DIMS_LEN[category]
    top = min(COMPONENT_CAP, max_total_dim)
    vectors = sorted(
        (
            v
            for v in itertools.product(range(top + 1), repeat=nv)
            if sum(v) <= max_total_dim
        ),
        key=lambda v: (sum(v), v),
    )
    reports = []
    for dims in vectors:
        try:
            report = census(category, field, dims, workers=workers)
        except TooLarge as exc:
            warnings.warn(
                f"census sweep skipped {category} dims {dims}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        bad = report.unmatched_indices
        if bad:
            raise UnmatchedClass(
                f"{category} dims {dims} over {field.name}: classes {list(bad)} "
                "are indecomposable but match no canonical tag"
            )
        reports.append(report)
    return reports
