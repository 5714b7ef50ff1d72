"""Brute-force isomorphism-class census over small finite fields.

For a fixed category and dimension vector, enumerate *every* object —
all matrix assignments for a quiver shape, or all subspaces (pairs of
subspaces) for the relation categories — split them into isomorphism
classes, decide indecomposability of each class by counting (see below),
and match each indecomposable class against the canonical tag tables.

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
  see _gl_generators) is precomputed once per cell as one permutation
  table per factor it moves; table[i] is the number of the image of
  factor value i.
* The walk then runs over integers only: it scans the numbers in order
  and walks the orbit of each one not visited yet breadth-first, splitting
  a number into its factors, looking each factor up in its table and
  recombining.  Visited numbers are marked in a bitmap.
* The first number of each orbit is its class representative; only then
  is it unranked into an object, so classes come out in order of first
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
"""

from __future__ import annotations

import bisect
import functools
import itertools
import multiprocessing
import warnings
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import prod
from typing import Optional

from .canon import IndecompTag, classify_indecomposable
from .errors import (
    ShapeError,
    TooLarge,
    UnclassifiedSummand,
    UnmatchedClass,
    UnsupportedField,
)
from .fields import FieldSpec
# rref is unused here but stays bound: perfbench's tracer test checks that
# wrapping matrices.rref also reaches this copied binding.
from .matrices import Matrix, direct_sum, inverse, reduce_rows, rref  # noqa: F401
from .quivers import QUIVERS, QuiverRep, end_dim
from .relations import PairRelObj, RelObj, _as_rep

CensusObject = QuiverRep | RelObj | PairRelObj

ENUMERATION_GUARD = 10**8
COMPONENT_CAP = 4

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
    total = 0
    for a in quiver.arrows:
        total += dims[quiver.vertex_index(a.target)] * dims[
            quiver.vertex_index(a.source)
        ]
    return total


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


def _base_q(digits, q: int) -> int:
    """The number with the given base-q digits, most significant first."""
    number = 0
    for x in digits:
        number = number * q + x
    return number


def _digits_base_q(number: int, q: int, length: int) -> list:
    """The base-q digits of number, most significant first, padded to length."""
    digits = [0] * length
    for k in range(length - 1, -1, -1):
        number, digits[k] = divmod(number, q)
    return digits


def _typecode(count: int) -> str:
    """The smallest unsigned array typecode that holds range(count)."""
    return next(code for code in "BHIQ" if count <= 256 ** array(code).itemsize)


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


def _gl_generators(field: FieldSpec, d: int) -> list:
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
    return [Matrix.from_rows(field, g) for g in gens]


class _MixedRadix:
    """The objects of a census cell as the integers range(total).

    An object is a tuple of factors, factor k running over range(sizes[k]),
    and its number is the mixed-radix integer with those digits, the first
    factor most significant.  G acts factor by factor, so each generator of
    G is a move: one (weight, size, table) triple per factor it moves, where
    table[i] is the image of factor value i.  Subclasses fill in the tables
    and build an object from its number."""

    def __init__(self, sizes, moves):
        self.sizes = list(sizes)
        self.weights = [prod(self.sizes[k + 1 :]) for k in range(len(self.sizes))]
        self.total = prod(self.sizes)
        self.moves = [
            [(self.weights[k], self.sizes[k], table) for k, table in move]
            for move in moves
        ]

    def digits(self, index: int) -> list:
        """The factor values of object index."""
        return [index // w % s for w, s in zip(self.weights, self.sizes)]

    def image(self, move, index: int) -> int:
        """The number of the image of object index under a move."""
        image = index
        for weight, size, table in move:
            digit = index // weight % size
            image += (table[digit] - digit) * weight
        return image


def _matrix_table(field: FieldSpec, t: int, s: int, left, right) -> array:
    """The permutation M -> left M right of the t x s matrices, each numbered
    by its entries read row-major as one base-q number; a side that is None
    is not multiplied."""
    q = field.p
    table = array(_typecode(q ** (t * s)))
    for values in itertools.product(field.elements(), repeat=t * s):
        m = Matrix(field, t, s, values)
        if left is not None:
            m = left @ m
        if right is not None:
            m = m @ right
        table.append(_base_q(m.entries, q))
    return table


class _QuiverSpace(_MixedRadix):
    """Representations numbered by their arrow matrices' entries read as one
    base-q number, so each arrow is a factor; g in GL(d_v, q) acts by
    M_a -> g_t M_a g_s^-1, moving only the arrows at v."""

    def __init__(self, field: FieldSpec, quiver, dims):
        self.field, self.quiver, self.dims = field, quiver, dims
        self.shapes = [
            (dims[quiver.vertex_index(a.target)], dims[quiver.vertex_index(a.source)])
            for a in quiver.arrows
        ]
        moves = []
        for v, d in zip(quiver.vertices, dims):
            for g in _gl_generators(field, d):
                g_inv, move = inverse(g), []
                for k, (a, (t, s)) in enumerate(zip(quiver.arrows, self.shapes)):
                    if v in (a.target, a.source) and t * s:
                        left = g if a.target == v else None
                        right = g_inv if a.source == v else None
                        move.append((k, _matrix_table(field, t, s, left, right)))
                moves.append(move)
        super().__init__([field.p ** (t * s) for t, s in self.shapes], moves)

    def build(self, index: int) -> QuiverRep:
        mats = [
            Matrix(self.field, t, s, _digits_base_q(digit, self.field.p, t * s))
            for (t, s), digit in zip(self.shapes, self.digits(index))
        ]
        return QuiverRep(self.field, self.quiver, self.dims, mats)


def _row_action(g: Matrix) -> tuple:
    """rows -> rows g^T in sparse form: coordinate j of an image row is
    row[gather[j]], except at the (j, terms) of fixes, where it is the sum
    of c * row[k] over the (k, c) in terms."""
    gather, fixes = [], []
    for j in range(g.rows):
        terms = [(k, c) for k, c in enumerate(g.row(j)) if c]
        gather.append(terms[0][0])
        if terms[1:] or terms[0][1] != 1:
            fixes.append((j, terms))
    return gather, fixes


class _RelationSpace(_MixedRadix):
    """Tuples of subspaces of k^n (one for LinRel1, two for PairRel), each
    subspace a factor numbered by its position in _echelon_bases order.
    Each generator acts on k^n as an invertible matrix G, by
    basis -> column_echelon(G basis), that is, on the echelon rows spanning
    the subspace, rows -> rref(rows G^T); its table serves every factor."""

    def __init__(self, field: FieldSpec, n: int, group, arity: int, make):
        self.field, self.n, self.make = field, n, make
        q = field.p
        self.shapes = []  # (number of the first subspace, pivots, free slots)
        offset = 0
        for _, pivots in _echelon_shapes(n):
            free = _echelon_free_positions(n, pivots)
            self.shapes.append((offset, pivots, free))
            offset += q ** len(free)
        self.offsets = [start for start, _, _ in self.shapes]
        tables = self._tables(q, offset, group)
        super().__init__(
            [offset] * arity, [[(k, table) for k in range(arity)] for table in tables]
        )

    def _tables(self, q: int, count: int, group) -> list:
        """One table per G in group: the number of G U for every subspace U.

        Each subspace's echelon rows are generated once, as lists of
        residues, mapped by every G and reduced by reduce_rows."""
        actions = [_row_action(g) for g in group]
        shape_of = {pivots: (start, free) for start, pivots, free in self.shapes}
        tables = [array(_typecode(count)) for _ in group]
        for _, pivots, free in self.shapes:
            for values in itertools.product(range(q), repeat=len(free)):
                rows = _echelon_rows(self.n, pivots, free, values)
                for table, (gather, fixes) in zip(tables, actions):
                    image = []
                    for row in rows:
                        mapped = [row[k] for k in gather]
                        for j, terms in fixes:
                            x = 0
                            for k, c in terms:
                                x += c * row[k]
                            mapped[j] = x % q
                        image.append(mapped)
                    start, slots = shape_of[reduce_rows(image, q)]
                    number = 0
                    for i, j in slots:
                        number = number * q + image[i][j]
                    table.append(start + number)
        return tables

    def build(self, index: int):
        q, bases = self.field.p, []
        for digit in self.digits(index):
            start, pivots, free = self.shapes[bisect.bisect_right(self.offsets, digit) - 1]
            values = _digits_base_q(digit - start, q, len(free))
            rows = _echelon_rows(self.n, pivots, free, values)
            bases.append(_basis(self.field, self.n, rows))
        return self.make(*bases)


def _census_space(category: str, field: FieldSpec, dims):
    if category in QUIVERS:
        return _QuiverSpace(field, QUIVERS[category], dims)
    if category == "LinRel1":
        (d,) = dims
        group = [direct_sum(g, g) for g in _gl_generators(field, d)]
        return _RelationSpace(
            field, 2 * d, group, 1, lambda b: RelObj._trusted(field, d, d, b)
        )
    d1, d2 = dims
    one1, one2 = Matrix.identity(field, d1), Matrix.identity(field, d2)
    group = [direct_sum(g, one2) for g in _gl_generators(field, d1)]
    group += [direct_sum(one1, g) for g in _gl_generators(field, d2)]
    return _RelationSpace(
        field,
        d1 + d2,
        group,
        2,
        lambda b1, b2: PairRelObj._trusted(field, d1, d2, b1, b2),
    )


def _orbits(space):
    """Yield (number of the representative, orbit size) for every orbit, in
    order of the representatives' numbers."""
    total = space.total
    visited = bytearray((total + 7) >> 3)
    code = _typecode(total)
    for start in range(total):
        if visited[start >> 3] >> (start & 7) & 1:
            continue
        visited[start >> 3] |= 1 << (start & 7)
        orbit = array(code, [start])
        for index in orbit:  # breadth-first: the loop reaches appended images
            for move in space.moves:
                image = space.image(move, index)
                byte, bit = image >> 3, 1 << (image & 7)
                if not visited[byte] & bit:
                    visited[byte] |= bit
                    orbit.append(image)
        yield start, len(orbit)


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
    means the orbit walk or the hom system is wrong."""
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


def _verdicts(obj: CensusObject, orbit_size: int, group_order: int) -> tuple:
    """(indecomposable, tag) of one class representative."""
    indec = _decide_indecomposable(obj, orbit_size, group_order)
    tag = None
    if indec:
        try:
            tag = classify_indecomposable(obj)
        except UnclassifiedSummand:
            tag = None
    return indec, tag


def census(
    category: str,
    field: FieldSpec,
    dims,
    *,
    workers: int = 1,
) -> CensusReport:
    """Enumerate every object at the given dimension vector, split the
    objects into isomorphism classes by walking the orbits of
    G = prod_v GL(d_v, q) through per-factor permutation tables, and report
    each class's first-seen representative, orbit size, indecomposability
    and canonical-tag match (tag None on an indecomposable class means
    UNMATCHED; decomposable classes carry no tag).  Indecomposability is
    certified by counting: q^dim End - |G| / orbit size is a power of q.
    With workers > 1 the representatives are decided and classified in that
    many processes; the report does not depend on the count."""
    dims = _check_inputs(category, field, dims)
    total = enumeration_size(category, field, dims)
    space = _census_space(category, field, dims)
    orbits = [(space.build(index), size) for index, size in _orbits(space)]

    reps, sizes = zip(*orbits)  # a cell has at least one object
    decide = functools.partial(_verdicts, group_order=_group_order(field, dims))
    if workers > 1 and len(reps) > 1:
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
            verdicts = list(pool.map(decide, reps, sizes))
    else:
        verdicts = list(map(decide, reps, sizes))
    entries = [
        ClassEntry(obj, size, indec, tag)
        for (obj, size), (indec, tag) in zip(orbits, verdicts)
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
