"""Brute-force isomorphism-class census over small finite fields.

For a fixed category and dimension vector, enumerate *every* object —
all matrix assignments for a quiver shape, or all subspaces (pairs of
subspaces) for the relation categories — split them into isomorphism
classes, decide indecomposability of one representative per class, and
match each indecomposable class against the canonical tag tables.

The isomorphism classes at a fixed dimension vector are the orbits of
the group G = prod_v GL(d_v, q) acting by change of basis, so the census
finds them without any isomorphism test: it scans the objects in
canonical order and walks the orbit of each object not yet visited
breadth-first under a small generating set of G (the orbit algorithm of
Holt-Eick-O'Brien, *Handbook of Computational Group Theory*, 2005, §4.1).
Visited objects are marked in a bitmap indexed by their position in the
canonical enumeration.  The first object of each orbit is its class
representative, so classes come out in order of first appearance.

The enumeration is deterministic: matrix entries run row-major in the
field's canonical element order, and subspace bases run over reduced
echelon forms ordered by (rank, pivot set, free entries).
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing
import warnings
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Union

from .canon import IndecompTag, classify_indecomposable
from .errors import (
    IndecomposabilityUndecided,
    ShapeError,
    TooLarge,
    UnclassifiedSummand,
    UnmatchedClass,
    UnsupportedField,
)
from .fields import FieldSpec
from .matrices import Matrix, direct_sum, inverse, rref
from .quivers import QUIVERS, QuiverRep, is_indecomposable
from .relations import PairRelObj, RelObj
from . import functors

CensusObject = Union[QuiverRep, RelObj, PairRelObj]

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
    """One isomorphism class: representative, orbit size, verdicts."""

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


def _echelon_bases(field: FieldSpec, n: int, shape) -> "itertools.chain":
    """All subspace basis matrices (n rows, rank columns) with the given
    reduced echelon shape; each subspace of k^n appears exactly once."""
    r, pivots = shape
    free = _echelon_free_positions(n, pivots)
    elements = field.elements()
    for values in itertools.product(elements, repeat=len(free)):
        rows = [[field.zero()] * n for _ in range(r)]
        for i, p in enumerate(pivots):
            rows[i][p] = field.one()
        for (i, j), v in zip(free, values):
            rows[i][j] = v
        # transpose: columns of the object basis are the echelon rows
        entries = [rows[i][j] for j in range(n) for i in range(r)]
        yield Matrix(field, n, r, entries)


def _base_q(digits, q: int) -> int:
    """The number with the given base-q digits, most significant first."""
    number = 0
    for x in digits:
        number = number * q + x
    return number


# -- the group action -------------------------------------------------------------
#
# Each census space below lists its objects ("states") in canonical order,
# gives every state its index in that order, and turns each generator of G
# into a move: a function from a state to its image and the image's index.


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


class _QuiverSpace:
    """Representations as tuples of arrow matrices, indexed by their entries
    read as one base-q number; g acts by M_a -> g_t M_a g_s^-1."""

    def __init__(self, field: FieldSpec, quiver, dims):
        self.field, self.quiver, self.dims = field, quiver, dims
        self.shapes = [
            (dims[quiver.vertex_index(a.target)], dims[quiver.vertex_index(a.source)])
            for a in quiver.arrows
        ]
        self.moves = [
            functools.partial(self._move, v, g, inverse(g))
            for v, d in zip(quiver.vertices, dims)
            for g in _gl_generators(field, d)
        ]

    def states(self):
        cells = sum(t * s for t, s in self.shapes)
        for values in itertools.product(self.field.elements(), repeat=cells):
            mats, pos = [], 0
            for t, s in self.shapes:
                mats.append(Matrix(self.field, t, s, values[pos : pos + t * s]))
                pos += t * s
            yield tuple(mats)

    def _move(self, v, g, g_inv, mats) -> tuple:
        image = []
        for a, m in zip(self.quiver.arrows, mats):
            if a.target == v:
                m = g @ m
            if a.source == v:
                m = m @ g_inv
            image.append(m)
        entries = itertools.chain.from_iterable(m.entries for m in image)
        return tuple(image), _base_q(entries, self.field.p)

    def build(self, mats) -> QuiverRep:
        return QuiverRep(self.field, self.quiver, self.dims, mats)


class _RelationSpace:
    """Tuples of subspaces of k^n (one for LinRel1, two for PairRel), each
    held as the reduced row echelon form whose rows span it (the transpose
    of its canonical basis) and indexed by its position in _echelon_bases
    order; the index of a pair is index_1 * S + index_2 with S the number of
    subspaces.  Each group element acts on k^n as an invertible matrix G,
    by basis -> column_echelon(G basis), that is rows -> rref(rows G^T)."""

    def __init__(self, field: FieldSpec, n: int, group, arity: int, make):
        self.field, self.n, self.arity, self.make = field, n, arity, make
        q = field.p
        self.shapes = {}  # pivots -> (index of the first subspace, free slots)
        offset = 0
        for _, pivots in _echelon_shapes(n):
            free = _echelon_free_positions(n, pivots)
            self.shapes[pivots] = (offset, [i * n + j for i, j in free])
            offset += q ** len(free)
        self.count = offset
        self.moves = [functools.partial(self._move, g.transpose()) for g in group]

    def _subspaces(self):
        for shape in _echelon_shapes(self.n):
            for basis in _echelon_bases(self.field, self.n, shape):
                yield basis.transpose()

    def states(self):
        if self.arity == 1:
            return ((rows,) for rows in self._subspaces())
        return itertools.product(list(self._subspaces()), repeat=self.arity)

    def _move(self, g_t, state) -> tuple:
        image = []
        index = 0
        for rows in state:
            reduced, _, pivots = rref(rows @ g_t)
            image.append(reduced)
            start, free = self.shapes[pivots]
            index = index * self.count + start
            index += _base_q((reduced.entries[k] for k in free), self.field.p)
        return tuple(image), index

    def build(self, state):
        return self.make(*(rows.transpose() for rows in state))


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


def _orbits(space, total: int):
    """Yield (representative state, orbit size) for every orbit, in order of
    the representatives' first appearance in the canonical enumeration."""
    visited = bytearray((total + 7) >> 3)
    for start, first in enumerate(space.states()):
        if visited[start >> 3] >> (start & 7) & 1:
            continue
        visited[start >> 3] |= 1 << (start & 7)
        size = 1
        frontier = deque([first])
        while frontier:
            state = frontier.popleft()
            for move in space.moves:
                image, index = move(state)
                byte, bit = index >> 3, 1 << (index & 7)
                if not visited[byte] & bit:
                    visited[byte] |= bit
                    size += 1
                    frontier.append(image)
        yield first, size


# -- verdicts ---------------------------------------------------------------------


def _object_dims(obj: CensusObject) -> tuple:
    if isinstance(obj, QuiverRep):
        return obj.dims
    if isinstance(obj, PairRelObj):
        return (obj.dim1, obj.dim2, obj.basis1.cols, obj.basis2.cols)
    return (obj.dim1, obj.dim2, obj.rel_dim)


def _decide_indecomposable(obj: CensusObject, seed: int) -> bool:
    if isinstance(obj, QuiverRep):
        embedded = obj
    else:
        index = 6 if isinstance(obj, PairRelObj) else 5
        embedded = functors.apply_functor(index, obj)
    if embedded.total_dim == 0:
        return False
    verdict = is_indecomposable(embedded, seed=seed)
    if not verdict.certified:
        raise IndecomposabilityUndecided(
            f"census cannot certify a class at dims {_object_dims(obj)}"
        )
    return verdict.indecomposable


def _verdicts(obj: CensusObject, seed: int) -> tuple:
    """(indecomposable, tag) of one class representative."""
    indec = _decide_indecomposable(obj, seed)
    tag = None
    if indec:
        try:
            tag = classify_indecomposable(obj, seed=seed)
        except UnclassifiedSummand:
            tag = None
    return indec, tag


def census(
    category: str,
    field: FieldSpec,
    dims,
    *,
    workers: int = 1,
    seed: int = 0,
) -> CensusReport:
    """Enumerate every object at the given dimension vector, split the
    objects into isomorphism classes by walking the orbits of
    prod_v GL(d_v, q), and report each class's first-seen representative,
    orbit size, indecomposability and canonical-tag match (tag None on an
    indecomposable class means UNMATCHED; decomposable classes carry no
    tag).  With workers > 1 the representatives are decided and classified
    in that many processes; the report does not depend on the count."""
    dims = _check_inputs(category, field, dims)
    total = enumeration_size(category, field, dims)
    space = _census_space(category, field, dims)
    orbits = [(space.build(state), size) for state, size in _orbits(space, total)]

    reps = [obj for obj, _ in orbits]
    decide = functools.partial(_verdicts, seed=seed)
    if workers > 1 and len(reps) > 1:
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
            verdicts = list(pool.map(decide, reps))
    else:
        verdicts = [decide(obj) for obj in reps]
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
    seed: int = 0,
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
            report = census(category, field, dims, workers=workers, seed=seed)
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
