"""Linear relations: subspaces R of V1 + V2, morphisms, duality,
composition, idempotent splitting, and Krull-Schmidt decomposition.

A relation object stores a canonical full-column-rank basis matrix of its
span (first ``dim1`` coordinates in V1); object identity is span equality,
which the canonical form makes decidable by structural equality.

Hom spaces, isomorphism and decomposition run on quiver representations:
a relation R is the diagram V1 <- R -> V2 of the two blocks of its basis
(the classical view of additive relations, Mac Lane, PNAS 47, 1961), so a
pair of relations is an S-representation and a relation on a single space
a K-representation (:func:`_as_rep`).  The native splitting construction
is exposed as :func:`rel_split_idempotent`.
"""

from __future__ import annotations

from typing import Union

from .errors import (
    DimensionMismatch,
    FieldMismatch,
    ImagePullbackError,
    NotIdempotent,
    ShapeError,
    SourceMismatch,
)
from .fields import FieldSpec
from .matrices import (
    Matrix,
    column_echelon,
    column_span_basis,
    direct_sum as mat_direct_sum,
    hstack,
    is_invertible,
    kernel_basis,
    random_matrix,
    solve,
    vstack,
)
from .quivers import QUIVERS, QuiverRep, decompose, hom_basis, is_isomorphic


class RelObj:
    """One relation R inside V1 + V2."""

    __slots__ = ("field", "dim1", "dim2", "basis")

    def __init__(self, field: FieldSpec, dim1: int, dim2: int, basis: Matrix):
        if dim1 < 0 or dim2 < 0:
            raise ShapeError("negative space dimension")
        if basis.field != field:
            raise FieldMismatch(f"{basis.field.name} vs {field.name}")
        if basis.rows != dim1 + dim2:
            raise ShapeError(
                f"basis must have dim1+dim2 = {dim1 + dim2} rows, got {basis.rows}"
            )
        canon = column_echelon(basis)  # full column rank, span-canonical
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim1", dim1)
        object.__setattr__(self, "dim2", dim2)
        object.__setattr__(self, "basis", canon)

    def __setattr__(self, name, value):
        raise AttributeError("RelObj is immutable")

    def __reduce__(self):
        return (RelObj, (self.field, self.dim1, self.dim2, self.basis))

    @staticmethod
    def _trusted(field: FieldSpec, dim1: int, dim2: int, canonical: Matrix) -> "RelObj":
        """Skip canonicalization for a basis already in canonical column-echelon
        form (enumeration hot path; form equality checked by tests)."""
        obj = object.__new__(RelObj)
        object.__setattr__(obj, "field", field)
        object.__setattr__(obj, "dim1", dim1)
        object.__setattr__(obj, "dim2", dim2)
        object.__setattr__(obj, "basis", canonical)
        return obj

    @property
    def rel_dim(self) -> int:
        return self.basis.cols

    @property
    def top(self) -> Matrix:
        return self.basis.take_rows(0, self.dim1)

    @property
    def bottom(self) -> Matrix:
        return self.basis.take_rows(self.dim1, self.dim1 + self.dim2)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RelObj)
            and self.field == other.field
            and (self.dim1, self.dim2) == (other.dim1, other.dim2)
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field, self.dim1, self.dim2, self.basis))

    def __repr__(self):
        return f"RelObj({self.field.name}, {self.dim1}+{self.dim2}, dim R={self.rel_dim})"

    def sort_key(self):
        return (self.dim1, self.dim2, self.rel_dim, self.basis.entries)


class PairRelObj:
    """Two relations R1, R2 on the same pair of spaces V1, V2."""

    __slots__ = ("field", "dim1", "dim2", "basis1", "basis2")

    def __init__(
        self, field: FieldSpec, dim1: int, dim2: int, basis1: Matrix, basis2: Matrix
    ):
        r1 = RelObj(field, dim1, dim2, basis1)
        r2 = RelObj(field, dim1, dim2, basis2)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim1", dim1)
        object.__setattr__(self, "dim2", dim2)
        object.__setattr__(self, "basis1", r1.basis)
        object.__setattr__(self, "basis2", r2.basis)

    def __setattr__(self, name, value):
        raise AttributeError("PairRelObj is immutable")

    def __reduce__(self):
        return (
            PairRelObj,
            (self.field, self.dim1, self.dim2, self.basis1, self.basis2),
        )

    @staticmethod
    def _trusted(
        field: FieldSpec, dim1: int, dim2: int, canon1: Matrix, canon2: Matrix
    ) -> "PairRelObj":
        """Skip canonicalization for bases already in canonical form."""
        obj = object.__new__(PairRelObj)
        object.__setattr__(obj, "field", field)
        object.__setattr__(obj, "dim1", dim1)
        object.__setattr__(obj, "dim2", dim2)
        object.__setattr__(obj, "basis1", canon1)
        object.__setattr__(obj, "basis2", canon2)
        return obj

    @property
    def rel1(self) -> RelObj:
        return RelObj._trusted(self.field, self.dim1, self.dim2, self.basis1)

    @property
    def rel2(self) -> RelObj:
        return RelObj._trusted(self.field, self.dim1, self.dim2, self.basis2)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PairRelObj)
            and self.field == other.field
            and (self.dim1, self.dim2) == (other.dim1, other.dim2)
            and self.basis1 == other.basis1
            and self.basis2 == other.basis2
        )

    def __hash__(self):
        return hash((self.field, self.dim1, self.dim2, self.basis1, self.basis2))

    def __repr__(self):
        return (
            f"PairRelObj({self.field.name}, {self.dim1}+{self.dim2}, "
            f"dims R=({self.basis1.cols},{self.basis2.cols}))"
        )

    def sort_key(self):
        return (
            self.dim1,
            self.dim2,
            self.basis1.cols,
            self.basis2.cols,
            self.basis1.entries,
            self.basis2.entries,
        )


class RelMorphism:
    """A pair of linear maps (f1, f2) carrying each stored relation of the
    source into the corresponding relation of the target."""

    __slots__ = ("source", "target", "f1", "f2")

    def __init__(self, source, target, f1: Matrix, f2: Matrix):
        if source.field != target.field:
            raise FieldMismatch(f"{source.field.name} vs {target.field.name}")
        if (f1.rows, f1.cols) != (target.dim1, source.dim1):
            raise ShapeError(
                f"f1 must be {target.dim1}x{source.dim1}, got {f1.rows}x{f1.cols}"
            )
        if (f2.rows, f2.cols) != (target.dim2, source.dim2):
            raise ShapeError(
                f"f2 must be {target.dim2}x{source.dim2}, got {f2.rows}x{f2.cols}"
            )
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "f1", f1)
        object.__setattr__(self, "f2", f2)

    def __setattr__(self, name, value):
        raise AttributeError("RelMorphism is immutable")

    @staticmethod
    def identity(obj) -> "RelMorphism":
        f = obj.field
        return RelMorphism(
            obj, obj, Matrix.identity(f, obj.dim1), Matrix.identity(f, obj.dim2)
        )

    def is_valid(self) -> bool:
        pairs = _relation_pairs(self.source, self.target)
        for r_src, r_tgt in pairs:
            image = vstack(self.f1 @ r_src.top, self.f2 @ r_src.bottom)
            if solve(r_tgt.basis, image) is None:
                return False
        return True

    @property
    def is_invertible(self) -> bool:
        return is_invertible(self.f1) and is_invertible(self.f2)

    def __matmul__(self, other: "RelMorphism") -> "RelMorphism":
        if other.target != self.source:
            raise SourceMismatch("composition: inner target != outer source")
        return RelMorphism(
            other.source, self.target, self.f1 @ other.f1, self.f2 @ other.f2
        )

    def __add__(self, other: "RelMorphism") -> "RelMorphism":
        return RelMorphism(
            self.source, self.target, self.f1 + other.f1, self.f2 + other.f2
        )

    def scale(self, c) -> "RelMorphism":
        return RelMorphism(self.source, self.target, self.f1.scale(c), self.f2.scale(c))

    def __eq__(self, other):
        return (
            isinstance(other, RelMorphism)
            and self.source == other.source
            and self.target == other.target
            and self.f1 == other.f1
            and self.f2 == other.f2
        )

    def __hash__(self):
        return hash((self.source, self.target, self.f1, self.f2))


def _relation_pairs(source, target):
    if isinstance(source, PairRelObj) != isinstance(target, PairRelObj):
        raise ShapeError("cannot mix single relations and relation pairs")
    if isinstance(source, PairRelObj):
        return [(source.rel1, target.rel1), (source.rel2, target.rel2)]
    return [(source, target)]


# -- constructions --------------------------------------------------------------


def rel_zero(field: FieldSpec, dim1: int, dim2: int) -> RelObj:
    return RelObj(field, dim1, dim2, Matrix.zeros(field, dim1 + dim2, 0))


def rel_full(field: FieldSpec, dim1: int, dim2: int) -> RelObj:
    return RelObj(field, dim1, dim2, Matrix.identity(field, dim1 + dim2))


def rel_from_operator(f: Matrix) -> RelObj:
    """The graph relation {(x, f(x))}: dim1 = domain, dim2 = codomain."""
    ident = Matrix.identity(f.field, f.cols)
    return RelObj(f.field, f.cols, f.rows, vstack(ident, f))


def rel_compose(sigma: RelObj, rho: RelObj) -> RelObj:
    """The composite relation: x (sigma . rho) z iff x rho y and y sigma z
    for some middle y.  Requires rho.dim2 = sigma.dim1."""
    if rho.field != sigma.field:
        raise FieldMismatch(f"{rho.field.name} vs {sigma.field.name}")
    if rho.dim2 != sigma.dim1:
        raise DimensionMismatch(
            f"compose: middle spaces differ ({rho.dim2} vs {sigma.dim1})"
        )
    # pairs (u, w) of coefficient vectors with equal middle component
    matcher = hstack(rho.bottom, -sigma.top)
    pairs = kernel_basis(matcher)
    u = pairs.take_rows(0, rho.rel_dim)
    w = pairs.take_rows(rho.rel_dim, rho.rel_dim + sigma.rel_dim)
    return RelObj(
        rho.field,
        rho.dim1,
        sigma.dim2,
        vstack(rho.top @ u, sigma.bottom @ w),
    )


def rel_inverse(rho: RelObj) -> RelObj:
    """Swap the two coordinate blocks."""
    return RelObj(rho.field, rho.dim2, rho.dim1, vstack(rho.bottom, rho.top))


def rel_dual(rho: RelObj) -> RelObj:
    """The relation on the dual spaces cut out by the pairing condition
    (functionals f on V1, g on V2 with f(x) = g(y) whenever x rho y);
    dim R* = dim1 + dim2 - dim R."""
    conditions = hstack(rho.top.transpose(), -rho.bottom.transpose())
    return RelObj(rho.field, rho.dim1, rho.dim2, kernel_basis(conditions))


def rel_direct_sum(a, b):
    """Direct sum of relation objects (single or pair, matching kinds)."""
    if a.field != b.field:
        raise FieldMismatch(f"{a.field.name} vs {b.field.name}")
    if isinstance(a, PairRelObj) != isinstance(b, PairRelObj):
        raise ShapeError("cannot mix single relations and relation pairs")
    d1, d2 = a.dim1 + b.dim1, a.dim2 + b.dim2

    def combined(ra: Matrix, rb: Matrix) -> Matrix:
        f = a.field
        top = mat_direct_sum(ra.take_rows(0, a.dim1), rb.take_rows(0, b.dim1))
        bot = mat_direct_sum(
            ra.take_rows(a.dim1, ra.rows), rb.take_rows(b.dim1, rb.rows)
        )
        return vstack(top, bot)

    if isinstance(a, PairRelObj):
        return PairRelObj(
            a.field, d1, d2, combined(a.basis1, b.basis1), combined(a.basis2, b.basis2)
        )
    return RelObj(a.field, d1, d2, combined(a.basis, b.basis))


# -- relations as quiver representations ---------------------------------------


def _as_rep(rho) -> QuiverRep:
    """The relation object as a representation of S or K whose source maps
    are the blocks of its bases.

    A pair (R1, R2) on V1, V2 becomes the S-representation with dims
    (d1, d2, r1, r2) and arrows alpha = top(R1), beta = bottom(R1),
    gamma = top(R2), delta = bottom(R2); a relation R on a single space V
    (dim1 = dim2) becomes the K-representation with dims (d, r) and arrows
    alpha = top(R), beta = bottom(R).  The source maps are jointly
    injective, so the component at each R of a morphism is forced by the
    components at the V's, and the maps carrying relations into relations
    are exactly the V-components of morphisms: both maps are full and
    faithful.
    """
    f = rho.field
    if isinstance(rho, PairRelObj):
        r1, r2 = rho.rel1, rho.rel2
        return QuiverRep._trusted(
            f,
            QUIVERS["S"],
            (rho.dim1, rho.dim2, r1.rel_dim, r2.rel_dim),
            (r1.top, r1.bottom, r2.top, r2.bottom),
        )
    if rho.dim1 != rho.dim2:
        raise ShapeError("a relation is a K-representation only on a single space")
    return QuiverRep._trusted(
        f, QUIVERS["K"], (rho.dim1, rho.rel_dim), (rho.top, rho.bottom)
    )


def _from_rep(rep: QuiverRep):
    """The relation object whose _as_rep is rep.

    Raises ImagePullbackError when the source maps of rep are not jointly
    injective: no relation maps to such a representation, and the
    canonical basis would silently drop the dependent columns.
    """
    f = rep.field
    if rep.quiver is QUIVERS["S"]:
        alpha, beta, gamma, delta = rep.mats
        obj = PairRelObj(
            f, rep.dims[0], rep.dims[1], vstack(alpha, beta), vstack(gamma, delta)
        )
    else:
        obj = RelObj(f, rep.dims[0], rep.dims[0], vstack(*rep.mats))
    if _as_rep(obj).dims != rep.dims:
        raise ImagePullbackError(
            f"summand at dims {rep.dims} has source maps that are not injective"
        )
    return obj


def _as_pair(rho) -> PairRelObj:
    """A single relation R as the pair (R, R); both have the same morphisms."""
    if isinstance(rho, PairRelObj):
        return rho
    return PairRelObj._trusted(rho.field, rho.dim1, rho.dim2, rho.basis, rho.basis)


def _check_pair_args(rho, sigma) -> None:
    if rho.field != sigma.field:
        raise FieldMismatch(f"{rho.field.name} vs {sigma.field.name}")
    if isinstance(rho, PairRelObj) != isinstance(sigma, PairRelObj):
        raise ShapeError("cannot mix single relations and relation pairs")


def _check_one_space_args(rho: RelObj, sigma: RelObj) -> None:
    if rho.field != sigma.field:
        raise FieldMismatch(f"{rho.field.name} vs {sigma.field.name}")
    if rho.dim1 != rho.dim2 or sigma.dim1 != sigma.dim2:
        raise DimensionMismatch("one-space morphisms need dim1 = dim2")


# -- hom and isomorphism --------------------------------------------------------


def rel_hom_basis(rho, sigma) -> list[RelMorphism]:
    """Canonical basis of morphisms (f1, f2) from rho to sigma: the V1- and
    V2-components of quivers.hom_basis on the S-representations of the
    pairs (a single relation R counts as the pair (R, R))."""
    _check_pair_args(rho, sigma)
    homs = hom_basis(_as_rep(_as_pair(rho)), _as_rep(_as_pair(sigma)))
    return [RelMorphism(rho, sigma, h.comps[0], h.comps[1]) for h in homs]


def lrel_hom_basis(rho: RelObj, sigma: RelObj) -> list[Matrix]:
    """Morphisms in the one-space category: a single map f used on both
    coordinates (requires dim1 = dim2 on both objects); the V-components of
    quivers.hom_basis on the K-representations."""
    _check_one_space_args(rho, sigma)
    return [h.comps[0] for h in hom_basis(_as_rep(rho), _as_rep(sigma))]


def rel_is_isomorphic(rho, sigma, seed: int = 0) -> bool:
    """Certified isomorphism test for relations and relation pairs:
    quivers.is_isomorphic on the S-representations, which reflect
    isomorphism because _as_rep is full and faithful; a single relation R
    counts as the pair (R, R)."""
    _check_pair_args(rho, sigma)
    return is_isomorphic(_as_rep(_as_pair(rho)), _as_rep(_as_pair(sigma)), seed)


def lrel_is_isomorphic(rho: RelObj, sigma: RelObj, seed: int = 0) -> bool:
    """Certified isomorphism test in the one-space category (a single
    invertible f used on both coordinates): quivers.is_isomorphic on the
    K-representations."""
    _check_one_space_args(rho, sigma)
    return is_isomorphic(_as_rep(rho), _as_rep(sigma), seed)


# -- idempotent splitting -------------------------------------------------------


def rel_split_idempotent(rho, e: RelMorphism):
    """Split an idempotent endomorphism: returns (sigma, p, q) with
    qp = e and pq = identity on sigma.

    sigma lives on the images of the two components; its relations are the
    images of the stored relations under (e1 + e2), written in the image
    bases.
    """
    if e.source != rho or e.target != rho:
        raise NotIdempotent("endomorphism of a different object")
    if not e.is_valid():
        raise NotIdempotent("not a valid endomorphism")
    if e.f1 @ e.f1 != e.f1 or e.f2 @ e.f2 != e.f2:
        raise NotIdempotent("e is not idempotent")
    f = rho.field
    b1 = column_span_basis(e.f1)
    b2 = column_span_basis(e.f2)
    d1, d2 = b1.cols, b2.cols

    def push(rel: RelObj) -> Matrix:
        image = vstack(e.f1 @ rel.top, e.f2 @ rel.bottom)
        coords = solve(mat_direct_sum(b1, b2), image)
        if coords is None:  # pragma: no cover - spans by construction
            raise NotIdempotent("image escaped the span of e")
        return coords

    if isinstance(rho, PairRelObj):
        sigma = PairRelObj(f, d1, d2, push(rho.rel1), push(rho.rel2))
    else:
        sigma = RelObj(f, d1, d2, push(rho))
    p1, p2 = solve(b1, e.f1), solve(b2, e.f2)
    p = RelMorphism(rho, sigma, p1, p2)
    q = RelMorphism(sigma, rho, b1, b2)
    if not p.is_valid() or not q.is_valid():
        raise NotIdempotent("induced maps do not respect the relations")
    qp = q @ p
    if qp.f1 != e.f1 or qp.f2 != e.f2:
        raise NotIdempotent("qp != e")
    pq = p @ q
    if pq.f1 != Matrix.identity(f, d1) or pq.f2 != Matrix.identity(f, d2):
        raise NotIdempotent("pq != identity")
    return sigma, p, q


# -- decomposition ----------------------------------------------------------------


def rel_decompose(rho: Union[RelObj, PairRelObj], seed: int = 0):
    """Krull-Schmidt decomposition: quivers.decompose on the S-representation
    of a pair, or the K-representation of a relation on a single space,
    with each summand read back as a relation object.  A summand of a
    representation with injective source maps has them too; _from_rep
    checks it."""
    if not isinstance(rho, PairRelObj) and rho.dim1 != rho.dim2:
        raise DimensionMismatch("decomposition of a single relation needs dim1 = dim2")
    out = [(_from_rep(rep), mult) for rep, mult in decompose(_as_rep(rho), seed=seed)]
    out.sort(key=lambda pair: pair[0].sort_key())
    return out


# -- random generation ----------------------------------------------------------


def random_rel(field: FieldSpec, dim1: int, dim2: int, rel_dim: int, rng) -> RelObj:
    if rel_dim > dim1 + dim2:
        raise DimensionMismatch("relation dimension exceeds dim1 + dim2")
    while True:
        cand = random_matrix(field, dim1 + dim2, rel_dim, rng)
        if cand.rank == rel_dim:
            return RelObj(field, dim1, dim2, cand)


def random_pairrel(
    field: FieldSpec, dim1: int, dim2: int, r1: int, r2: int, rng
) -> PairRelObj:
    a = random_rel(field, dim1, dim2, r1, rng)
    b = random_rel(field, dim1, dim2, r2, rng)
    return PairRelObj(field, dim1, dim2, a.basis, b.basis)
