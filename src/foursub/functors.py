"""The six embeddings into four-subspace representations, their action on
morphisms, the gateway map eta, essential-image predicates with witnesses,
hom-transport verification, and extension-closure witnesses.

The six embeddings are one.  ``_as_s`` places an object of each source
category in S, putting identities on the S-arrows its category lacks, and
functor 1 (S -> F) does the rest: it realizes the ambient space concretely
as the block direct sum V1 + V2 (V1 coordinates first), with the block
column injections as the two inclusion arms and the stacked S-arrows as the
remaining arms.  Criterion 5's image nesting follows.  The image of functor
i holds the F-representations whose S-representation is invertible on the
arrows where ``_as_s`` puts identities (with injective relation arms for 5
and 6).  K and C put an identity on delta, as D does, so their images lie
inside D's; a relation R on one space is the pair (diagonal, R), and the
diagonal's arm is injective, so LinRel1's image lies inside PairRel's.

Because every image predicate first requires eta (the assembled map
V1+V2 -> V0) to be invertible, the S-representation behind a member of an
image is unique -- its arrows are read off from eta^{-1} applied to the two
remaining arms -- so no search is involved anywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field
from typing import Optional, Union

from .errors import (
    FieldMismatch,
    NotInC5,
    RestrictionNotContained,
    ShapeError,
    SourceMismatch,
)
from .matrices import (
    Matrix,
    direct_sum as mat_direct_sum,
    hstack,
    inverse,
    is_invertible,
    random_matrix,
    solve,
    vstack,
)
from .quivers import QUIVERS, QuiverRep, RepMorphism
from .relations import PairRelObj, RelMorphism, RelObj, _as_rep, _from_rep

FUNCTOR_SOURCES = {
    1: "S",
    2: "D",
    3: "K",
    4: "C",
    5: "LinRel1",
    6: "PairRel",
}

_F = QUIVERS["F"]
_S = QUIVERS["S"]


def _check_functor_index(i: int) -> None:
    if i not in FUNCTOR_SOURCES:
        raise SourceMismatch(f"no embedding with index {i}")


def _require_source(i: int, obj) -> None:
    _check_functor_index(i)
    if i in (1, 2, 3, 4):
        want = FUNCTOR_SOURCES[i]
        if not isinstance(obj, QuiverRep) or obj.quiver.name != want:
            raise SourceMismatch(f"embedding {i} needs a {want}-representation")
    elif i == 5:
        if not isinstance(obj, RelObj):
            raise SourceMismatch("embedding 5 needs a relation object")
        if obj.dim1 != obj.dim2:
            raise SourceMismatch("embedding 5 needs a relation on a single space")
    else:
        if not isinstance(obj, PairRelObj):
            raise SourceMismatch("embedding 6 needs a pair of relations")


# How _as_s places each source category in S.  First, for each S-vertex,
# the position of its space in the order of _s_vertices.  Then, for each
# S-arrow, the source arrow on it, or None where _as_s puts an identity.  A
# relation on one space is placed through its K-representation
# (relations._as_rep: alpha = top, beta = bottom).
_PLACEMENTS = {
    "S": ((0, 1, 2, 3), ("alpha", "beta", "gamma", "delta")),
    "D": ((0, 1, 2, 1), ("alpha", "beta", "gamma", None)),
    "K": ((0, 1, 1, 1), ("alpha", None, "beta", None)),
    "C": ((0, 1, 0, 1), (None, "beta", "alpha", None)),
    "LinRel1": ((0, 0, 0, 1), (None, None, "alpha", "beta")),
    "PairRel": ((0, 1, 2, 3), ("alpha", "beta", "gamma", "delta")),
}


def _s_vertices(category: str, values) -> tuple:
    """Per-vertex values of a source object (its dims, or the components of
    a morphism) placed at the four vertices of its S-representation.

    The values come in the order of canon._object_shape: the quiver's
    vertices, (V, R) for a relation R on one space V, and (V1, V2, R1, R2)
    for a pair of relations.
    """
    return tuple(values[k] for k in _PLACEMENTS[category][0])


def _as_s(i: int, obj) -> QuiverRep:
    """The S-representation that functor i embeds through functor 1.

    A pair of relations is its S-representation; D, K, C and a relation R on
    V get identities on the S-arrows their category lacks (R becomes the pair
    (diagonal, R)).  A morphism of S-representations agrees at the two ends
    of each identity, so the morphisms of the images are exactly the images
    of the source morphisms: the map is full and faithful.
    """
    _require_source(i, obj)
    rep = obj if isinstance(obj, QuiverRep) else _as_rep(obj)
    f, category = rep.field, FUNCTOR_SOURCES[i]
    dims = _s_vertices(category, rep.dims)
    mats = [
        rep.mat(name) if name else Matrix.identity(f, dims[ti])
        for (_, ti), name in zip(_S.ends, _PLACEMENTS[category][1])
    ]
    return QuiverRep(f, _S, dims, mats)


def apply_functor(i: int, obj) -> QuiverRep:
    """Embed an object of the i-th source category as a four-subspace
    representation: functor 1 of its S-representation."""
    s = _as_s(i, obj)
    f = s.field
    d1, d2, d3, d4 = s.dims
    alpha, beta, gamma, delta = s.mats
    arm1 = vstack(Matrix.identity(f, d1), Matrix.zeros(f, d2, d1))
    arm2 = vstack(Matrix.zeros(f, d1, d2), Matrix.identity(f, d2))
    return QuiverRep(
        f,
        _F,
        (d1 + d2, d1, d2, d3, d4),
        (arm1, arm2, vstack(alpha, beta), vstack(gamma, delta)),
    )


def _restrict_along(target_basis: Matrix, image: Matrix) -> Matrix:
    out = solve(target_basis, image)
    if out is None:
        raise RestrictionNotContained(
            "the morphism does not carry the relation into the target relation"
        )
    return out


def _source_components(i: int, mor) -> tuple:
    """The components of a source morphism in the order of _s_vertices; a
    relation morphism's components at the relations are its restrictions."""
    _check_functor_index(i)
    if i in (1, 2, 3, 4):
        if not isinstance(mor, RepMorphism) or mor.source.quiver.name != FUNCTOR_SOURCES[i]:
            raise SourceMismatch(
                f"embedding {i} needs a morphism of {FUNCTOR_SOURCES[i]}-representations"
            )
        return mor.comps
    if not isinstance(mor, RelMorphism):
        raise SourceMismatch(f"embedding {i} needs a relation morphism")
    if i == 5 and mor.f1 != mor.f2:
        raise SourceMismatch(
            "embedding 5 needs a one-space morphism (equal components)"
        )
    src, tgt = mor.source, mor.target
    _require_source(i, src)
    _require_source(i, tgt)
    l0 = mat_direct_sum(mor.f1, mor.f2)
    if i == 5:
        return (mor.f1, _restrict_along(tgt.basis, l0 @ src.basis))
    r1 = _restrict_along(tgt.basis1, l0 @ src.basis1)
    r2 = _restrict_along(tgt.basis2, l0 @ src.basis2)
    return (mor.f1, mor.f2, r1, r2)


def apply_functor_mor(i: int, mor) -> RepMorphism:
    """The embedded morphism between the embedded objects: functor 1 of the
    morphism of S-representations.

    For indices 1-4 the input is a morphism of source-quiver
    representations; for 5 a relation morphism with equal components; for 6
    a relation-pair morphism.
    """
    comps = _source_components(i, mor)
    l1, l2, l3, l4 = _s_vertices(FUNCTOR_SOURCES[i], comps)
    return RepMorphism(
        apply_functor(i, mor.source),
        apply_functor(i, mor.target),
        (mat_direct_sum(l1, l2), l1, l2, l3, l4),
    )


def lrel_morphism(source: RelObj, target: RelObj, f: Matrix) -> RelMorphism:
    """Package a one-space morphism (a single map acting on both
    coordinates) as a relation morphism."""
    return RelMorphism(source, target, f, f)


# -- eta and the image predicates -----------------------------------------------


@dataclass(frozen=True)
class Eta:
    """The assembled map V1+V2 -> V0 (a single block row [arm1 | arm2])."""

    matrix: Matrix

    @property
    def is_invertible(self) -> bool:
        return is_invertible(self.matrix)


def eta(v: QuiverRep) -> Eta:
    if v.quiver.name != "F":
        raise SourceMismatch("eta is defined for four-subspace representations")
    return Eta(hstack(v.mat("alpha"), v.mat("beta")))


@dataclass(frozen=True)
class ImageResult:
    """Outcome of an essential-image test.

    Iterates as (contained, witness) for convenient unpacking; the
    coefficient blocks read off from eta^{-1} are kept for reuse.
    """

    contained: bool
    witness: Optional[Union[QuiverRep, RelObj, PairRelObj]] = None
    reason: Optional[str] = None
    blocks: dict = dataclass_field(default_factory=dict)

    def __iter__(self):
        return iter((self.contained, self.witness))

    def __bool__(self):
        return self.contained


def _from_s(i: int, w: QuiverRep):
    """A source object of functor i whose _as_s is isomorphic to w.

    The S-arrows that _as_s makes identities must be invertible (and, for
    relations, the source maps jointly injective).  The change of basis by
    their inverses turns them into identities; the other arrows are the
    source object.
    """
    if i in (1, 6):
        return w if i == 1 else _from_rep(w)
    f = w.field
    d1, d2, d3, d4 = w.dims
    alpha, beta, gamma, delta = w.mats
    if i == 2:
        mats = (alpha, beta, gamma @ inverse(delta))
        return QuiverRep(f, QUIVERS["D"], (d1, d2, d3), mats)
    if i == 3:
        mats = (alpha @ inverse(beta), gamma @ inverse(delta))
        return QuiverRep(f, QUIVERS["K"], (d1, d2), mats)
    if i == 4:
        mats = (gamma @ inverse(delta), beta @ inverse(alpha))
        return QuiverRep(f, QUIVERS["C"], (d1, d2), mats)
    mats = (inverse(alpha) @ gamma, inverse(beta) @ delta)
    return _from_rep(QuiverRep(f, QUIVERS["K"], (d3, d4), mats))


def in_image(i: int, v: QuiverRep) -> ImageResult:
    """Decide membership in the essential image of the i-th embedding and
    produce a source-category witness on success.

    Every case requires eta invertible; the S-representation w with
    functor 1 of w isomorphic to v is then unique, its arrows the blocks of
    eta^{-1} applied to the two non-inclusion arms.  v lies in the image of
    functor i exactly when the arrows of w that _as_s makes identities are
    invertible, checked in arrow order, and, for relations, the arms holding
    their bases are injective.
    """
    _check_functor_index(i)
    if v.quiver.name != "F":
        raise SourceMismatch("image predicates apply to four-subspace representations")
    _, d1, d2, d3, d4 = v.dims
    e = eta(v)
    if not e.is_invertible:
        return ImageResult(False, reason="EtaNotInvertible")
    eta_inv = inverse(e.matrix)
    gamma_coords = eta_inv @ v.mat("gamma")  # (d1+d2) x d3
    delta_coords = eta_inv @ v.mat("delta")  # (d1+d2) x d4
    w = QuiverRep(
        v.field,
        _S,
        (d1, d2, d3, d4),
        (
            gamma_coords.take_rows(0, d1),
            gamma_coords.take_rows(d1, d1 + d2),
            delta_coords.take_rows(0, d1),
            delta_coords.take_rows(d1, d1 + d2),
        ),
    )
    names = ("gamma_top", "gamma_bottom", "delta_top", "delta_bottom")
    blocks = {"eta_inv": eta_inv, **dict(zip(names, w.mats))}
    for m, name in zip(w.mats, _PLACEMENTS[FUNCTOR_SOURCES[i]][1]):
        if name is None and not (m.is_square and is_invertible(m)):
            reason = "BlockNotInvertible" if m.is_square else "NonSquareBlock"
            return ImageResult(False, reason=reason, blocks=blocks)
    relation_arms = {5: ("delta",), 6: ("gamma", "delta")}.get(i, ())
    if any(v.mat(arm).rank < v.mat(arm).cols for arm in relation_arms):
        return ImageResult(False, reason="NotInjective", blocks=blocks)
    return ImageResult(True, _from_s(i, w), blocks=blocks)


# -- hom transport ---------------------------------------------------------------


def _source_hom_basis(i: int, v, w):
    from .quivers import hom_basis as rep_hom_basis
    from .relations import lrel_hom_basis, rel_hom_basis

    if i in (1, 2, 3, 4):
        return rep_hom_basis(v, w)
    if i == 5:
        return [lrel_morphism(v, w, m) for m in lrel_hom_basis(v, w)]
    return rel_hom_basis(v, w)


def hom_transport_check(i: int, v, w) -> tuple[int, int, bool]:
    """Compare Hom(v, w) in the source category with Hom of the embedded
    objects: returns (source dim, target dim, bijective).

    The embedded basis images are checked for linear independence and for
    spanning the target hom space; both hold exactly when the transported
    map is bijective.
    """
    from .quivers import hom_basis as rep_hom_basis

    _require_source(i, v)
    _require_source(i, w)
    source_basis = _source_hom_basis(i, v, w)
    fv, fw = apply_functor(i, v), apply_functor(i, w)
    target_basis = rep_hom_basis(fv, fw)
    dim_source, dim_target = len(source_basis), len(target_basis)
    if dim_source == 0:
        return (0, dim_target, dim_target == 0)
    f = fv.field
    vecs = []
    for m in source_basis:
        embedded = apply_functor_mor(i, m)
        vecs.append([x for c in embedded.comps for x in c.entries])
    image = Matrix(
        f, len(vecs[0]), len(vecs), [x for row in zip(*vecs) for x in row]
    )
    independent_and_spanning = image.rank == dim_source == dim_target
    return (dim_source, dim_target, independent_and_spanning)


# -- extensions ------------------------------------------------------------------


def random_extension(u: QuiverRep, w: QuiverRep, seed: int = 0) -> QuiverRep:
    """A middle term with block upper-triangular arrow matrices
    [[u_a, h_a], [0, w_a]], h_a drawn uniformly from the field."""
    if u.quiver.name != "F" or w.quiver.name != "F":
        raise SourceMismatch("extensions are formed in the four-subspace category")
    if u.field != w.field:
        raise FieldMismatch(f"{u.field.name} vs {w.field.name}")
    f = u.field
    rng = random.Random(seed)
    dims = tuple(a + b for a, b in zip(u.dims, w.dims))
    mats = {}
    for a, (si, ti) in zip(_F.arrows, _F.ends):
        h = random_matrix(f, u.dims[ti], w.dims[si], rng)
        top = hstack(u.mat(a.name), h)
        bottom = hstack(Matrix.zeros(f, w.dims[ti], u.dims[si]), w.mat(a.name))
        mats[a.name] = vstack(top, bottom)
    return QuiverRep(f, _F, dims, mats)


def _default_sections_retractions(u: QuiverRep, v: QuiverRep, w: QuiverRep):
    f = v.field
    sections = []
    retractions = []
    for i in range(5):
        du, dw = u.dims[i], w.dims[i]
        sections.append(
            vstack(Matrix.zeros(f, du, dw), Matrix.identity(f, dw))
        )
        retractions.append(
            hstack(Matrix.identity(f, du), Matrix.zeros(f, du, dw))
        )
    return sections, retractions


def extension_witness_c5(
    u: QuiverRep,
    v: QuiverRep,
    w: QuiverRep,
    sections: Optional[list[Matrix]] = None,
    retractions: Optional[list[Matrix]] = None,
) -> tuple[Matrix, Matrix]:
    """Witness pair certifying that an extension of two members of the
    fifth essential image stays in it.

    The returned pair (eps_v, zeta_v) satisfies
    arm3(v) = arm1(v) @ eps_v + arm2(v) @ zeta_v with both maps invertible;
    the off-diagonal corrections are obtained by solving the linear
    equation that eta(u)^{-1} makes explicit.
    """
    res_u = in_image(5, u)
    res_w = in_image(5, w)
    if not res_u.contained or not res_w.contained:
        raise NotInC5("both outer terms must lie in the fifth essential image")
    if sections is None or retractions is None:
        sections, retractions = _default_sections_retractions(u, v, w)
    if v.dims != tuple(a + b for a, b in zip(u.dims, w.dims)):
        raise ShapeError("middle term dimensions do not add up")
    f = v.field

    r0, s1, s2, s3 = retractions[0], sections[1], sections[2], sections[3]
    h_alpha = r0 @ v.mat("alpha") @ s1
    h_beta = r0 @ v.mat("beta") @ s2
    h_gamma = r0 @ v.mat("gamma") @ s3

    eps_u, zeta_u = res_u.blocks["gamma_top"], res_u.blocks["gamma_bottom"]
    eps_w, zeta_w = res_w.blocks["gamma_top"], res_w.blocks["gamma_bottom"]
    eta_u_inv = res_u.blocks["eta_inv"]

    rhs = h_gamma - h_alpha @ eps_w - h_beta @ zeta_w
    sigma = eta_u_inv @ rhs
    sigma_eps = sigma.take_rows(0, u.dims[1])
    sigma_zeta = sigma.take_rows(u.dims[1], u.dims[1] + u.dims[2])

    def block_upper(a: Matrix, corner: Matrix, b: Matrix) -> Matrix:
        top = hstack(a, corner)
        bottom = hstack(Matrix.zeros(f, b.rows, a.cols), b)
        return vstack(top, bottom)

    eps_v = block_upper(eps_u, sigma_eps, eps_w)
    zeta_v = block_upper(zeta_u, sigma_zeta, zeta_w)

    recombined = v.mat("alpha") @ eps_v + v.mat("beta") @ zeta_v
    if recombined != v.mat("gamma"):
        raise ShapeError(
            "the middle term is not in extension block form: witness equation failed"
        )
    if not (is_invertible(eps_v) and is_invertible(zeta_v)):
        raise ShapeError("assembled witnesses are not invertible")  # pragma: no cover
    return eps_v, zeta_v
