"""The six embeddings into four-subspace representations, their action on
morphisms, the gateway map eta, essential-image predicates with witnesses,
hom-transport verification, and extension-closure witnesses.

Every embedding realizes the ambient space concretely as the block direct
sum V1 + V2 (V1 coordinates first); the two inclusion arms are the block
column injections and the remaining arms are stacked blocks.  Because every
image predicate first requires eta (the assembled map V1+V2 -> V0) to be
invertible, the coefficient blocks appearing in the predicates are unique
-- they are read off from eta^{-1} applied to the two remaining arms -- so
no search is involved anywhere.
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
    rref,
    solve,
    vstack,
)
from .quivers import QUIVERS, QuiverRep, RepMorphism
from .relations import PairRelObj, RelMorphism, RelObj, _as_rep

FUNCTOR_SOURCES = {
    1: "S",
    2: "D",
    3: "K",
    4: "C",
    5: "LinRel1",
    6: "PairRel",
}

_F = QUIVERS["F"]


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


def apply_functor(i: int, obj) -> QuiverRep:
    """Embed an object of the i-th source category as a four-subspace
    representation."""
    _require_source(i, obj)
    f = obj.field

    def fr(d0, d1, d2, d3, d4, arm3: Matrix, arm4: Matrix) -> QuiverRep:
        ident1 = Matrix.identity(f, d1)
        ident2 = Matrix.identity(f, d2)
        arm1 = vstack(ident1, Matrix.zeros(f, d2, d1))
        arm2 = vstack(Matrix.zeros(f, d1, d2), ident2)
        return QuiverRep(
            f,
            _F,
            (d0, d1, d2, d3, d4),
            {"alpha": arm1, "beta": arm2, "gamma": arm3, "delta": arm4},
        )

    if i == 1:
        d1, d2, d3, d4 = obj.dims
        return fr(
            d1 + d2,
            d1,
            d2,
            d3,
            d4,
            vstack(obj.mat("alpha"), obj.mat("beta")),
            vstack(obj.mat("gamma"), obj.mat("delta")),
        )
    if i == 2:
        d1, d2, d3 = obj.dims
        return fr(
            d1 + d2,
            d1,
            d2,
            d3,
            d2,
            vstack(obj.mat("alpha"), obj.mat("beta")),
            vstack(obj.mat("gamma"), Matrix.identity(f, d2)),
        )
    if i == 3:
        d1, d2 = obj.dims
        return fr(
            d1 + d2,
            d1,
            d2,
            d2,
            d2,
            vstack(obj.mat("alpha"), Matrix.identity(f, d2)),
            vstack(obj.mat("beta"), Matrix.identity(f, d2)),
        )
    if i == 4:
        d1, d2 = obj.dims
        return fr(
            d1 + d2,
            d1,
            d2,
            d1,
            d2,
            vstack(Matrix.identity(f, d1), obj.mat("beta")),
            vstack(obj.mat("alpha"), Matrix.identity(f, d2)),
        )
    if i == 5:
        d = obj.dim1
        return fr(
            2 * d,
            d,
            d,
            d,
            obj.rel_dim,
            vstack(Matrix.identity(f, d), Matrix.identity(f, d)),
            obj.basis,
        )
    # i == 6: the first embedding of the pair's S-representation
    return apply_functor(1, _as_rep(obj))


def _restrict_along(target_basis: Matrix, image: Matrix) -> Matrix:
    out = solve(target_basis, image)
    if out is None:
        raise RestrictionNotContained(
            "the morphism does not carry the relation into the target relation"
        )
    return out


def apply_functor_mor(i: int, mor) -> RepMorphism:
    """The embedded morphism between the embedded objects.

    For indices 1-4 the input is a morphism of source-quiver
    representations; for 5 a relation morphism with equal components; for 6
    a relation-pair morphism.
    """
    _check_functor_index(i)
    if i in (1, 2, 3, 4):
        if not isinstance(mor, RepMorphism) or mor.source.quiver.name != FUNCTOR_SOURCES[i]:
            raise SourceMismatch(
                f"embedding {i} needs a morphism of {FUNCTOR_SOURCES[i]}-representations"
            )
        src = apply_functor(i, mor.source)
        tgt = apply_functor(i, mor.target)
        l1, l2 = mor.comp(1), mor.comp(2)
        l0 = mat_direct_sum(l1, l2)
        if i == 1:
            comps = (l0, l1, l2, mor.comp(3), mor.comp(4))
        elif i == 2:
            comps = (l0, l1, l2, mor.comp(3), l2)
        elif i == 3:
            comps = (l0, l1, l2, l2, l2)
        else:
            comps = (l0, l1, l2, l1, l2)
        return RepMorphism(src, tgt, comps)
    if not isinstance(mor, RelMorphism):
        raise SourceMismatch(f"embedding {i} needs a relation morphism")
    if i == 5:
        if mor.f1 != mor.f2:
            raise SourceMismatch(
                "embedding 5 needs a one-space morphism (equal components)"
            )
        _require_source(5, mor.source)
        _require_source(5, mor.target)
        src = apply_functor(5, mor.source)
        tgt = apply_functor(5, mor.target)
        f = mor.f1
        l0 = mat_direct_sum(f, f)
        restriction = _restrict_along(mor.target.basis, l0 @ mor.source.basis)
        return RepMorphism(src, tgt, (l0, f, f, f, restriction))
    _require_source(6, mor.source)
    _require_source(6, mor.target)
    src = apply_functor(6, mor.source)
    tgt = apply_functor(6, mor.target)
    l0 = mat_direct_sum(mor.f1, mor.f2)
    r1 = _restrict_along(mor.target.basis1, l0 @ mor.source.basis1)
    r2 = _restrict_along(mor.target.basis2, l0 @ mor.source.basis2)
    return RepMorphism(src, tgt, (l0, mor.f1, mor.f2, r1, r2))


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


def _square_and_invertible(m: Matrix) -> Optional[str]:
    if not m.is_square:
        return "NonSquareBlock"
    if not is_invertible(m):
        return "BlockNotInvertible"
    return None


def in_image(i: int, v: QuiverRep) -> ImageResult:
    """Decide membership in the essential image of the i-th embedding and
    produce a source-category witness on success.

    Every case requires eta invertible; the coefficient blocks are then
    unique, so each case reduces to invertibility / injectivity tests on
    blocks of eta^{-1} applied to the two non-inclusion arms.
    """
    _check_functor_index(i)
    if v.quiver.name != "F":
        raise SourceMismatch("image predicates apply to four-subspace representations")
    f = v.field
    d0, d1, d2, d3, d4 = v.dims
    e = eta(v)
    if not e.is_invertible:
        return ImageResult(False, reason="EtaNotInvertible")
    eta_inv = inverse(e.matrix)
    gamma_coords = eta_inv @ v.mat("gamma")  # (d1+d2) x d3
    delta_coords = eta_inv @ v.mat("delta")  # (d1+d2) x d4
    gamma_top = gamma_coords.take_rows(0, d1)
    gamma_bottom = gamma_coords.take_rows(d1, d1 + d2)
    delta_top = delta_coords.take_rows(0, d1)
    delta_bottom = delta_coords.take_rows(d1, d1 + d2)
    blocks = {
        "eta_inv": eta_inv,
        "gamma_top": gamma_top,
        "gamma_bottom": gamma_bottom,
        "delta_top": delta_top,
        "delta_bottom": delta_bottom,
    }

    def fail(reason: str) -> ImageResult:
        return ImageResult(False, reason=reason, blocks=blocks)

    if i == 1:
        witness = QuiverRep(
            f,
            QUIVERS["S"],
            (d1, d2, d3, d4),
            {
                "alpha": gamma_top,
                "beta": gamma_bottom,
                "gamma": delta_top,
                "delta": delta_bottom,
            },
        )
        return ImageResult(True, witness, blocks=blocks)
    if i == 2:
        bad = _square_and_invertible(delta_bottom)
        if bad:
            return fail(bad)
        witness = QuiverRep(
            f,
            QUIVERS["D"],
            (d1, d2, d3),
            {
                "alpha": gamma_top,
                "beta": gamma_bottom,
                "gamma": delta_top @ inverse(delta_bottom),
            },
        )
        return ImageResult(True, witness, blocks=blocks)
    if i == 3:
        bad = _square_and_invertible(gamma_bottom) or _square_and_invertible(
            delta_bottom
        )
        if bad:
            return fail(bad)
        witness = QuiverRep(
            f,
            QUIVERS["K"],
            (d1, d2),
            {
                "alpha": gamma_top @ inverse(gamma_bottom),
                "beta": delta_top @ inverse(delta_bottom),
            },
        )
        return ImageResult(True, witness, blocks=blocks)
    if i == 4:
        bad = _square_and_invertible(gamma_top) or _square_and_invertible(
            delta_bottom
        )
        if bad:
            return fail(bad)
        witness = QuiverRep(
            f,
            QUIVERS["C"],
            (d1, d2),
            {
                "alpha": delta_top @ inverse(delta_bottom),
                "beta": gamma_bottom @ inverse(gamma_top),
            },
        )
        return ImageResult(True, witness, blocks=blocks)
    if i == 5:
        bad = _square_and_invertible(gamma_top) or _square_and_invertible(
            gamma_bottom
        )
        if bad:
            return fail(bad)
        if rref(v.mat("delta")).rank < d4:
            return fail("NotInjective")
        basis = vstack(
            inverse(gamma_top) @ delta_top, inverse(gamma_bottom) @ delta_bottom
        )
        witness = RelObj(f, d3, d3, basis)
        return ImageResult(True, witness, blocks=blocks)
    # i == 6
    if rref(v.mat("gamma")).rank < d3 or rref(v.mat("delta")).rank < d4:
        return fail("NotInjective")
    witness = PairRelObj(f, d1, d2, gamma_coords, delta_coords)
    return ImageResult(True, witness, blocks=blocks)


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
    independent_and_spanning = rref(image).rank == dim_source == dim_target
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
    for a in _F.arrows:
        si, ti = _F.vertex_index(a.source), _F.vertex_index(a.target)
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
