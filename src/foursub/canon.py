"""Canonical indecomposable families for all seven classified categories,
tag parsing/printing, the companion-based one-parameter family, and
classification of arbitrary objects against the tables.

Families are built from a small kit of blocks: identity, the four
shift-style inclusions/projections (zero row or column adjoined on one
side), companion matrices of prime powers, and nilpotent Jordan blocks.
The two relation tables are read off the quiver tables through the
S- and K-representations of relations (``relations._as_rep``): a PairRel
entry is the pair whose S-representation is the S entry of the same type,
and a LinRel1 entry is the inverse of the relation whose K-representation
is the K entry of the same type.
The tables are complete up to isomorphism *and* symmetry of the ambient
configuration: classification therefore runs in two stages — direct
matching inside the category first, then matching of the embedded
four-subspace representations under all arm permutations, which absorbs
every category symmetry (source swaps, relation inversion, and so on).
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

from .errors import InvalidTag, ParseError, UnclassifiedSummand
from .fields import FieldSpec, Poly, format_poly, monic_irreducibles, parse_poly
from .functors import FUNCTOR_SOURCES, _s_vertices, apply_functor, in_image
from .matrices import (
    Matrix,
    companion,
    i_down,
    i_left,
    i_right,
    i_up,
    jordan_plus,
    vstack,
)
from .quivers import QUIVERS, QuiverRep
from .relations import PairRelObj, RelObj, _as_rep, _from_rep, rel_inverse

CATEGORIES = ("F", "S", "D", "K", "C", "LinRel1", "PairRel")

TYPE_ORDER = (
    "Zero",
    "I",
    "I_second_variant",
    "II",
    "III",
    "IIIStar",
    "IV",
    "IVStar",
    "V",
    "VStar",
    "Inj1",
    "Inj2",
    "Inj3",
    "Inj4",
)

_TYPE_TEXT = {
    "Zero": "0",
    "I": "I",
    "I_second_variant": "I2",
    "II": "II",
    "III": "III",
    "IIIStar": "III*",
    "IV": "IV",
    "IVStar": "IV*",
    "V": "V",
    "VStar": "V*",
    "Inj1": "Inj1",
    "Inj2": "Inj2",
    "Inj3": "Inj3",
    "Inj4": "Inj4",
}
_TEXT_TYPE = {v: k for k, v in _TYPE_TEXT.items()}


@dataclass(frozen=True)
class IndecompTag:
    """A named point of the classification tables.

    ``poly``/``power`` are present exactly for the polynomial-indexed
    family (type ``Zero``), where n = power * deg(poly).
    """

    category: str
    type_name: str
    n: int = 0
    poly: Optional[Poly] = None
    power: Optional[int] = None

    def sort_key(self):
        poly_key = (
            (self.poly.degree, self.poly.coeffs, self.power)
            if self.poly is not None
            else (-1, (), 0)
        )
        return (
            CATEGORIES.index(self.category),
            TYPE_ORDER.index(self.type_name),
            self.n,
            poly_key,
        )

    def __str__(self) -> str:
        return format_tag(self)


def format_tag(tag: IndecompTag) -> str:
    inner = str(tag.n)
    if tag.poly is not None:
        inner += f",p={format_poly(tag.poly)},s={tag.power}"
    return f"{tag.category}:{_TYPE_TEXT[tag.type_name]}({inner})"


def parse_tag(text: str, field: FieldSpec) -> IndecompTag:
    """Parse ``<category>:<type>(<n>[,p=<poly>,s=<s>])``."""
    text = text.strip()
    head, sep, rest = text.partition(":")
    if not sep or head not in CATEGORIES:
        raise ParseError(f"unknown category in tag {text!r}")
    if not rest.endswith(")") or "(" not in rest:
        raise ParseError(f"malformed tag {text!r}")
    type_text, _, args = rest[:-1].partition("(")
    if type_text not in _TEXT_TYPE:
        raise ParseError(f"unknown type {type_text!r} in tag {text!r}")
    parts = [p.strip() for p in args.split(",")] if args.strip() else []
    if not parts:
        raise ParseError(f"tag {text!r} is missing the index n")
    n = _ascii_natural(parts[0], f"bad index {parts[0]!r} in tag {text!r}")
    poly = None
    power = None
    for part in parts[1:]:
        key, sep2, value = part.partition("=")
        if not sep2:
            raise ParseError(f"bad tag argument {part!r}")
        if (key == "p" and poly is not None) or (key == "s" and power is not None):
            raise ParseError(f"repeated tag argument {key!r} in tag {text!r}")
        if key == "p":
            poly = parse_poly(field, value)
        elif key == "s":
            power = _ascii_natural(value.strip(), f"bad power {value!r}")
        else:
            raise ParseError(f"unknown tag argument {key!r}")
    if (poly is None) != (power is None):
        raise ParseError("tag must supply both p and s or neither")
    return IndecompTag(head, _TEXT_TYPE[type_text], n, poly, power)


def _ascii_natural(text: str, error: str) -> int:
    """text as an int when it is ASCII decimal digits alone (int() also
    takes a sign, underscores and the digits of other scripts); raises
    ParseError(error) otherwise."""
    if not (text.isascii() and text.isdigit()):
        raise ParseError(error)
    return int(text)


# -- family constructors ---------------------------------------------------------


def _zeros(field, r, c):
    return Matrix.zeros(field, r, c)


def _ident(field, n):
    return Matrix.identity(field, n)


def _unit_row(field, m):
    """1 x m row (1, 0, ..., 0); 1 x 0 when m = 0."""
    z = Matrix.zeros(field, 1, m)
    if m == 0:
        return z
    e = list(z.entries)
    e[0] = field.one()
    return Matrix(field, 1, m, e)


def _nilpotent(field, n):
    return jordan_plus(n, field) if n >= 1 else _zeros(field, 0, 0)


def _f_rep(field, dims, alpha, beta, gamma, delta) -> QuiverRep:
    return QuiverRep(
        field,
        QUIVERS["F"],
        dims,
        {"alpha": alpha, "beta": beta, "gamma": gamma, "delta": delta},
    )


def _tetrad_from_companion(field, top: Matrix) -> QuiverRep:
    """Ambient k^{2r}; arms: first block, second block, diagonal, graph of
    the given operator."""
    r = top.rows
    ident = _ident(field, r)
    return _f_rep(
        field,
        (2 * r, r, r, r, r),
        vstack(ident, _zeros(field, r, r)),
        vstack(_zeros(field, r, r), ident),
        vstack(ident, ident),
        vstack(top, ident),
    )


def nhat(p: Poly, s: int, field: Optional[FieldSpec] = None) -> QuiverRep:
    """The one-parameter family member: arms (block 1, block 2, diagonal,
    graph of the companion matrix of p**s); dims (2r, r, r, r, r).

    Membership in the one-parameter family needs p outside {t, t-1}; the
    construction is defined regardless, so out-of-range p only warns.
    A p that is not monic of degree >= 1, or s < 1, is an InvalidTag, as in
    validate_tag.
    """
    if field is None:
        field = p.field
    if not p.is_monic or p.degree < 1:
        raise InvalidTag("p must be monic of degree >= 1")
    if s < 1:
        raise InvalidTag("s must be >= 1")
    t = Poly.t(field)
    t_minus_one = Poly.make(field, [field.neg(field.one()), field.one()])
    if p == t or p == t_minus_one:
        warnings.warn(
            "modulus t or t-1 lies outside the one-parameter family; "
            "the construction is still defined",
            stacklevel=2,
        )
    top = companion(p, s, field)  # raises ReducibleModulus when p is reducible
    return _tetrad_from_companion(field, top)


def _build_f(tag: IndecompTag, field: FieldSpec):
    n = tag.n
    t = tag.type_name
    if t == "Zero":
        top = companion(tag.poly, tag.power, field)
        return _tetrad_from_companion(field, top)
    if t == "II":
        return _f_rep(
            field,
            (2 * n + 1, n + 1, n + 1, n, n),
            vstack(_ident(field, n + 1), _zeros(field, n, n + 1)),
            vstack(_ident(field, n + 1), i_left(n, field)),
            vstack(i_down(n, field), _ident(field, n)),
            vstack(_zeros(field, n + 1, n), _ident(field, n)),
        )
    if t == "III":
        return _f_rep(
            field,
            (2 * n + 1, n + 1, n, n, n),
            vstack(_ident(field, n + 1), _zeros(field, n, n + 1)),
            vstack(_zeros(field, n + 1, n), _ident(field, n)),
            vstack(i_up(n, field), _ident(field, n)),
            vstack(i_down(n, field), _ident(field, n)),
        )
    if t == "IIIStar":
        return _f_rep(
            field,
            (2 * n + 1, n, n + 1, n + 1, n + 1),
            vstack(_ident(field, n), _zeros(field, n + 1, n)),
            vstack(_zeros(field, n, n + 1), _ident(field, n + 1)),
            vstack(i_left(n, field), _ident(field, n + 1)),
            vstack(i_right(n, field), _ident(field, n + 1)),
        )
    if t == "IV":
        return _f_rep(
            field,
            (2 * n + 2, n + 1, n + 1, n + 1, n),
            vstack(_ident(field, n + 1), _zeros(field, n + 1, n + 1)),
            vstack(_zeros(field, n + 1, n + 1), _ident(field, n + 1)),
            vstack(_ident(field, n + 1), _ident(field, n + 1)),
            vstack(i_up(n, field), i_down(n, field)),
        )
    if t == "IVStar":
        return _f_rep(
            field,
            (2 * n + 2, n + 1, n + 1, n + 1, n + 2),
            vstack(_ident(field, n + 1), _zeros(field, n + 1, n + 1)),
            vstack(_zeros(field, n + 1, n + 1), _ident(field, n + 1)),
            vstack(_ident(field, n + 1), _ident(field, n + 1)),
            vstack(i_left(n + 1, field), i_right(n + 1, field)),
        )
    if t == "V":
        nil = _nilpotent(field, n)
        ident = _ident(field, n)
        row = _unit_row(field, n)
        zero_block = _zeros(field, n, n)
        zero_row = _zeros(field, 1, n)
        return _f_rep(
            field,
            (2 * n + 1, n, n, n, n),
            vstack(ident, zero_block, zero_row),
            vstack(zero_block, ident, zero_row),
            vstack(nil, ident, row),
            vstack(ident, nil, row),
        )
    if t == "VStar":
        row = _unit_row(field, n + 1)
        zero_block = _zeros(field, n, n + 1)
        return _f_rep(
            field,
            (2 * n + 1, n + 1, n + 1, n + 1, n + 1),
            vstack(i_left(n, field), zero_block, row),
            vstack(i_left(n, field), i_right(n, field), row),
            vstack(i_right(n, field), i_left(n, field), row),
            vstack(zero_block, i_left(n, field), row),
        )
    # Inj1..Inj4: simples at the four arm vertices
    vertex = int(t[-1])
    dims = [0, 0, 0, 0, 0]
    dims[vertex] = 1
    mats = [_zeros(field, 0, dims[si]) for si, _ in QUIVERS["F"].ends]
    return QuiverRep(field, QUIVERS["F"], dims, mats)


def _quad_rep(field, quiver_name, dims, mats) -> QuiverRep:
    return QuiverRep(field, QUIVERS[quiver_name], dims, mats)


def _build_s(tag: IndecompTag, field: FieldSpec):
    n = tag.n
    t = tag.type_name
    if t == "Zero":
        top = companion(tag.poly, tag.power, field)
        n = top.rows
        ident = _ident(field, n)
        return _quad_rep(
            field, "S", (n, n, n, n),
            {"alpha": ident, "beta": ident, "gamma": top, "delta": ident},
        )
    if t == "I":
        ident = _ident(field, n)
        return _quad_rep(
            field, "S", (n, n, n, n),
            {"alpha": ident, "beta": ident, "gamma": _nilpotent(field, n), "delta": ident},
        )
    if t == "II":
        return _quad_rep(
            field, "S", (n + 1, n, n + 1, n),
            {
                "alpha": _ident(field, n + 1),
                "beta": i_left(n, field),
                "gamma": i_down(n, field),
                "delta": _ident(field, n),
            },
        )
    if t == "III":
        return _quad_rep(
            field, "S", (n + 1, n, n, n),
            {
                "alpha": i_up(n, field),
                "beta": _ident(field, n),
                "gamma": i_down(n, field),
                "delta": _ident(field, n),
            },
        )
    if t == "IIIStar":
        return _quad_rep(
            field, "S", (n, n + 1, n + 1, n + 1),
            {
                "alpha": i_left(n, field),
                "beta": _ident(field, n + 1),
                "gamma": i_right(n, field),
                "delta": _ident(field, n + 1),
            },
        )
    if t == "IV":
        return _quad_rep(
            field, "S", (n + 1, n + 1, n + 1, n),
            {
                "alpha": _ident(field, n + 1),
                "beta": _ident(field, n + 1),
                "gamma": i_up(n, field),
                "delta": i_down(n, field),
            },
        )
    # IVStar
    return _quad_rep(
        field, "S", (n, n, n, n + 1),
        {
            "alpha": _ident(field, n),
            "beta": _ident(field, n),
            "gamma": i_left(n, field),
            "delta": i_right(n, field),
        },
    )


def _build_d(tag: IndecompTag, field: FieldSpec):
    n = tag.n
    t = tag.type_name
    if t == "Zero":
        top = companion(tag.poly, tag.power, field)
        n = top.rows
        ident = _ident(field, n)
        return _quad_rep(
            field, "D", (n, n, n), {"alpha": top, "beta": ident, "gamma": ident}
        )
    if t == "I":
        ident = _ident(field, n)
        return _quad_rep(
            field, "D", (n, n, n),
            {"alpha": _nilpotent(field, n), "beta": ident, "gamma": ident},
        )
    if t == "II":
        return _quad_rep(
            field, "D", (n + 1, n, n + 1),
            {
                "alpha": _ident(field, n + 1),
                "beta": i_left(n, field),
                "gamma": i_down(n, field),
            },
        )
    if t == "III":
        return _quad_rep(
            field, "D", (n + 1, n, n),
            {
                "alpha": i_down(n, field),
                "beta": _ident(field, n),
                "gamma": i_up(n, field),
            },
        )
    if t == "IIIStar":
        return _quad_rep(
            field, "D", (n, n + 1, n + 1),
            {
                "alpha": i_right(n, field),
                "beta": _ident(field, n + 1),
                "gamma": i_left(n, field),
            },
        )
    if t == "IV":
        return _quad_rep(
            field, "D", (n + 1, n + 1, n),
            {
                "alpha": i_up(n, field),
                "beta": i_down(n, field),
                "gamma": _ident(field, n + 1),
            },
        )
    # IVStar
    return _quad_rep(
        field, "D", (n, n, n + 1),
        {
            "alpha": i_left(n, field),
            "beta": i_right(n, field),
            "gamma": _ident(field, n),
        },
    )


def _build_k(tag: IndecompTag, field: FieldSpec):
    n = tag.n
    t = tag.type_name
    if t == "Zero":
        top = companion(tag.poly, tag.power, field)
        n = top.rows
        return _quad_rep(
            field, "K", (n, n), {"alpha": _ident(field, n), "beta": top}
        )
    if t == "I":
        return _quad_rep(
            field, "K", (n, n),
            {"alpha": _ident(field, n), "beta": _nilpotent(field, n)},
        )
    if t == "I_second_variant":
        return _quad_rep(
            field, "K", (n, n),
            {"alpha": _nilpotent(field, n), "beta": _ident(field, n)},
        )
    if t == "II":
        return _quad_rep(
            field, "K", (n + 1, n),
            {"alpha": i_down(n, field), "beta": i_up(n, field)},
        )
    # III
    return _quad_rep(
        field, "K", (n, n + 1),
        {"alpha": i_right(n, field), "beta": i_left(n, field)},
    )


def _build_c(tag: IndecompTag, field: FieldSpec):
    n = tag.n
    t = tag.type_name
    if t == "Zero":
        top = companion(tag.poly, tag.power, field)
        n = top.rows
        return _quad_rep(
            field, "C", (n, n), {"alpha": _ident(field, n), "beta": top}
        )
    if t == "I":
        return _quad_rep(
            field, "C", (n, n),
            {"alpha": _ident(field, n), "beta": _nilpotent(field, n)},
        )
    if t == "I_second_variant":
        return _quad_rep(
            field, "C", (n, n),
            {"alpha": _nilpotent(field, n), "beta": _ident(field, n)},
        )
    if t == "II":
        return _quad_rep(
            field, "C", (n, n + 1),
            {"alpha": i_left(n, field), "beta": i_down(n, field)},
        )
    # III
    return _quad_rep(
        field, "C", (n + 1, n),
        {"alpha": i_down(n, field), "beta": i_left(n, field)},
    )


def _build_linrel1(tag: IndecompTag, field: FieldSpec):
    # the inverse of the relation whose K-representation is the K entry
    return rel_inverse(_from_rep(_build_k(replace(tag, category="K"), field)))


def _build_pairrel(tag: IndecompTag, field: FieldSpec):
    # the pair whose S-representation is the S entry
    return _from_rep(_build_s(replace(tag, category="S"), field))


_BUILDERS = {
    "F": _build_f,
    "S": _build_s,
    "D": _build_d,
    "K": _build_k,
    "C": _build_c,
    "LinRel1": _build_linrel1,
    "PairRel": _build_pairrel,
}

# types valid per category, with the minimum index
_VALID_TYPES = {
    "F": {
        "Zero": 1,
        "II": 0,
        "III": 0,
        "IIIStar": 0,
        "IV": 0,
        "IVStar": 0,
        "V": 0,
        "VStar": 0,
        "Inj1": 0,
        "Inj2": 0,
        "Inj3": 0,
        "Inj4": 0,
    },
    "S": {"Zero": 1, "I": 1, "II": 0, "III": 0, "IIIStar": 0, "IV": 0, "IVStar": 0},
    "D": {"Zero": 1, "I": 1, "II": 0, "III": 0, "IIIStar": 0, "IV": 0, "IVStar": 0},
    "K": {"Zero": 1, "I": 1, "I_second_variant": 1, "II": 0, "III": 0},
    "C": {"Zero": 1, "I": 1, "I_second_variant": 1, "II": 0, "III": 0},
    "LinRel1": {"Zero": 1, "I": 1, "II": 0, "III": 1},
    "PairRel": {
        "Zero": 1,
        "I": 1,
        "II": 0,
        "III": 0,
        "IIIStar": 0,
        "IV": 0,
        "IVStar": 1,
    },
}


def validate_tag(tag: IndecompTag, field: FieldSpec) -> None:
    if tag.category not in CATEGORIES:
        raise InvalidTag(f"unknown category {tag.category!r}")
    valid = _VALID_TYPES[tag.category]
    if tag.type_name not in valid:
        if tag.category == "F" and tag.type_name == "I":
            raise InvalidTag(
                "the ambient table has no separate nilpotent type: it coincides "
                "with the polynomial family at p = t-1 (use F:0(n,p=t-1,s=n))"
            )
        raise InvalidTag(
            f"type {tag.type_name} does not occur in the {tag.category} table"
        )
    if tag.type_name.startswith("Inj"):
        if tag.n != 0:
            raise InvalidTag("injective tags carry no index")
    elif tag.n < valid[tag.type_name]:
        raise InvalidTag(
            f"{tag.category}:{tag.type_name} needs n >= {valid[tag.type_name]}, got {tag.n}"
        )
    if tag.type_name == "Zero":
        if tag.poly is None or tag.power is None:
            raise InvalidTag("polynomial family tags need p and s")
        if tag.poly.field != field:
            raise InvalidTag(
                f"tag polynomial over {tag.poly.field.name}, object over {field.name}"
            )
        if not tag.poly.is_monic or tag.poly.degree < 1:
            raise InvalidTag("p must be monic of degree >= 1")
        if tag.poly == Poly.t(field):
            raise InvalidTag("p = t is excluded from the polynomial family")
        if tag.power < 1:
            raise InvalidTag("s must be >= 1")
        if tag.n != tag.power * tag.poly.degree:
            raise InvalidTag(
                f"n must equal s*deg(p) = {tag.power * tag.poly.degree}, got {tag.n}"
            )
    elif tag.poly is not None or tag.power is not None:
        raise InvalidTag(f"type {tag.type_name} carries no polynomial")


@lru_cache(maxsize=4096)
def canon_rep(tag: IndecompTag, field: FieldSpec):
    """The canonical indecomposable for a tag (validates the tag first)."""
    validate_tag(tag, field)
    return _BUILDERS[tag.category](tag, field)


# -- shapes for classification ---------------------------------------------------

# dims pattern per (category, type) as a function of n
_SHAPES = {
    ("F", "Zero"): lambda n: (2 * n, n, n, n, n),
    ("F", "II"): lambda n: (2 * n + 1, n + 1, n + 1, n, n),
    ("F", "III"): lambda n: (2 * n + 1, n + 1, n, n, n),
    ("F", "IIIStar"): lambda n: (2 * n + 1, n, n + 1, n + 1, n + 1),
    ("F", "IV"): lambda n: (2 * n + 2, n + 1, n + 1, n + 1, n),
    ("F", "IVStar"): lambda n: (2 * n + 2, n + 1, n + 1, n + 1, n + 2),
    ("F", "V"): lambda n: (2 * n + 1, n, n, n, n),
    ("F", "VStar"): lambda n: (2 * n + 1, n + 1, n + 1, n + 1, n + 1),
    ("F", "Inj1"): lambda n: (0, 1, 0, 0, 0),
    ("F", "Inj2"): lambda n: (0, 0, 1, 0, 0),
    ("F", "Inj3"): lambda n: (0, 0, 0, 1, 0),
    ("F", "Inj4"): lambda n: (0, 0, 0, 0, 1),
    ("S", "Zero"): lambda n: (n, n, n, n),
    ("S", "I"): lambda n: (n, n, n, n),
    ("S", "II"): lambda n: (n + 1, n, n + 1, n),
    ("S", "III"): lambda n: (n + 1, n, n, n),
    ("S", "IIIStar"): lambda n: (n, n + 1, n + 1, n + 1),
    ("S", "IV"): lambda n: (n + 1, n + 1, n + 1, n),
    ("S", "IVStar"): lambda n: (n, n, n, n + 1),
    ("D", "Zero"): lambda n: (n, n, n),
    ("D", "I"): lambda n: (n, n, n),
    ("D", "II"): lambda n: (n + 1, n, n + 1),
    ("D", "III"): lambda n: (n + 1, n, n),
    ("D", "IIIStar"): lambda n: (n, n + 1, n + 1),
    ("D", "IV"): lambda n: (n + 1, n + 1, n),
    ("D", "IVStar"): lambda n: (n, n, n + 1),
    ("K", "Zero"): lambda n: (n, n),
    ("K", "I"): lambda n: (n, n),
    ("K", "I_second_variant"): lambda n: (n, n),
    ("K", "II"): lambda n: (n + 1, n),
    ("K", "III"): lambda n: (n, n + 1),
    ("C", "Zero"): lambda n: (n, n),
    ("C", "I"): lambda n: (n, n),
    ("C", "I_second_variant"): lambda n: (n, n),
    ("C", "II"): lambda n: (n, n + 1),
    ("C", "III"): lambda n: (n + 1, n),
    ("LinRel1", "Zero"): lambda n: (n, n),
    ("LinRel1", "I"): lambda n: (n, n),
    ("LinRel1", "II"): lambda n: (n + 1, n),
    ("LinRel1", "III"): lambda n: (n, n + 1),
    ("PairRel", "Zero"): lambda n: (n, n, n, n),
    ("PairRel", "I"): lambda n: (n, n, n, n),
    ("PairRel", "II"): lambda n: (n + 1, n, n + 1, n),
    ("PairRel", "III"): lambda n: (n + 1, n, n, n),
    ("PairRel", "IIIStar"): lambda n: (n, n + 1, n + 1, n + 1),
    ("PairRel", "IV"): lambda n: (n + 1, n + 1, n + 1, n),
    ("PairRel", "IVStar"): lambda n: (n, n, n, n + 1),
}


def _object_shape(category: str, obj) -> tuple:
    if category in ("F", "S", "D", "K", "C"):
        return obj.dims
    if category == "LinRel1":
        return (obj.dim1, obj.rel_dim)
    return (obj.dim1, obj.dim2, obj.basis1.cols, obj.basis2.cols)


def _zero_tags(category: str, n: int, field: FieldSpec, candidates):
    """All polynomial-family tags of total size n, deterministically ordered."""
    out = []
    if field.is_prime_field:
        t_poly = Poly.t(field)
        for deg in range(1, n + 1):
            if n % deg:
                continue
            s = n // deg
            for p in monic_irreducibles(field, deg):
                if p == t_poly:
                    continue
                out.append(IndecompTag(category, "Zero", n, p, s))
    else:
        for p, s in candidates or []:
            if s * p.degree == n and p != Poly.t(field):
                out.append(IndecompTag(category, "Zero", n, p, s))
    return out


def _tags_for_shape(category: str, shape: tuple, field: FieldSpec, candidates):
    """All table tags whose dims pattern matches the shape, canonical order."""
    out = []
    bound = max(shape) + 2
    for type_name, min_n in _VALID_TYPES[category].items():
        shape_fn = _SHAPES[(category, type_name)]
        max_n = 0 if type_name.startswith("Inj") else bound
        for n in range(min_n, max_n + 1):
            if shape_fn(n) == shape:
                if type_name == "Zero":
                    out.extend(_zero_tags(category, n, field, candidates))
                else:
                    out.append(IndecompTag(category, type_name, n))
                break  # patterns are strictly monotone in n
    out.sort(key=IndecompTag.sort_key)
    return out


def _all_tags_with_embedded_total(
    category: str, total: int, field: FieldSpec, candidates
):
    """Tags whose embedded four-subspace representation has the given total
    dimension (for second-stage matching)."""
    out = []
    for type_name, min_n in _VALID_TYPES[category].items():
        shape_fn = _SHAPES[(category, type_name)]
        max_n = 0 if type_name.startswith("Inj") else total + 1
        for n in range(min_n, max_n + 1):
            shape = shape_fn(n)
            emb_total = sum(_embedded_dims(category, shape))
            if emb_total > total:
                break
            if emb_total == total:
                if type_name == "Zero":
                    out.extend(_zero_tags(category, n, field, candidates))
                else:
                    out.append(IndecompTag(category, type_name, n))
    out.sort(key=IndecompTag.sort_key)
    return out


def _embedded_dims(category: str, shape: tuple) -> tuple:
    """Dims of the embedded four-subspace representation: functor 1 takes
    S-dims (s1, s2, s3, s4) to (s1 + s2, s1, s2, s3, s4)."""
    if category == "F":
        return shape
    s1, s2, s3, s4 = _s_vertices(category, shape)
    return (s1 + s2, s1, s2, s3, s4)


def arm_permute(rep: QuiverRep, perm: tuple) -> QuiverRep:
    """Permute the four arms of a four-subspace representation: new arm i
    is old arm perm[i] (0-based arm indices)."""
    if rep.quiver.name != "F":
        raise InvalidTag("arm permutation applies to four-subspace representations")
    dims = (rep.dims[0],) + tuple(rep.dims[1 + p] for p in perm)
    return QuiverRep._trusted(rep.field, rep.quiver, dims, tuple(rep.mats[p] for p in perm))


_FUNCTOR_OF = {source: i for i, source in FUNCTOR_SOURCES.items()}


def _embed(category: str, obj):
    if category == "F":
        return obj
    return apply_functor(_FUNCTOR_OF[category], obj)


def trial_preimage(category: str, perm: tuple, target: QuiverRep):
    """An object X of the category with arm_permute(_embed(X), perm)
    isomorphic to target, or None when there is none: arm_permute(target,
    perm^-1), pulled back into the category by functors.in_image.  The
    embedding is full and faithful, so X is unique up to isomorphism."""
    rep = arm_permute(target, tuple(perm.index(i) for i in range(4)))
    if category == "F":
        return rep
    return in_image(_FUNCTOR_OF[category], rep).witness


@lru_cache(maxsize=4096)
def _embedded_canon(tag: IndecompTag, field: FieldSpec) -> QuiverRep:
    return _embed(tag.category, canon_rep(tag, field))


def _basis_iso(category: str, a, b) -> bool:
    """Is some element of the in-category hom basis a -> b an isomorphism?
    Exact when a or b is indecomposable (quivers._iso_to_indecomposable);
    a and b have the same shape.  Relation objects are compared as their
    S- or K-representations, which have the same hom spaces."""
    from .quivers import _iso_to_indecomposable

    if category in ("LinRel1", "PairRel"):
        a, b = _as_rep(a), _as_rep(b)
    return _iso_to_indecomposable(a, b) is not None


def _category_of(obj) -> str:
    if isinstance(obj, QuiverRep):
        return obj.quiver.name
    if isinstance(obj, PairRelObj):
        return "PairRel"
    if isinstance(obj, RelObj):
        return "LinRel1"
    raise InvalidTag(f"cannot classify objects of type {type(obj).__name__}")


def table_trials(category: str, shape: tuple, field: FieldSpec, candidates=None):
    """The table entries an indecomposable of the given shape is matched
    against, in the order classify_indecomposable tries them, as
    (tag, perm, entry) triples; the first that matches names the object.

    Stage one: each tag of the shape, with perm None and entry its
    canonical representative; the object matches when it is isomorphic to
    entry.  Stage two: each tag whose embedded four-subspace representation
    has the object's embedded total dimension, with each arm permutation
    perm that takes the object's embedded dims to those of entry, the
    embedded canonical representative; the object X matches when
    arm_permute(_embed(X), perm) is isomorphic to entry.  Stage two absorbs
    the symmetries the tables quotient out.  Its tags and permutations are
    listed only once stage one is exhausted.
    """
    for tag in _tags_for_shape(category, shape, field, candidates):
        yield tag, None, canon_rep(tag, field)
    centre, *arms = dims = _embedded_dims(category, shape)
    # each permutation with the dims arm_permute gives it, so that only
    # the permutations matching a target's dims are tried
    perms = [
        (perm, (centre,) + tuple(arms[p] for p in perm))
        for perm in itertools.permutations(range(4))
    ]
    for tag in _all_tags_with_embedded_total(category, sum(dims), field, candidates):
        target = _embedded_canon(tag, field)
        for perm, permuted in perms:
            if permuted == target.dims:
                yield tag, perm, target


def classify_indecomposable(obj, candidates=None) -> IndecompTag:
    """Match a single indecomposable object against its category's table:
    the first of table_trials that an invertible hom-basis element
    confirms.  Canonical representatives are indecomposable, and so are
    their embeddings, so each test is exact whatever obj is.
    """
    from .quivers import _iso_to_indecomposable

    category = _category_of(obj)
    field = obj.field
    shape = _object_shape(category, obj)
    embedded = None
    for tag, perm, entry in table_trials(category, shape, field, candidates):
        if perm is None:
            found = _basis_iso(category, obj, entry)
        else:
            if embedded is None:
                embedded = _embed(category, obj)
            found = _iso_to_indecomposable(arm_permute(embedded, perm), entry) is not None
        if found:
            return tag
    raise UnclassifiedSummand(
        f"no table entry matches an indecomposable of shape {shape} over {field.name}"
    )


def classify(obj, candidates=None, seed: int = 0) -> list[tuple[IndecompTag, int]]:
    """Krull-Schmidt decomposition with every summand named by its table
    tag; multiplicities merged per tag, deterministically sorted.

    Over the rationals the polynomial families range over an infinite set,
    so candidate (p, s) pairs must be supplied by the caller.
    """
    category = _category_of(obj)
    if category in ("F", "S", "D", "K", "C"):
        from .quivers import decompose

        summands = decompose(obj, seed=seed)
    else:
        from .relations import rel_decompose

        summands = rel_decompose(obj, seed=seed)
    tally: dict[IndecompTag, int] = {}
    for rep, mult in summands:
        tag = classify_indecomposable(rep, candidates)
        tally[tag] = tally.get(tag, 0) + mult
    return sorted(tally.items(), key=lambda pair: pair[0].sort_key())
