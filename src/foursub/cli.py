"""Command-line surface: parse objects from files, run operations, emit
deterministic reports.

Exit codes: 0 on success, 1 on domain errors (single-line diagnostic on
standard error), 2 on malformed input files, tags, polynomials or flags.
All output is byte-deterministic for fixed inputs, flags and ``--seed``.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path

from .canon import canon_rep, classify, format_tag, nhat, parse_tag
from .census import census
from .errors import FoursubError, NotInC5, NotIndecomposable, ParseError
from .fields import FieldSpec, parse_poly
from .functors import (
    apply_functor,
    extension_witness_c5,
    in_image,
    random_extension,
)
from .matrices import is_invertible
from .quivers import QuiverRep, hom_dim, is_isomorphic
from .relations import (
    PairRelObj,
    RelObj,
    _as_rep,
    _check_one_space_args,
    lrel_is_isomorphic,
    rel_compose,
    rel_dual,
    rel_inverse,
    rel_is_isomorphic,
)
from .repio import format_object, parse_object


def _load(path: str):
    try:
        text = Path(path).read_text(encoding="ascii")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return parse_object(text)


def _load_rel(path: str) -> RelObj:
    obj = _load(path)
    if not isinstance(obj, RelObj):
        raise ParseError(f"{path} does not contain a single linear relation")
    return obj


def _describe(obj) -> str:
    if isinstance(obj, QuiverRep):
        dims = " ".join(str(d) for d in obj.dims)
        return f"rep {obj.quiver.name} dims {dims} over {obj.field.name}"
    if isinstance(obj, PairRelObj):
        return (
            f"pairrel spaces {obj.dim1} {obj.dim2} "
            f"rels {obj.basis1.cols} {obj.basis2.cols} over {obj.field.name}"
        )
    return (
        f"linrel spaces {obj.dim1} {obj.dim2} "
        f"rel {obj.rel_dim} over {obj.field.name}"
    )


def _bool(x) -> str:
    return "true" if x else "false"


# -- command handlers -------------------------------------------------------------
# Each handler returns the full report text; printing happens once in main().


def _cmd_decompose(args) -> str:
    obj = _load(args.file)
    tagged = classify(obj, seed=args.seed)
    body = [f"{format_tag(tag)} x {mult}" for tag, mult in tagged]
    if args.format == "lines":
        return "".join(line + "\n" for line in body)
    head = [
        f"object: {_describe(obj)}",
        f"summands: {sum(mult for _, mult in tagged)}",
    ]
    return "\n".join(head + body) + "\n"


def _cmd_classify(args) -> str:
    obj = _load(args.file)
    tagged = classify(obj, seed=args.seed)
    if len(tagged) != 1 or tagged[0][1] != 1:
        n = sum(mult for _, mult in tagged)
        raise NotIndecomposable(f"object decomposes into {n} summands")
    text = format_tag(tagged[0][0])
    if args.format == "lines":
        return text + "\n"
    return f"tag: {text}\n"


def _hom_dim(a, b) -> int:
    """dim Hom(a, b); relations count through their S- and K-representations,
    as rel_hom_basis and lrel_hom_basis do."""
    if isinstance(a, QuiverRep) and isinstance(b, QuiverRep):
        return hom_dim(a, b)
    if isinstance(a, RelObj) and isinstance(b, RelObj):
        _check_one_space_args(a, b)
        return hom_dim(_as_rep(a), _as_rep(b))
    if isinstance(a, PairRelObj) and isinstance(b, PairRelObj):
        return hom_dim(_as_rep(a), _as_rep(b))
    raise ParseError("hom requires two objects of the same kind")


def _cmd_hom(args) -> str:
    dim = _hom_dim(_load(args.file1), _load(args.file2))
    if args.format == "lines":
        return f"{dim}\n"
    return f"hom dim: {dim}\n"


def _cmd_iso(args) -> str:
    a, b = _load(args.file1), _load(args.file2)
    if isinstance(a, QuiverRep) and isinstance(b, QuiverRep):
        answer = is_isomorphic(a, b, seed=args.seed)
    elif isinstance(a, RelObj) and isinstance(b, RelObj):
        answer = lrel_is_isomorphic(a, b, seed=args.seed)
    elif isinstance(a, PairRelObj) and isinstance(b, PairRelObj):
        answer = rel_is_isomorphic(a, b, seed=args.seed)
    else:
        raise ParseError("iso requires two objects of the same kind")
    if args.format == "lines":
        return _bool(answer) + "\n"
    return f"isomorphic: {_bool(answer)}\n"


def _cmd_canon(args) -> str:
    field = FieldSpec.from_name(args.field)
    tag = parse_tag(args.tag, field)
    return format_object(canon_rep(tag, field))


def _cmd_functor_apply(args) -> str:
    return format_object(apply_functor(args.functor, _load(args.file)))


def _cmd_check_image(args) -> str:
    obj = _load(args.file)
    if not isinstance(obj, QuiverRep):
        raise ParseError("check-image expects a representation file")
    result = in_image(args.functor, obj)
    if not result.contained:
        return f"false (reason: {result.reason})\n"
    if args.format == "lines":
        return "true\n"
    return "true\n\n" + format_object(result.witness)


def _cmd_nhat(args) -> str:
    field = FieldSpec.from_name(args.field)
    poly = parse_poly(field, args.poly)
    return format_object(nhat(poly, args.power))


def _cmd_census(args) -> str:
    field = FieldSpec.from_name(args.field)
    report = census(
        args.category,
        field,
        tuple(args.dims),
        workers=args.workers,
    )
    body = []
    for idx, entry in enumerate(report.classes):
        dims = " ".join(str(d) for d in entry.shape())
        tag = "-"
        if entry.indecomposable:
            tag = "UNMATCHED" if entry.tag is None else format_tag(entry.tag)
        body.append(
            f"class {idx} dims {dims} indecomposable "
            f"{_bool(entry.indecomposable)} tag {tag} orbit {entry.orbit_size}"
        )
    if args.format == "lines":
        return "".join(line + "\n" for line in body)
    dims = " ".join(str(d) for d in report.dims)
    head = [
        f"census {report.category} over {field.name} dims {dims}",
        f"objects: {report.total}",
        f"classes: {report.num_classes}",
        f"indecomposable: {report.num_indecomposable}",
    ]
    return "\n".join(head + body) + "\n"


def _cmd_rel_compose(args) -> str:
    first, second = _load_rel(args.file1), _load_rel(args.file2)
    # diagram order: x (first) y (second) z
    return format_object(rel_compose(second, first))


def _cmd_rel_inverse(args) -> str:
    return format_object(rel_inverse(_load_rel(args.file)))


def _cmd_rel_dual(args) -> str:
    return format_object(rel_dual(_load_rel(args.file)))


def _cmd_extension_test(args) -> str:
    u, w = _load(args.file1), _load(args.file2)
    if not (isinstance(u, QuiverRep) and isinstance(w, QuiverRep)):
        raise ParseError("extension-test expects two representation files")
    if not in_image(5, u).contained or not in_image(5, w).contained:
        raise NotInC5("both input objects must lie in the fifth essential image")
    v = random_extension(u, w, seed=args.seed)
    result = in_image(5, v)
    if not result.contained:
        verdict = f"false (reason: {result.reason})"
        if args.format == "lines":
            return "false\n"
        return f"in image: {verdict}\n"
    eps, zeta = extension_witness_c5(u, v, w)
    ok_eps, ok_zeta = is_invertible(eps), is_invertible(zeta)
    if args.format == "lines":
        return _bool(result.contained and ok_eps and ok_zeta) + "\n"
    dims = " ".join(str(d) for d in v.dims)
    return (
        f"extension dims {dims}\n"
        f"in image: true\n"
        f"epsilon invertible: {_bool(ok_eps)}\n"
        f"zeta invertible: {_bool(ok_zeta)}\n"
    )


# -- argument parsing --------------------------------------------------------------


def _ascii_int(text: str) -> int:
    """text as an int when it is ASCII decimal digits after an optional
    minus sign; int() also takes a plus sign, underscores, surrounding
    spaces and the digits of other scripts."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _add_field(p):
    p.add_argument("--field", default="F2", help="F<p> or Q (default F2)")


def _add_seed(p):
    p.add_argument("--seed", type=_ascii_int, default=0, help="RNG seed (default 0)")


def _add_format(p):
    p.add_argument(
        "--format",
        choices=("text", "lines"),
        default="text",
        help="text report or machine-readable lines",
    )


def _add_functor(p):
    p.add_argument(
        "--functor",
        type=_ascii_int,
        choices=range(1, 7),
        required=True,
        help="embedding index 1..6",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: main runs on every call."""
    parser = argparse.ArgumentParser(
        prog="foursub",
        description="Exact tools for quadruples of subspaces and linear relations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="indecomposable summands with tags")
    p.add_argument("file")
    _add_seed(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("classify", help="tag of a single indecomposable object")
    p.add_argument("file")
    _add_seed(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("hom", help="dimension of the morphism space")
    p.add_argument("file1")
    p.add_argument("file2")
    _add_format(p)
    p.set_defaults(handler=_cmd_hom)

    p = sub.add_parser("iso", help="decide isomorphism of two objects")
    p.add_argument("file1")
    p.add_argument("file2")
    _add_seed(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_iso)

    p = sub.add_parser("canon", help="emit a canonical family member as a file")
    p.add_argument("tag", help="e.g. F:IV(1) or K:0(2,p=t+1,s=2)")
    _add_field(p)
    p.set_defaults(handler=_cmd_canon)

    p = sub.add_parser("functor-apply", help="embed an object into four subspaces")
    _add_functor(p)
    p.add_argument("file")
    p.set_defaults(handler=_cmd_functor_apply)

    p = sub.add_parser(
        "check-image", help="essential-image membership with witness"
    )
    _add_functor(p)
    p.add_argument("file")
    _add_format(p)
    p.set_defaults(handler=_cmd_check_image)

    p = sub.add_parser("nhat", help="emit the doubled-space family member")
    p.add_argument("poly", help="monic irreducible polynomial, e.g. t^2+t+1")
    p.add_argument("power", type=_ascii_int, help="primary power s >= 1")
    _add_field(p)
    p.set_defaults(handler=_cmd_nhat)

    p = sub.add_parser("census", help="enumerate all objects of one dim vector")
    p.add_argument(
        "category", choices=("F", "S", "D", "K", "C", "LinRel1", "PairRel")
    )
    p.add_argument("dims", type=_ascii_int, nargs="+")
    _add_field(p)
    _add_format(p)
    p.add_argument(
        "--workers",
        type=_ascii_int,
        default=1,
        help="parallel workers for the counting verdicts",
    )
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("rel-compose", help="compose two relations (diagram order)")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(handler=_cmd_rel_compose)

    p = sub.add_parser("rel-inverse", help="swap the two coordinate blocks")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_rel_inverse)

    p = sub.add_parser("rel-dual", help="dual relation on the dual spaces")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_rel_dual)

    p = sub.add_parser(
        "extension-test",
        help="seeded extension of two fifth-image members, with witness check",
    )
    p.add_argument("file1")
    p.add_argument("file2")
    _add_seed(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_extension_test)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code or 0)
    try:
        out = args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except FoursubError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
