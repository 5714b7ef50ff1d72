"""Line-based text format for representations and relations.

Layout (``#`` starts a comment, blank lines are ignored)::

    field: F2            field: F<p> for a prime p, or Q for the rationals
    object: rep          rep | linrel | pairrel
    quiver: K            rep only: F | S | D | K | C
    dims: 1 1            rep only, in vertex order
                         (F: 0 1 2 3 4, S: 1 2 3 4, D: 1 2 3, K/C: 1 2)
    map alpha:           one block per arrow, in the quiver's arrow order
    1
    map beta:
    0

Relation objects replace ``quiver``/``dims``/``map`` with::

    spaces: 2 2          dimensions of V1 and V2
    relation R:          then dim1+dim2 rows whose columns span R
    ...                  (pairs use ``relation R1:`` and ``relation R2:``)

Matrix blocks are written one row per line, entries space-separated,
rationals as ``a/b``.  A matrix with no rows contributes no lines; a
matrix with rows but no columns writes each row as a single ``.``.
Parsing then printing an object reproduces the canonical form exactly.
"""

from __future__ import annotations

from .errors import FoursubError, ParseError
from .fields import FieldSpec
from .matrices import Matrix
from .quivers import QUIVERS, QuiverRep
from .relations import PairRelObj, RelObj

IOObject = QuiverRep | RelObj | PairRelObj


class _Lines:
    """Comment-stripped meaningful lines with 1-based source numbers."""

    def __init__(self, text: str):
        self.items = []
        for num, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                self.items.append((num, line))
        self.pos = 0

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else None

    def next(self, what: str) -> tuple:
        if self.pos >= len(self.items):
            raise ParseError(f"unexpected end of input, expected {what}")
        item = self.items[self.pos]
        self.pos += 1
        return item

    def expect_key(self, key: str) -> str:
        num, line = self.next(f"'{key}: ...'")
        prefix = key + ":"
        if not line.startswith(prefix):
            raise ParseError(f"line {num}: expected '{key}: ...', got {line!r}")
        return line[len(prefix) :].strip()

    def done(self) -> None:
        item = self.peek()
        if item is not None:
            raise ParseError(f"line {item[0]}: trailing content {item[1]!r}")


def _parse_scalar(field: FieldSpec, token: str, num: int):
    try:
        return field.parse_scalar(token)
    except FoursubError as exc:
        raise ParseError(f"line {num}: {exc}") from None


def _parse_row(field: FieldSpec, lines: _Lines, expected_cols=None) -> list:
    num, line = lines.next("a matrix row")
    tokens = [] if line == "." else line.split()
    if expected_cols is not None and len(tokens) != expected_cols:
        raise ParseError(
            f"line {num}: expected {expected_cols} entries, got {len(tokens)}"
        )
    return [_parse_scalar(field, t, num) for t in tokens]


def _parse_matrix(field: FieldSpec, lines: _Lines, rows: int, cols=None) -> Matrix:
    """Read `rows` lines; column count is `cols` or inferred from the first row."""
    data = []
    for _ in range(rows):
        want = cols
        if want is None and data:
            want = len(data[0])
        data.append(_parse_row(field, lines, want))
    if rows == 0:
        return Matrix(field, 0, 0 if cols is None else cols, [])
    width = len(data[0]) if cols is None else cols
    return Matrix(field, rows, width, [x for row in data for x in row])


def _parse_dims(text: str, count: int, num_hint: str) -> tuple:
    parts = text.split()
    digits = [p.removeprefix("-") for p in parts]  # a sign only to say "negative"
    if len(parts) != count or not all(d.isascii() and d.isdigit() for d in digits):
        raise ParseError(f"{num_hint}: expected {count} non-negative integers")
    dims = tuple(int(p) for p in parts)
    if any(d < 0 for d in dims):
        raise ParseError(f"{num_hint}: negative dimension")
    return dims


def parse_object(text: str) -> IOObject:
    """Parse a rep / linrel / pairrel text block."""
    lines = _Lines(text)
    field = FieldSpec.from_name(lines.expect_key("field"))
    kind = lines.expect_key("object")
    if kind == "rep":
        name = lines.expect_key("quiver")
        if name not in QUIVERS:
            raise ParseError(f"unknown quiver {name!r}")
        quiver = QUIVERS[name]
        dims = _parse_dims(
            lines.expect_key("dims"), len(quiver.vertices), "dims line"
        )
        mats = []
        for arrow, (si, ti) in zip(quiver.arrows, quiver.ends):
            label = lines.expect_key("map " + arrow.name)
            if label:
                raise ParseError(f"unexpected text after 'map {arrow.name}:'")
            mats.append(_parse_matrix(field, lines, dims[ti], dims[si]))
        lines.done()
        return QuiverRep(field, quiver, dims, mats)
    if kind == "linrel":
        d1, d2 = _parse_dims(lines.expect_key("spaces"), 2, "spaces line")
        if lines.expect_key("relation R"):
            raise ParseError("unexpected text after 'relation R:'")
        basis = _parse_matrix(field, lines, d1 + d2)
        lines.done()
        return RelObj(field, d1, d2, basis)
    if kind == "pairrel":
        d1, d2 = _parse_dims(lines.expect_key("spaces"), 2, "spaces line")
        if lines.expect_key("relation R1"):
            raise ParseError("unexpected text after 'relation R1:'")
        basis1 = _parse_matrix(field, lines, d1 + d2)
        if lines.expect_key("relation R2"):
            raise ParseError("unexpected text after 'relation R2:'")
        basis2 = _parse_matrix(field, lines, d1 + d2)
        lines.done()
        return PairRelObj(field, d1, d2, basis1, basis2)
    raise ParseError(f"unknown object kind {kind!r} (rep, linrel or pairrel)")


# -- printing --------------------------------------------------------------------


def matrix_lines(m: Matrix) -> list:
    """Row lines of a matrix block (no lines for 0 rows, '.' for 0 columns)."""
    f = m.field
    out = []
    for i in range(m.rows):
        if m.cols == 0:
            out.append(".")
        else:
            out.append(
                " ".join(f.format_scalar(m.entry(i, j)) for j in range(m.cols))
            )
    return out


def format_object(obj: IOObject) -> str:
    """Canonical text form; parse_object(format_object(x)) == x."""
    lines = [f"field: {obj.field.name}"]
    if isinstance(obj, QuiverRep):
        lines.append("object: rep")
        lines.append(f"quiver: {obj.quiver.name}")
        lines.append("dims: " + " ".join(str(d) for d in obj.dims))
        for arrow in obj.quiver.arrows:
            lines.append(f"map {arrow.name}:")
            lines.extend(matrix_lines(obj.mat(arrow.name)))
    elif isinstance(obj, PairRelObj):
        lines.append("object: pairrel")
        lines.append(f"spaces: {obj.dim1} {obj.dim2}")
        lines.append("relation R1:")
        lines.extend(matrix_lines(obj.basis1))
        lines.append("relation R2:")
        lines.extend(matrix_lines(obj.basis2))
    else:
        lines.append("object: linrel")
        lines.append(f"spaces: {obj.dim1} {obj.dim2}")
        lines.append("relation R:")
        lines.extend(matrix_lines(obj.basis))
    return "\n".join(lines) + "\n"
