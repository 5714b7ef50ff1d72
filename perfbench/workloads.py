"""The benchmark's four workloads.

A workload makes its operations from the seed in ``setup``, runs one
untimed ``warmup`` operation, and runs one operation per ``run`` call.
``run`` returns None for a correct answer and a ``Failure`` otherwise; the
answer is checked against a reference the benchmark owns (object counts it
computes itself, census data recorded in ``reference/``, or the tags it drew).

foursub is imported inside the methods, not at module level: the set-up is
repeated with freshly imported modules, and the workload must use them.
"""

from __future__ import annotations

import io
import itertools
import json
import random
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple, Optional

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

CATEGORIES = ("F", "S", "D", "K", "C", "LinRel1", "PairRel")

# Tag pools of acceptance criterion 8 (tests/test_acceptance.py); every n <= 2.
SUM_POOLS = {
    "F": ["F:II(0)", "F:II(1)", "F:III(0)", "F:III*(0)", "F:IV(0)", "F:IV*(0)",
          "F:V(1)", "F:V*(0)", "F:Inj1(0)", "F:Inj2(0)", "F:Inj3(0)", "F:Inj4(0)"],
    "S": ["S:I(1)", "S:I(2)", "S:II(0)", "S:II(1)", "S:III(0)", "S:III(1)",
          "S:III*(0)", "S:IV(0)", "S:IV(1)", "S:IV*(0)"],
    "D": ["D:I(1)", "D:I(2)", "D:II(0)", "D:II(1)", "D:III(0)", "D:III(1)",
          "D:III*(0)", "D:IV(0)", "D:IV(1)", "D:IV*(0)"],
    "K": ["K:I(1)", "K:I(2)", "K:I2(1)", "K:II(0)", "K:II(1)", "K:III(0)", "K:III(1)"],
    "C": ["C:I(1)", "C:I(2)", "C:I2(1)", "C:II(0)", "C:II(1)", "C:III(0)", "C:III(1)"],
    "LinRel1": ["LinRel1:I(1)", "LinRel1:I(2)", "LinRel1:II(0)", "LinRel1:II(1)",
                "LinRel1:III(1)", "LinRel1:III(2)"],
    "PairRel": ["PairRel:I(1)", "PairRel:II(0)", "PairRel:III(0)", "PairRel:III*(0)",
                "PairRel:IV(0)", "PairRel:IV*(1)"],
}

# Family members added to each pool, written as foursub prints them.
FAMILY_TAGS = {
    "F2": ("{c}:0(1,p=t+1,s=1)", "{c}:0(2,p=t+1,s=2)"),
    "F5": ("{c}:0(1,p=t+1,s=1)", "{c}:0(2,p=t+1,s=2)",
           "{c}:0(1,p=t+2,s=1)", "{c}:0(1,p=t+4,s=1)"),
    "Q": ("{c}:0(1,p=t+1,s=1)", "{c}:0(2,p=t+1,s=2)", "{c}:0(1,p=t-2,s=1)"),
}

# Over Q the family tags need candidate (p, s) pairs from the caller.
Q_CANDIDATES = (("t+1", 1), ("t+1", 2), ("t-2", 1))

# Known defect at commit 0c4ac90: over Q, is_isomorphic(C:I(1), C:I2(1)) is
# True, so a C:I2(1) summand comes back as C:I(1).  Such answers are counted
# as failed but marked known; any other wrong answer makes the run incorrect.
KNOWN_Q_SWAP = ("C:I2(1)", "C:I(1)")


class Failure(NamedTuple):
    message: str
    known: bool = False


def pool(category: str, field_name: str) -> list:
    return SUM_POOLS[category] + [t.format(c=category) for t in FAMILY_TAGS[field_name]]


# -- object counts, computed without foursub -----------------------------------

# (source, target) positions in the dims vector of every arrow; an arrow
# carries a dims[target] x dims[source] matrix.
ARROWS = {
    "F": ((1, 0), (2, 0), (3, 0), (4, 0)),
    "S": ((0, 2), (1, 2), (0, 3), (1, 3)),
    "D": ((0, 2), (1, 2), (0, 1)),
    "K": ((0, 1), (0, 1)),
    "C": ((0, 1), (1, 0)),
}


DIMS_LEN = {"F": 5, "S": 4, "D": 3, "K": 2, "C": 2, "LinRel1": 1, "PairRel": 2}


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def subspace_count(n: int, q: int) -> int:
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))


def object_count(category: str, q: int, dims) -> int:
    """Objects of a census cell: q^(matrix entries) for a quiver, subspaces
    of F_q^(2d) for LinRel1, and pairs of subspaces for PairRel."""
    if category == "LinRel1":
        return subspace_count(2 * dims[0], q)
    if category == "PairRel":
        return subspace_count(dims[0] + dims[1], q) ** 2
    return q ** sum(dims[s] * dims[t] for s, t in ARROWS[category])


# -- census ----------------------------------------------------------------------


class Cell(NamedTuple):
    category: str
    dims: tuple
    objects: int
    reference: dict


class CensusOp(NamedTuple):
    label: str
    cells: tuple

    @property
    def objects(self) -> int:
        return sum(cell.objects for cell in self.cells)


def _sweep(category: str, bound: int) -> list:
    """Dimension vectors of a census sweep: total at most bound, each entry
    at most 4, ordered by (total, vector)."""
    top = min(4, bound)
    vectors = (
        v for v in itertools.product(range(top + 1), repeat=DIMS_LEN[category]) if sum(v) <= bound
    )
    return sorted(vectors, key=lambda v: (sum(v), v))


def census_f2_cells() -> list:
    """The criterion-1 sweep over F2 with LinRel1 up to dimension 3 and
    without the PairRel cells (0,4), (4,0), (1,3) and (3,1) (see README.md)."""
    cells = []
    for category, bound in (("K", 4), ("C", 4), ("D", 4), ("S", 4), ("F", 5), ("LinRel1", 3), ("PairRel", 4)):
        for dims in _sweep(category, bound):
            if category == "PairRel" and dims in ((0, 4), (4, 0), (1, 3), (3, 1)):
                continue
            cells.append((category, dims))
    return cells


def census_f2_group(category: str, dims) -> str:
    """census_f2 runs each category's cells as one operation, as criterion 1
    calls census_sweep once per category, except that K, C, D and S (0.1 to
    0.3 s each) form one operation: a shorter one samples the machine's speed
    of the moment, and the median of 7 operations fell between two of them
    and moved by 2x from run to run."""
    return "K C D S" if category in ("K", "C", "D", "S") else category


CENSUS_F3_CELLS = [
    ("K", (1, 1)), ("K", (2, 2)), ("K", (1, 3)), ("C", (2, 2)), ("F", (2, 1, 1, 1, 1)),
    ("LinRel1", (2,)), ("PairRel", (0, 3)), ("PairRel", (1, 2)), ("D", (2, 1, 1)),
    ("S", (1, 1, 1, 1)),
]


def census_summary(report, format_tag) -> dict:
    """What the check compares: counts and the multiset of (tag, orbit size).
    Decomposable classes carry the tag "decomposable", indecomposable ones
    that match no table entry "UNMATCHED"."""
    orbits = Counter()
    for entry in report.classes:
        if not entry.indecomposable:
            tag = "decomposable"
        elif entry.tag is None:
            tag = "UNMATCHED"
        else:
            tag = format_tag(entry.tag)
        orbits[(tag, entry.orbit_size)] += 1
    return {
        "total": report.total,
        "classes": report.num_classes,
        "indecomposable": report.num_indecomposable,
        "orbits": sorted([tag, size, n] for (tag, size), n in orbits.items()),
    }


def cell_key(category: str, dims) -> str:
    return f"{category} {' '.join(map(str, dims))}"


class CensusWorkload:
    """Every object of each cell enumerated and classified, workers=1.

    ``group`` maps a (category, dims) cell to the label of the operation
    that runs it (see census_f2_group; census_f3 runs one cell per
    operation).
    """

    def __init__(self, name: str, q: int, cells, group):
        self.name = name
        self.q = q
        self.cells = list(cells)
        self.group = group

    def reference_path(self) -> Path:
        return REFERENCE_DIR / f"{self.name}.json"

    def setup(self, seed: int, workdir: Path) -> list:
        # The cells are exhaustive, so the seed does not change the inputs.
        from foursub import canon, census
        from foursub.fields import GF

        # Called through their modules, so that a traced run sees the calls.
        self.canon, self.census, self.field = canon, census, GF(self.q)
        reference = json.loads(self.reference_path().read_text())["cells"]
        groups: dict = {}
        for c, d in self.cells:
            cell = Cell(c, d, object_count(c, self.q, d), reference[cell_key(c, d)])
            groups.setdefault(self.group(c, d), []).append(cell)
        return [CensusOp(label, tuple(cells)) for label, cells in groups.items()]

    def warmup(self) -> None:
        self.census.census("K", self.field, (1, 1), workers=1)

    def run(self, op: CensusOp) -> Optional[Failure]:
        for cell in op.cells:
            report = self.census.census(cell.category, self.field, cell.dims, workers=1)
            got = census_summary(report, self.canon.format_tag)
            where = cell_key(cell.category, cell.dims)
            if got["total"] != cell.objects:
                return Failure(f"{where}: total {got['total']} != {cell.objects}")
            for key in ("classes", "indecomposable", "orbits"):
                if got[key] != cell.reference[key]:
                    return Failure(f"{where}: {key} differ from the reference")
        return None


# -- classify ----------------------------------------------------------------------


class ClassifyOp(NamedTuple):
    index: int
    field_name: str
    tags: tuple
    obj: object
    path: Optional[Path]
    objects: int = 1

    @property
    def expected(self) -> Counter:
        return Counter(self.tags)


def _draw(mods, field, category: str, tags, rng):
    """A random change of basis of the direct sum of the tags' canonical
    representatives (as acceptance criterion 8 builds them)."""
    canon, quivers, relations, matrices = mods
    parts = [canon.canon_rep(canon.parse_tag(t, field), field) for t in tags]
    if category in ("F", "S", "D", "K", "C"):
        return quivers.random_conjugate(quivers.direct_sum(*parts), rng)
    obj = parts[0]
    for part in parts[1:]:
        obj = relations.rel_direct_sum(obj, part)
    if isinstance(obj, relations.PairRelObj):
        g = matrices.direct_sum(
            matrices.random_invertible(field, obj.dim1, rng),
            matrices.random_invertible(field, obj.dim2, rng),
        )
        return relations.PairRelObj(field, obj.dim1, obj.dim2, g @ obj.basis1, g @ obj.basis2)
    g = matrices.random_invertible(field, obj.dim1, rng)
    return relations.RelObj(field, obj.dim1, obj.dim2, matrices.direct_sum(g, g) @ obj.basis)


def _modules():
    from foursub import canon, matrices, quivers, relations

    return canon, quivers, relations, matrices


class ClassifyFpWorkload:
    """Criterion-8 sums over F2 and F5 through ``foursub decompose``, in process.

    Object k has category k mod 7, field F2 or F5 by (k div 7) mod 2, and
    1 + (k div 14) mod 4 summands, so every pass of 56 objects holds each
    (category, field, summand count) once.  The tags are drawn with
    replacement from the fixed TAG_DESIGN_SEED and the seed draws every
    change of basis: with tags drawn from the seed, op_tail_ms moved by
    15% between two seeds (80-85 against 90-99 ms, three runs each).

    Creating the 897 files is left out of ``setup_s`` (``untimed``): it is
    the file system's work, not foursub's, and the same files took from
    0.05 to 0.8 s depending on the directory they were written to.
    """

    name = "classify_fp"
    objects_per_pass = 896
    TAG_DESIGN_SEED = 0

    def setup(self, seed: int, workdir: Path) -> list:
        from foursub import cli
        from foursub.fields import GF
        from foursub.repio import format_object

        self.cli = cli
        mods = _modules()
        fields = {"F2": GF(2), "F5": GF(5)}
        design, rng = random.Random(self.TAG_DESIGN_SEED), random.Random(seed)
        ops, texts = [], []
        for k in range(self.objects_per_pass):
            category = CATEGORIES[k % 7]
            field_name = ("F2", "F5")[(k // 7) % 2]
            tags = tuple(design.choice(pool(category, field_name)) for _ in range(1 + (k // 14) % 4))
            obj = _draw(mods, fields[field_name], category, tags, rng)
            texts.append(format_object(obj))
            ops.append(ClassifyOp(k, field_name, tags, obj, workdir / f"{k}.txt"))
        self.warm = workdir / "warmup.txt"
        warm = mods[0].canon_rep(mods[0].parse_tag("F:II(1)", fields["F2"]), fields["F2"])
        texts.append(format_object(warm))
        started = time.perf_counter()
        for path, text in zip([op.path for op in ops] + [self.warm], texts):
            path.write_text(text, encoding="ascii")
        self.untimed = [(started, time.perf_counter())]
        return ops

    def rewrite(self, ops) -> None:
        """Write the operation files again (the traced run times this)."""
        from foursub.repio import format_object

        for op in ops:
            op.path.write_text(format_object(op.obj), encoding="ascii")

    def decompose(self, path: Path, seed: int):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.cli.main(["decompose", str(path), "--seed", str(seed), "--format", "lines"])
        return code, out.getvalue(), err.getvalue()

    def warmup(self) -> None:
        code, _, err = self.decompose(self.warm, 0)
        if code != 0:
            raise RuntimeError(f"warm-up decompose failed: {err.strip()}")

    def run(self, op: ClassifyOp) -> Optional[Failure]:
        code, out, err = self.decompose(op.path, op.index)
        if code != 0:
            return Failure(f"object {op.index}: exit {code}: {err.strip()}")
        got = Counter()
        for line in out.splitlines():
            tag, sep, mult = line.rpartition(" x ")
            if not sep or not mult.isdigit():
                return Failure(f"object {op.index}: malformed line {line!r}")
            got[tag] += int(mult)
        if got != op.expected:
            return Failure(f"object {op.index}: got {dict(got)}, drew {dict(op.expected)}")
        return None


class ClassifyQWorkload:
    """Criterion-8 sums over Q through ``classify(obj, candidates=...)``.

    Object k has category k mod 7 and 1 + (k div 7) mod 3 summands, so a
    pass of 21 objects holds each (category, summand count) once.

    Over Q one object can cost ten thousand times another (0.1 ms to 7 s at
    commit 0c4ac90), so two choices keep a pass steady.  A draw whose
    four-subspace embedding has total dimension above MAX_EMBEDDED_DIM is
    drawn again; that caps an object at about 1 s and leaves room for
    enough objects to place the percentiles.  The tags come from the fixed
    TAG_DESIGN_SEED, and the seed draws every change of basis: with tags
    drawn from the seed, a pass took from 12 to 23 s.
    """

    name = "classify_q"
    objects_per_pass = 252
    MAX_EMBEDDED_DIM = 16
    TAG_DESIGN_SEED = 0
    # Functor i embeds category FUNCTOR[i] into four-subspace representations.
    FUNCTOR = {"S": 1, "D": 2, "K": 3, "C": 4, "LinRel1": 5, "PairRel": 6}

    def setup(self, seed: int, workdir: Path) -> list:
        from foursub import canon, functors
        from foursub.fields import QQ, parse_poly

        self.canon = canon
        self.candidates = [(parse_poly(QQ, p), s) for p, s in Q_CANDIDATES]
        mods = _modules()
        embedded = {}

        def embedded_dim(tag: str) -> int:
            if tag not in embedded:
                rep = canon.canon_rep(canon.parse_tag(tag, QQ), QQ)
                category = tag.split(":")[0]
                if category != "F":
                    rep = functors.apply_functor(self.FUNCTOR[category], rep)
                embedded[tag] = rep.total_dim
            return embedded[tag]

        design, rng = random.Random(self.TAG_DESIGN_SEED), random.Random(seed)
        ops = []
        for k in range(self.objects_per_pass):
            category = CATEGORIES[k % 7]
            while True:
                tags = tuple(design.choice(pool(category, "Q")) for _ in range(1 + (k // 7) % 3))
                if sum(map(embedded_dim, tags)) <= self.MAX_EMBEDDED_DIM:
                    break
            ops.append(ClassifyOp(k, "Q", tags, _draw(mods, QQ, category, tags, rng), None))
        self.warm = canon.canon_rep(canon.parse_tag("K:I(2)", QQ), QQ)
        return ops

    def warmup(self) -> None:
        self.canon.classify(self.warm, candidates=self.candidates)

    def run(self, op: ClassifyOp) -> Optional[Failure]:
        got = Counter()
        for tag, mult in self.canon.classify(op.obj, candidates=self.candidates, seed=op.index):
            got[self.canon.format_tag(tag)] += mult
        if got == op.expected:
            return None
        wrong, said = KNOWN_Q_SWAP
        swapped = Counter()
        for tag, mult in op.expected.items():
            swapped[said if tag == wrong else tag] += mult
        known = got == swapped
        return Failure(f"object {op.index}: got {dict(got)}, drew {dict(op.expected)}", known)


def make(name: str):
    if name == "census_f2":
        return CensusWorkload(name, 2, census_f2_cells(), census_f2_group)
    if name == "census_f3":
        return CensusWorkload(name, 3, CENSUS_F3_CELLS, cell_key)
    if name == "classify_fp":
        return ClassifyFpWorkload()
    if name == "classify_q":
        return ClassifyQWorkload()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("census_f2", "census_f3", "classify_fp", "classify_q")
