import hashlib
import itertools
import random
import signal

import pytest

from foursub.canon import canon_rep, parse_tag
from foursub.cli import main
from foursub.fields import GF, FieldSpec, Poly, format_poly, monic_irreducibles
from foursub.matrices import Matrix, random_invertible, rref
from foursub.matrices import direct_sum as mat_direct_sum
from foursub.quivers import (
    QUIVERS,
    QuiverRep,
    _hom_system,
    decompose,
    direct_sum,
    hom_basis,
    random_conjugate,
)
from foursub.relations import (
    PairRelObj,
    RelObj,
    _as_rep,
    lrel_hom_basis,
    random_pairrel,
    random_rel,
    rel_compose,
    rel_decompose,
    rel_direct_sum,
    rel_dual,
    rel_hom_basis,
    rel_inverse,
)
from foursub.repio import format_object, parse_object

F2 = GF(2)
F3 = GF(3)


# `foursub canon` texts of _relation_canon_tags(), concatenated
RELATION_CANON_SHA256 = "d67cede862e25762d39afc9caf72fd9752f14f990ecfb5689bccbda278c4d323"


def _relation_canon_tags():
    """(tag, field) for every LinRel1 and PairRel tag with n <= 3 over F2,
    F3 and F5, family tags with deg p <= 2 and s <= 2, and the family tags
    of t+1, t-2 and t^2+1 over Q."""
    min_n = {
        "LinRel1": {"I": 1, "II": 0, "III": 1},
        "PairRel": {"I": 1, "II": 0, "III": 0, "III*": 0, "IV": 0, "IV*": 1},
    }
    out = []
    for field_name in ("F2", "F3", "F5"):
        field = FieldSpec.from_name(field_name)
        family = [
            (format_poly(p), degree, s)
            for degree in (1, 2)
            for p in monic_irreducibles(field, degree)
            if p != Poly.t(field)
            for s in (1, 2)
            if s * degree <= 3
        ]
        for category, types in min_n.items():
            for p, degree, s in family:
                out.append((f"{category}:0({s * degree},p={p},s={s})", field_name))
            for type_text, low in types.items():
                out += [(f"{category}:{type_text}({n})", field_name) for n in range(low, 4)]
    for category in ("LinRel1", "PairRel"):
        for p, degree, powers in (("t+1", 1, (1, 2)), ("t-2", 1, (1, 2)), ("t^2+1", 2, (1,))):
            out += [(f"{category}:0({s * degree},p={p},s={s})", "Q") for s in powers]
    return out


def M(field, rows):
    return Matrix.from_rows(field, rows)


def _census_f2_cells():
    """The criterion-1 sweep over F2 in census_sweep order, without
    LinRel1 (4) and the PairRel cells (0,4), (4,0), (1,3) and (3,1)."""
    arity = {"K": 2, "C": 2, "D": 3, "S": 4, "F": 5, "LinRel1": 1, "PairRel": 2}
    sweeps = [("K", 4), ("C", 4), ("D", 4), ("S", 4), ("F", 5), ("LinRel1", 3), ("PairRel", 4)]
    cells = []
    for category, bound in sweeps:
        vectors = [
            v
            for v in itertools.product(range(min(4, bound) + 1), repeat=arity[category])
            if sum(v) <= bound
        ]
        for dims in sorted(vectors, key=lambda v: (sum(v), v)):
            if category == "PairRel" and dims in ((0, 4), (4, 0), (1, 3), (3, 1)):
                continue
            cells.append((category, dims))
    return cells


CENSUS_F3_CELLS = [
    ("K", (1, 1)), ("K", (2, 2)), ("K", (1, 3)), ("C", (2, 2)), ("F", (2, 1, 1, 1, 1)),
    ("LinRel1", (2,)), ("PairRel", (0, 3)), ("PairRel", (1, 2)), ("D", (2, 1, 1)),
    ("S", (1, 1, 1, 1)),
]

# test_census_lines_pinned: recorded before the census shared its
# generator tables between cells
CENSUS_F2_SHA256 = "b724c0b6d51dfc187dca54e01a96ff4598344e6829a63a5b2bb3b8fc984dd6d8"
CENSUS_F3_SHA256 = "9100b21b1ab639e3fc8c6f54f53ad7f152d3739de954032bf653d67bc992e7c7"

# test_decompose_pinned: recorded before decompose certified End = k[phi]
# by a generator and read summand coordinates off their kernel bases
DECOMPOSE_SHA256 = "53f2a2e0b99b8f86a6b5be96740247413ab723274b5b25b227c2a156b4c7949f"
# test_q_hom_and_rref_pinned: recorded while rref reduced rows of Fractions
Q_HOM_RREF_SHA256 = "64226364fc7161267c3d1ea702af9ef298ba141ef19db7b12aad4d071c51e321"

# the tag pools of acceptance criterion 8; each field adds family tags
_SUM_POOLS = {
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
_FAMILY_POLYS = {"F2": ("t+1",), "F5": ("t+1", "t+2"), "Q": ("t+1", "t-2")}
# sums per category and field; decompose over Q is the slowest
_PIN_SUMS = {"F2": 12, "F5": 12, "Q": 4}


def _criterion_8_sums():
    """(label, object) for _PIN_SUMS seeded sums of 1 to 4 canonical
    indecomposables per category and field (1 to 3 over Q), each after a
    random change of basis, as acceptance criterion 8 draws them."""
    out = []
    for field_name, polys in _FAMILY_POLYS.items():
        field = FieldSpec.from_name(field_name)
        for category, base in _SUM_POOLS.items():
            pool = base + [f"{category}:0({s},p={p},s={s})" for p in polys for s in (1, 2)]
            for k in range(_PIN_SUMS[field_name]):
                rng = random.Random(f"{field_name} {category} {k}")
                count = rng.randint(1, 3 if field_name == "Q" else 4)
                parts = [canon_rep(parse_tag(rng.choice(pool), field), field) for _ in range(count)]
                if isinstance(parts[0], QuiverRep):
                    obj = random_conjugate(direct_sum(*parts), rng)
                else:
                    obj = parts[0]
                    for part in parts[1:]:
                        obj = rel_direct_sum(obj, part)
                    g = random_invertible(field, obj.dim1, rng)
                    if isinstance(obj, PairRelObj):
                        g = mat_direct_sum(g, random_invertible(field, obj.dim2, rng))
                        obj = PairRelObj(field, obj.dim1, obj.dim2, g @ obj.basis1, g @ obj.basis2)
                    else:
                        obj = RelObj(field, obj.dim1, obj.dim2, mat_direct_sum(g, g) @ obj.basis)
                out.append((f"{field_name} {category} {k}", obj))
    return out


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_within_10_s(capsys, *argv):
    """run, failing with TimeoutError if the command takes 10 s."""

    def timed_out(signum, frame):
        raise TimeoutError(f"{argv} ran for 10 s")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(10)
    try:
        return run(capsys, *argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(format_object(obj))
    return str(path)


@pytest.fixture
def kron_sum(tmp_path):
    """I(1) + I(1) as one Kronecker file."""
    v = QuiverRep(
        F2, QUIVERS["K"], (2, 2), [M(F2, [[1, 0], [0, 1]]), M(F2, [[0, 0], [0, 0]])]
    )
    return write(tmp_path, "ksum.rep", v)


@pytest.fixture
def lrel_file(tmp_path):
    r = RelObj(F3, 2, 2, M(F3, [[1, 0], [0, 1], [0, 1], [0, 0]]))
    return write(tmp_path, "a.lrel", r)


class TestDecomposeClassify:
    def test_decompose_text(self, capsys, kron_sum):
        code, out, err = run(capsys, "decompose", kron_sum)
        assert code == 0 and err == ""
        assert out == (
            "object: rep K dims 2 2 over F2\nsummands: 2\nK:I(1) x 2\n"
        )

    def test_decompose_lines(self, capsys, kron_sum):
        code, out, _ = run(capsys, "decompose", kron_sum, "--format", "lines")
        assert code == 0
        assert out == "K:I(1) x 2\n"

    def test_classify_indecomposable(self, capsys, tmp_path):
        v = QuiverRep(F2, QUIVERS["K"], (1, 1), [M(F2, [[1]]), M(F2, [[1]])])
        path = write(tmp_path, "pencil.rep", v)
        code, out, _ = run(capsys, "classify", path)
        assert code == 0
        assert out == "tag: K:0(1,p=t+1,s=1)\n"

    def test_classify_rejects_decomposable(self, capsys, kron_sum):
        code, out, err = run(capsys, "classify", kron_sum)
        assert code == 1 and out == ""
        assert err.startswith("error: NotIndecomposable:")
        assert err.count("\n") == 1

    def test_decompose_relation_file(self, capsys, lrel_file):
        code, out, _ = run(capsys, "decompose", lrel_file, "--format", "lines")
        assert code == 0
        assert "x" in out  # tag lines present

    def test_decompose_pinned(self, capsys, tmp_path):
        # SHA-256 over seeded criterion-8 sums of the summands that
        # quivers.decompose / relations.rel_decompose return (format_object
        # text and multiplicity) and of `decompose --format lines` (exit
        # code, stdout, stderr); any change of a summand's matrices, its
        # order or a tag changes it
        sums = _criterion_8_sums()
        assert len(sums) == 7 * 28
        texts = []
        for label, obj in sums:
            split = rel_decompose(obj) if not isinstance(obj, QuiverRep) else decompose(obj)
            texts.append(label + "\n")
            texts += [f"{format_object(rep)}x {mult}\n" for rep, mult in split]
            path = write(tmp_path, "sum.txt", obj)
            code, out, err = run(capsys, "decompose", path, "--format", "lines")
            texts.append(f"exit {code}\n{out}{err}")
        assert hashlib.sha256("".join(texts).encode("ascii")).hexdigest() == DECOMPOSE_SHA256


def test_q_hom_and_rref_pinned():
    # SHA-256 over the seeded criterion-8 sums over Q (relations as their
    # S- or K-representations) of hom_basis(x, x) and of the rref, rank and
    # pivot columns of every arrow matrix and of the hom system itself:
    # the exact rational systems that decompose and classify reduce
    texts = []
    for label, obj in _criterion_8_sums():
        if not label.startswith("Q "):
            continue
        rep = obj if isinstance(obj, QuiverRep) else _as_rep(obj)
        rows, _, total = _hom_system(rep, rep)
        system = Matrix(rep.field, len(rows), total, [x for row in rows for x in row])
        texts.append(label + "\n")
        for m in (*rep.mats, system):
            red, rank, pivots = rref(m)
            texts.append(f"rref {m.rows}x{m.cols} rank {rank} pivots {pivots}: "
                         + " ".join(map(str, red.entries)) + "\n")
        for h in hom_basis(rep, rep):
            texts.append("hom " + " | ".join(
                " ".join(map(str, c.entries)) for c in h.comps) + "\n")
    assert len(texts) > 28
    assert hashlib.sha256("".join(texts).encode("ascii")).hexdigest() == Q_HOM_RREF_SHA256


class TestHomIso:
    def test_hom_text_and_lines(self, capsys, kron_sum):
        code, out, _ = run(capsys, "hom", kron_sum, kron_sum)
        assert (code, out) == (0, "hom dim: 4\n")
        code, out, _ = run(capsys, "hom", kron_sum, kron_sum, "--format", "lines")
        assert (code, out) == (0, "4\n")

    def test_hom_of_relations_counts_their_hom_bases(self, capsys, tmp_path):
        """CLI hom on seeded relations and pairs of relations; a relation
        between spaces of different dimensions has no one-space morphisms."""
        rng = random.Random(4)
        for field in (F2, F3):
            for _ in range(4):
                d = rng.randrange(1, 3)
                a, b = (random_rel(field, d, d, rng.randrange(2 * d + 1), rng) for _ in "ab")
                x, y = (
                    random_pairrel(field, d, 1, rng.randrange(d + 2), rng.randrange(d + 2), rng)
                    for _ in "xy"
                )
                pairs = [(a, b, lrel_hom_basis), (a, a, lrel_hom_basis)]
                pairs += [(x, y, rel_hom_basis), (y, y, rel_hom_basis)]
                for u, v, basis in pairs:
                    files = write(tmp_path, "u.rel", u), write(tmp_path, "v.rel", v)
                    code, out, _ = run(capsys, "hom", *files, "--format", "lines")
                    assert (code, out) == (0, f"{len(basis(u, v))}\n")
        lopsided = write(tmp_path, "w.rel", RelObj(F2, 1, 2, M(F2, [[1], [0], [1]])))
        code, _, err = run(capsys, "hom", lopsided, lopsided)
        assert code == 1 and err.startswith("error: DimensionMismatch:")

    def test_iso(self, capsys, tmp_path, kron_sum):
        # conjugated copy: swap the two basis vectors at each vertex
        v = QuiverRep(
            F2,
            QUIVERS["K"],
            (2, 2),
            [M(F2, [[0, 1], [1, 0]]), M(F2, [[0, 0], [0, 0]])],
        )
        other = write(tmp_path, "other.rep", v)
        code, out, _ = run(capsys, "iso", kron_sum, other)
        assert (code, out) == (0, "isomorphic: true\n")

    def test_iso_false_lines(self, capsys, tmp_path, kron_sum):
        v = QuiverRep(
            F2,
            QUIVERS["K"],
            (2, 2),
            [M(F2, [[1, 0], [0, 1]]), M(F2, [[0, 1], [0, 0]])],
        )
        other = write(tmp_path, "other.rep", v)
        code, out, _ = run(capsys, "iso", kron_sum, other, "--format", "lines")
        assert (code, out) == (0, "false\n")

    def test_mixed_kinds_rejected(self, capsys, kron_sum, lrel_file):
        code, _, err = run(capsys, "iso", kron_sum, lrel_file)
        assert code == 2
        assert err.startswith("parse error:")


class TestCanonNhat:
    def test_canon_dump(self, capsys):
        code, out, _ = run(capsys, "canon", "K:I(1)", "--field", "F3")
        assert code == 0
        assert out == (
            "field: F3\nobject: rep\nquiver: K\ndims: 1 1\n"
            "map alpha:\n1\nmap beta:\n0\n"
        )
        assert parse_object(out).quiver is QUIVERS["K"]

    def test_canon_relation_tag(self, capsys):
        code, out, _ = run(capsys, "canon", "LinRel1:II(1)", "--field", "F2")
        assert code == 0
        obj = parse_object(out)
        assert isinstance(obj, RelObj)

    @pytest.mark.parametrize(
        "tag, text",
        [
            (
                "PairRel:IV*(1)",
                "field: F2\nobject: pairrel\nspaces: 1 1\nrelation R1:\n1\n1\n"
                "relation R2:\n1 0\n0 1\n",
            ),
            (
                "LinRel1:0(2,p=t^2+t+1,s=1)",
                "field: F2\nobject: linrel\nspaces: 2 2\nrelation R:\n"
                "1 0\n0 1\n1 1\n1 0\n",
            ),
        ],
    )
    def test_canon_relation_text(self, capsys, tag, text):
        assert run(capsys, "canon", tag, "--field", "F2") == (0, text, "")

    def test_canon_relation_texts_pinned(self, capsys):
        # SHA-256 of the concatenated texts of every tag _relation_canon_tags
        # lists; a change of any relation table entry changes it
        texts = []
        for tag, field_name in _relation_canon_tags():
            code, out, err = run(capsys, "canon", tag, "--field", field_name)
            assert (code, err) == (0, ""), tag
            texts.append(out)
        assert len(texts) == 162
        digest = hashlib.sha256("".join(texts).encode("ascii")).hexdigest()
        assert digest == RELATION_CANON_SHA256

    def test_canon_bad_tag(self, capsys):
        for tag in ("K:nope(1)", "K:0(1,p=t+1,s=2,s=1)"):
            code, _, err = run(capsys, "canon", tag)
            assert code == 2
            assert err.startswith("parse error:")

    def test_nhat_round_trip(self, capsys):
        code, out, _ = run(capsys, "nhat", "t^2+t+1", "1", "--field", "F2")
        assert code == 0
        v = parse_object(out)
        assert v.dims == (4, 2, 2, 2, 2)

    def test_nhat_reducible_modulus(self, capsys):
        code, _, err = run(capsys, "nhat", "t^2+1", "1", "--field", "F2")
        assert code == 1
        assert err.startswith("error: ReducibleModulus")

    @pytest.mark.parametrize(
        "argv",
        [
            ("t^2+t+1", "0"),
            ("t^2+t+1", "-1"),
            ("2t+1", "1", "--field", "F3"),
            ("0", "1"),
        ],
    )
    def test_nhat_invalid_input(self, capsys, argv):
        code, out, err = run(capsys, "nhat", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: InvalidTag:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "tag, field_name, code, err",
        [
            (
                "K:0(2,p=t^2-1099511627776,s=1)",
                "Q",
                1,
                "error: ReducibleModulus: t^2-1099511627776 is reducible over Q\n",
            ),
            ("K:0(2,p=t^2+1,s=1)", "F1000003", 0, ""),
        ],
        ids=["Q", "F1000003"],
    )
    def test_canon_irreducibility_on_large_coefficients(
        self, capsys, tag, field_name, code, err
    ):
        # a rational-root search up to |c| = 2^40, or trial division by every
        # monic linear polynomial over F_1000003, would run far past the alarm
        got = run_within_10_s(capsys, "canon", tag, "--field", field_name)
        assert (got[0], got[2]) == (code, err)

    def test_canon_quartic_family_over_rationals(self, capsys):
        # sympy decides irreducibility over Q in every degree
        code, out, err = run(capsys, "canon", "K:0(4,p=t^4+2,s=1)", "--field", "Q")
        assert (code, err) == (0, "")
        assert parse_object(out).dims == (4, 4)

    @pytest.mark.parametrize("field_name", ["F10000000000000061", "F2305843009213693951"])
    def test_canon_over_large_primes(self, capsys, field_name):
        # trial division took 17 s to accept the first, and the second would
        # take minutes
        code, out, _ = run_within_10_s(capsys, "canon", "K:I(1)", "--field", field_name)
        assert code == 0
        assert out.startswith(f"field: {field_name}\n")


class TestFunctorCommands:
    def test_apply_and_check_image_round_trip(self, capsys, lrel_file):
        code, out, _ = run(capsys, "functor-apply", "--functor", "5", lrel_file)
        assert code == 0
        embedded = parse_object(out)
        assert embedded.quiver is QUIVERS["F"]

    def test_check_image_witness(self, capsys, tmp_path, lrel_file):
        _, out, _ = run(capsys, "functor-apply", "--functor", "5", lrel_file)
        emb_path = tmp_path / "emb.rep"
        emb_path.write_text(out)
        code, out, _ = run(capsys, "check-image", "--functor", "5", str(emb_path))
        assert code == 0
        verdict, _, witness_text = out.partition("\n\n")
        assert verdict == "true"
        witness = parse_object(witness_text)
        assert isinstance(witness, RelObj)

    def test_check_image_lines_is_single_token(self, capsys, tmp_path, lrel_file):
        _, out, _ = run(capsys, "functor-apply", "--functor", "5", lrel_file)
        emb_path = tmp_path / "emb.rep"
        emb_path.write_text(out)
        code, out, _ = run(
            capsys, "check-image", "--functor", "5", str(emb_path), "--format", "lines"
        )
        assert (code, out) == (0, "true\n")

    def test_check_image_false(self, capsys, tmp_path):
        code, out, _ = run(capsys, "canon", "F:V(1)", "--field", "F2")
        assert code == 0
        path = tmp_path / "v.rep"
        path.write_text(out)
        for i in range(1, 7):
            code, out, _ = run(capsys, "check-image", "--functor", str(i), str(path))
            assert code == 0
            assert out.startswith("false (reason: ")
            assert out.count("\n") == 1

    def test_functor_flag_required(self, capsys, lrel_file):
        code, _, err = run(capsys, "functor-apply", lrel_file)
        assert code == 2

    def test_wrong_source_category(self, capsys, kron_sum):
        code, _, err = run(capsys, "functor-apply", "--functor", "5", kron_sum)
        assert code == 1
        assert err.startswith("error: SourceMismatch")


class TestRelationCommands:
    def test_compose_diagram_order(self, capsys, tmp_path):
        first = RelObj(F2, 1, 2, M(F2, [[1], [1], [0]]))
        second = RelObj(F2, 2, 1, M(F2, [[1], [0], [1]]))
        p1 = write(tmp_path, "first.lrel", first)
        p2 = write(tmp_path, "second.lrel", second)
        code, out, _ = run(capsys, "rel-compose", p1, p2)
        assert code == 0
        assert parse_object(out) == rel_compose(second, first)

    def test_inverse_and_dual(self, capsys, tmp_path):
        r = RelObj(F3, 2, 1, M(F3, [[1, 0], [0, 1], [2, 1]]))
        path = write(tmp_path, "r.lrel", r)
        code, out, _ = run(capsys, "rel-inverse", path)
        assert code == 0 and parse_object(out) == rel_inverse(r)
        code, out, _ = run(capsys, "rel-dual", path)
        assert code == 0 and parse_object(out) == rel_dual(r)
        assert parse_object(out).rel_dim == r.dim1 + r.dim2 - r.rel_dim

    def test_relation_commands_reject_reps(self, capsys, kron_sum):
        code, _, err = run(capsys, "rel-inverse", kron_sum)
        assert code == 2
        assert "linear relation" in err


class TestExtensionTest:
    def test_extension_of_fifth_image_members(self, capsys, tmp_path):
        paths = []
        for i, entries in enumerate([[[1]], [[2]]]):
            r = RelObj(F3, 1, 1, M(F3, [[1], entries[0]]))
            _, out, _ = run(capsys, "functor-apply", "--functor", "5",
                            write(tmp_path, f"r{i}.lrel", r))
            p = tmp_path / f"u{i}.rep"
            p.write_text(out)
            paths.append(str(p))
        code, out, _ = run(capsys, "extension-test", paths[0], paths[1], "--seed", "7")
        assert code == 0
        assert out == (
            "extension dims 4 2 2 2 2\n"
            "in image: true\n"
            "epsilon invertible: true\n"
            "zeta invertible: true\n"
        )
        code, out, _ = run(
            capsys, "extension-test", paths[0], paths[1], "--seed", "7",
            "--format", "lines",
        )
        assert (code, out) == (0, "true\n")

    def test_outer_terms_must_be_in_image(self, capsys, tmp_path):
        _, out, _ = run(capsys, "canon", "F:V(1)", "--field", "F3")
        path = tmp_path / "v.rep"
        path.write_text(out)
        code, _, err = run(capsys, "extension-test", str(path), str(path))
        assert code == 1
        assert err.startswith("error: NotInC5")


class TestCensusCommand:
    def test_census_lines_frozen(self, capsys):
        code, out, _ = run(capsys, "census", "K", "1", "1", "--format", "lines")
        assert code == 0
        assert out == (
            "class 0 dims 1 1 indecomposable false tag - orbit 1\n"
            "class 1 dims 1 1 indecomposable true tag K:I2(1) orbit 1\n"
            "class 2 dims 1 1 indecomposable true tag K:I(1) orbit 1\n"
            "class 3 dims 1 1 indecomposable true tag K:0(1,p=t+1,s=1) orbit 1\n"
        )

    def test_census_text_header(self, capsys):
        code, out, _ = run(capsys, "census", "LinRel1", "1", "--field", "F2")
        assert code == 0
        head = out.splitlines()[:4]
        assert head == [
            "census LinRel1 over F2 dims 1",
            "objects: 5",
            "classes: 5",
            "indecomposable: 5",
        ]

    def test_census_deterministic(self, capsys):
        a = run(capsys, "census", "D", "1", "1", "1", "--field", "F3")
        b = run(capsys, "census", "D", "1", "1", "1", "--field", "F3")
        assert a == b

    def test_census_takes_no_seed(self, capsys):
        # nothing in the census is random, so it has no --seed
        code, _, err = run(capsys, "census", "K", "1", "1", "--seed", "3")
        assert code == 2
        assert "--seed" in err

    def test_census_guard(self, capsys):
        code, _, err = run(capsys, "census", "K", "5", "5")
        assert code == 1
        assert err.startswith("error: TooLarge")

    @pytest.mark.parametrize(
        "field_name, cells, digest",
        [
            ("F2", _census_f2_cells(), CENSUS_F2_SHA256),
            ("F3", CENSUS_F3_CELLS, CENSUS_F3_SHA256),
        ],
        ids=["F2", "F3"],
    )
    def test_census_lines_pinned(self, capsys, field_name, cells, digest):
        # SHA-256 of `census --format lines` over every cell, each after a
        # "category dims" line; any change of a class, its order, orbit
        # size, verdict or tag changes it
        texts = []
        for category, dims in cells:
            argv = [category, *map(str, dims)]
            code, out, err = run(capsys, "census", *argv, "--field", field_name, "--format", "lines")
            assert (code, err) == (0, ""), argv
            texts.append(" ".join(argv) + "\n" + out)
        assert hashlib.sha256("".join(texts).encode("ascii")).hexdigest() == digest


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "decompose", "/no/such/file.rep")
        assert code == 2
        assert err.startswith("parse error:")

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.rep"
        path.write_text("field: F2\nobject: rep\nquiver: K\ndims: 1\n")
        code, _, err = run(capsys, "decompose", str(path))
        assert code == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_unknown_flag(self, capsys, kron_sum):
        assert run(capsys, "decompose", kron_sum, "--tolerance", "0.1")[0] == 2

    def test_no_arguments(self, capsys):
        assert run(capsys)[0] == 2

    def test_bad_field_flag(self, capsys):
        code, _, err = run(capsys, "canon", "K:I(1)", "--field", "F6")
        assert code == 2

    @pytest.mark.parametrize(
        "tag, field_name",
        [("K:I(1_0)", "F2"), ("K:I(+1)", "F2"), ("K:I(١)", "F2"),
         ("K:0(1,p=t+١,s=1)", "F2"), ("K:0(1,p=t+1,s=+1)", "F2"), ("K:I(1)", "F٥")],
    )
    def test_non_ascii_and_signed_numbers_rejected(self, capsys, tag, field_name):
        code, out, err = run(capsys, "canon", tag, "--field", field_name)
        assert (code, out) == (2, "")
        assert err.startswith("parse error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ("decompose", "FILE", "--seed", "١"),
            ("decompose", "FILE", "--seed", "1_0"),
            ("decompose", "FILE", "--seed", "+1"),
            ("functor-apply", "--functor", "٣", "FILE"),
            ("census", "K", "١", "1"),
            ("census", "K", "1", "1", "--workers", "١"),
            ("nhat", "t+1", "١"),
        ],
        ids=["seed-arabic", "seed-underscore", "seed-plus", "functor", "dims", "workers", "power"],
    )
    def test_integer_options_take_ascii_digits_only(self, capsys, kron_sum, argv):
        # argparse rejects the value before any command runs
        code, out, err = run(capsys, *(kron_sum if a == "FILE" else a for a in argv))
        assert (code, out) == (2, "")
        assert "invalid int value" in err
