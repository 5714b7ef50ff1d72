import random

import pytest

from foursub.errors import ParseError
from foursub.fields import GF, QQ
from foursub.matrices import Matrix
from foursub.quivers import QUIVERS, QuiverRep, random_rep
from foursub.relations import PairRelObj, RelObj, random_pairrel, random_rel
from foursub.repio import format_object, matrix_lines, parse_object

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)


def M(field, rows):
    return Matrix.from_rows(field, rows)


class TestParseRep:
    def test_kronecker_example(self):
        text = """
        # a Kronecker pencil
        field: F2
        object: rep
        quiver: K
        dims: 1 1
        map alpha:
        1
        map beta:
        0
        """
        v = parse_object(text)
        assert isinstance(v, QuiverRep)
        assert v.quiver is QUIVERS["K"]
        assert v.dims == (1, 1)
        assert v.mat("alpha") == M(F2, [[1]])
        assert v.mat("beta") == M(F2, [[0]])

    def test_inline_comments_and_blank_lines(self):
        text = (
            "field: F3   # ternary\n\n"
            "object: rep\n"
            "quiver: C\n"
            "dims: 2 1  # V1 then V2\n"
            "map alpha:\n"
            "1\n2\n"
            "map beta:\n"
            "0 2\n"
        )
        v = parse_object(text)
        assert v.field == F3
        assert v.mat("alpha") == M(F3, [[1], [2]])
        assert v.mat("beta") == M(F3, [[0, 2]])

    def test_rational_entries(self):
        text = (
            "field: Q\nobject: rep\nquiver: K\ndims: 1 1\n"
            "map alpha:\n-3/2\nmap beta:\n7\n"
        )
        v = parse_object(text)
        from fractions import Fraction

        assert v.mat("alpha").entry(0, 0) == Fraction(-3, 2)
        assert v.mat("beta").entry(0, 0) == Fraction(7)

    def test_prime_field_reduces_entries(self):
        text = (
            "field: F3\nobject: rep\nquiver: K\ndims: 1 1\n"
            "map alpha:\n5\nmap beta:\n-1\n"
        )
        v = parse_object(text)
        assert v.mat("alpha").entry(0, 0) == 2
        assert v.mat("beta").entry(0, 0) == 2

    def test_zero_column_rows_use_dot(self):
        text = (
            "field: F2\nobject: rep\nquiver: K\ndims: 2 0\n"
            "map alpha:\n.\n.\nmap beta:\n.\n.\n"
        )
        v = parse_object(text)
        assert v.dims == (2, 0)
        assert v.mat("alpha").cols == 0

    def test_zero_row_maps_have_no_lines(self):
        text = "field: F2\nobject: rep\nquiver: K\ndims: 0 1\nmap alpha:\nmap beta:\n"
        v = parse_object(text)
        assert v.dims == (0, 1)
        assert v.mat("alpha").rows == 0


class TestParseRelations:
    def test_linrel(self):
        text = (
            "field: F2\nobject: linrel\nspaces: 2 1\n"
            "relation R:\n1 0\n0 1\n0 1\n"
        )
        r = parse_object(text)
        assert isinstance(r, RelObj)
        assert (r.dim1, r.dim2, r.rel_dim) == (2, 1, 2)

    def test_linrel_spanning_set_is_canonicalized(self):
        # three dependent columns span a 2-dimensional relation
        text = (
            "field: F3\nobject: linrel\nspaces: 1 1\n"
            "relation R:\n1 0 1\n0 1 1\n"
        )
        r = parse_object(text)
        assert r.rel_dim == 2
        assert r.basis == M(F3, [[1, 0], [0, 1]])

    def test_empty_relation_over_zero_spaces(self):
        r = parse_object("field: Q\nobject: linrel\nspaces: 0 0\nrelation R:\n")
        assert (r.dim1, r.dim2, r.rel_dim) == (0, 0, 0)

    def test_zero_relation_in_positive_spaces(self):
        r = parse_object(
            "field: F2\nobject: linrel\nspaces: 1 1\nrelation R:\n.\n.\n"
        )
        assert (r.dim1, r.dim2, r.rel_dim) == (1, 1, 0)

    def test_pairrel(self):
        text = (
            "field: F2\nobject: pairrel\nspaces: 1 1\n"
            "relation R1:\n1\n1\n"
            "relation R2:\n1\n0\n"
        )
        s = parse_object(text)
        assert isinstance(s, PairRelObj)
        assert (s.rel1.rel_dim, s.rel2.rel_dim) == (1, 1)


class TestRoundTrip:
    @pytest.mark.parametrize("field", [F2, F3, F5, QQ])
    @pytest.mark.parametrize("name", ["F", "S", "D", "K", "C"])
    def test_rep_round_trip(self, field, name):
        rng = random.Random(hash((field.name, name)) & 0xFFFF)
        quiver = QUIVERS[name]
        for _ in range(8):
            dims = [rng.randrange(4) for _ in quiver.vertices]
            v = random_rep(field, quiver, dims, rng)
            assert parse_object(format_object(v)) == v

    @pytest.mark.parametrize("field", [F2, F3, QQ])
    def test_linrel_round_trip(self, field):
        rng = random.Random(11)
        for _ in range(12):
            d1, d2 = rng.randrange(4), rng.randrange(4)
            r = random_rel(field, d1, d2, rng.randrange(d1 + d2 + 1), rng)
            assert parse_object(format_object(r)) == r

    @pytest.mark.parametrize("field", [F2, F3, QQ])
    def test_pairrel_round_trip(self, field):
        rng = random.Random(17)
        for _ in range(12):
            d1, d2 = rng.randrange(3), rng.randrange(3)
            s = random_pairrel(
                field,
                d1,
                d2,
                rng.randrange(d1 + d2 + 1),
                rng.randrange(d1 + d2 + 1),
                rng,
            )
            assert parse_object(format_object(s)) == s

    def test_format_is_stable(self):
        text = format_object(random_rep(F3, QUIVERS["S"], (1, 2, 0, 1), random.Random(3)))
        assert format_object(parse_object(text)) == text

    def test_formatted_rep_layout(self):
        v = QuiverRep(
            F2, QUIVERS["K"], (1, 1), [M(F2, [[1]]), M(F2, [[0]])]
        )
        assert format_object(v) == (
            "field: F2\nobject: rep\nquiver: K\ndims: 1 1\n"
            "map alpha:\n1\nmap beta:\n0\n"
        )

    def test_matrix_lines_conventions(self):
        assert matrix_lines(Matrix.zeros(F2, 0, 3)) == []
        assert matrix_lines(Matrix.zeros(F2, 2, 0)) == [".", "."]
        assert matrix_lines(M(QQ, [[1, -2], [3, 4]])) == ["1 -2", "3 4"]


class TestParseErrors:
    def assert_rejects(self, text, match=None):
        with pytest.raises(ParseError, match=match):
            parse_object(text)

    def test_empty_input(self):
        self.assert_rejects("", match="unexpected end")

    def test_missing_field_line(self):
        self.assert_rejects("object: rep\n", match="expected 'field")

    def test_bad_field(self):
        self.assert_rejects("field: F4\nobject: rep\n", match="not prime")
        self.assert_rejects("field: R\nobject: rep\n", match="unknown field")

    def test_unknown_object_kind(self):
        self.assert_rejects("field: F2\nobject: widget\n", match="unknown object")

    def test_unknown_quiver(self):
        self.assert_rejects(
            "field: F2\nobject: rep\nquiver: E8\n", match="unknown quiver"
        )

    def test_wrong_dims_count(self):
        self.assert_rejects(
            "field: F2\nobject: rep\nquiver: K\ndims: 1 1 1\n",
            match="expected 2",
        )

    def test_negative_dims(self):
        self.assert_rejects(
            "field: F2\nobject: rep\nquiver: K\ndims: -1 1\n", match="negative"
        )

    @pytest.mark.parametrize("dims", ["² 1", "١ 1", "+1 1", "1_0 1", "- 1", "--1 1"])
    def test_dims_take_ascii_digits_only(self, dims):
        self.assert_rejects(
            f"field: F2\nobject: rep\nquiver: K\ndims: {dims}\n", match="expected 2"
        )

    def test_spaces_take_ascii_digits_only(self):
        self.assert_rejects("field: F2\nobject: linrel\nspaces: ١ 1\n", match="expected 2")

    def test_arrows_out_of_order(self):
        self.assert_rejects(
            "field: F2\nobject: rep\nquiver: K\ndims: 1 1\n"
            "map beta:\n1\nmap alpha:\n0\n",
            match="expected 'map alpha",
        )

    def test_missing_matrix_row(self):
        self.assert_rejects(
            "field: F2\nobject: rep\nquiver: K\ndims: 2 1\n"
            "map alpha:\n1\nmap beta:\n1\n0\n",
        )

    def test_wrong_row_width(self):
        self.assert_rejects(
            "field: F2\nobject: rep\nquiver: K\ndims: 1 2\n"
            "map alpha:\n1\nmap beta:\n0 1\n",
            match="expected 2 entries",
        )

    def test_ragged_relation_rows(self):
        self.assert_rejects(
            "field: F2\nobject: linrel\nspaces: 1 1\nrelation R:\n1 0\n1\n",
            match="expected 2 entries",
        )

    def test_bad_scalar(self):
        self.assert_rejects(
            "field: F2\nobject: rep\nquiver: K\ndims: 1 1\n"
            "map alpha:\nx\nmap beta:\n0\n",
            match="bad scalar",
        )

    def test_undefined_fraction_in_prime_field(self):
        self.assert_rejects(
            "field: F2\nobject: linrel\nspaces: 1 1\nrelation R:\n1/2\n0\n",
        )

    def test_trailing_content(self):
        self.assert_rejects(
            "field: F2\nobject: rep\nquiver: K\ndims: 1 1\n"
            "map alpha:\n1\nmap beta:\n0\nextra: junk\n",
            match="trailing",
        )

    def test_text_after_map_label(self):
        self.assert_rejects(
            "field: F2\nobject: rep\nquiver: K\ndims: 1 1\n"
            "map alpha: 1\nmap beta:\n0\n",
            match="unexpected text",
        )
