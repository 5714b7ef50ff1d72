import random

import pytest

from foursub import relations
from foursub.errors import (
    DimensionMismatch,
    FieldMismatch,
    ImagePullbackError,
    NotIdempotent,
    ShapeError,
)
from foursub.fields import GF, QQ
from foursub.functors import apply_functor, hom_transport_check
from foursub.matrices import (
    Matrix,
    direct_sum,
    is_invertible,
    jordan_plus,
    random_invertible,
    rref,
)
from foursub.quivers import QUIVERS, QuiverRep, hom_basis
from foursub.relations import (
    PairRelObj,
    RelMorphism,
    RelObj,
    lrel_hom_basis,
    lrel_is_isomorphic,
    random_pairrel,
    random_rel,
    rel_compose,
    rel_decompose,
    rel_direct_sum,
    rel_dual,
    rel_from_operator,
    rel_full,
    rel_hom_basis,
    rel_inverse,
    rel_is_isomorphic,
    rel_split_idempotent,
    rel_zero,
)

F2 = GF(2)
F3 = GF(3)
# p^2 > 2^63: no product of two residues fits in int64
BIG = GF(4294967311)


def M(field, rows):
    return Matrix.from_rows(field, rows)


class TestConstruction:
    def test_graph_of_identity(self):
        r = rel_from_operator(M(F2, [[1]]))
        assert (r.dim1, r.dim2, r.rel_dim) == (1, 1, 1)
        assert r.basis == M(F2, [[1], [1]])

    def test_graph_into_zero_space(self):
        r = rel_from_operator(Matrix.zeros(F2, 0, 1))
        assert (r.dim1, r.dim2, r.rel_dim) == (1, 0, 1)
        assert r.basis == M(F2, [[1]])

    def test_shift_span(self):
        r = RelObj(F2, 2, 2, M(F2, [[0], [1], [1], [0]]))
        assert r.rel_dim == 1
        assert r.top == M(F2, [[0], [1]])
        assert r.bottom == M(F2, [[1], [0]])

    def test_span_identity(self):
        a = RelObj(F3, 1, 1, M(F3, [[1, 0], [1, 1]]))
        b = RelObj(F3, 1, 1, M(F3, [[0, 2], [1, 2]]))  # permuted/rescaled columns
        assert a == b
        assert a == rel_full(F3, 1, 1)

    def test_zero_and_full(self):
        assert rel_zero(F2, 2, 1).rel_dim == 0
        assert rel_full(F2, 2, 1).rel_dim == 3


class TestComposeInverse:
    def test_compose_graphs(self):
        f = M(F3, [[1, 2]])  # k^2 -> k
        g = M(F3, [[2], [1]])  # k -> k^2
        assert rel_compose(rel_from_operator(g), rel_from_operator(f)) == rel_from_operator(g @ f)

    def test_compose_requires_matching_middle(self):
        with pytest.raises(DimensionMismatch):
            rel_compose(rel_zero(F2, 2, 1), rel_zero(F2, 1, 1))

    def test_inverse_involution(self):
        rng = random.Random(4)
        r = random_rel(F3, 2, 3, 2, rng)
        assert rel_inverse(rel_inverse(r)) == r

    def test_full_composed_with_inverse(self):
        rho = rel_full(F2, 1, 1)
        assert rel_compose(rho, rel_inverse(rho)) == rel_full(F2, 1, 1)

    def test_associativity_random(self):
        rng = random.Random(8)
        for _ in range(30):
            d = [rng.randrange(1, 4) for _ in range(4)]
            a = random_rel(F3, d[0], d[1], rng.randrange(d[0] + d[1] + 1), rng)
            b = random_rel(F3, d[1], d[2], rng.randrange(d[1] + d[2] + 1), rng)
            c = random_rel(F3, d[2], d[3], rng.randrange(d[2] + d[3] + 1), rng)
            left = rel_compose(c, rel_compose(b, a))
            right = rel_compose(rel_compose(c, b), a)
            assert left == right


class TestDual:
    def test_dual_of_zero_is_full(self):
        assert rel_dual(rel_zero(F2, 1, 1)) == rel_full(F2, 1, 1)

    def test_dual_of_full_is_zero(self):
        assert rel_dual(rel_full(F2, 1, 1)) == rel_zero(F2, 1, 1)

    def test_dimension_formula(self):
        rng = random.Random(15)
        r = random_rel(F3, 3, 2, 2, rng)
        assert rel_dual(r).rel_dim == 3
        for _ in range(30):
            d1, d2 = rng.randrange(4), rng.randrange(4)
            rel = random_rel(F2, d1, d2, rng.randrange(d1 + d2 + 1), rng)
            assert rel_dual(rel).rel_dim == d1 + d2 - rel.rel_dim

    def test_double_dual(self):
        rng = random.Random(16)
        for _ in range(20):
            d1, d2 = rng.randrange(1, 4), rng.randrange(1, 4)
            rel = random_rel(F3, d1, d2, rng.randrange(d1 + d2 + 1), rng)
            dd = rel_dual(rel_dual(rel))
            assert dd.rel_dim == rel.rel_dim
            assert dd == rel
            assert rel_is_isomorphic(dd, rel)


class TestHomIso:
    def test_end_of_identity_graph(self):
        r = rel_from_operator(M(F2, [[1]]))
        homs = rel_hom_basis(r, r)
        assert len(homs) == 1
        assert all(h.is_valid() for h in homs)

    def test_zero_vs_full(self):
        z = rel_zero(F2, 1, 1)
        full = rel_full(F2, 1, 1)
        assert len(rel_hom_basis(z, full)) == 2  # every (f1, f2) qualifies
        assert not rel_is_isomorphic(z, full)

    def test_self_iso(self):
        rng = random.Random(21)
        for field in (F2, F3, QQ):
            r = random_rel(field, 2, 2, 2, rng)
            assert rel_is_isomorphic(r, r)

    def test_hom_morphisms_valid(self):
        rng = random.Random(22)
        a = random_rel(F3, 2, 1, 1, rng)
        b = random_rel(F3, 2, 2, 2, rng)
        for h in rel_hom_basis(a, b):
            assert h.is_valid()

    def test_lrel_identity_graph(self):
        r = rel_from_operator(M(F3, [[1]]))
        assert len(lrel_hom_basis(r, r)) == 1
        assert lrel_is_isomorphic(r, r)

    def test_lrel_distinguishes_shift_direction(self):
        up = RelObj(F2, 1, 1, M(F2, [[1], [0]]))  # graph of 0
        down = RelObj(F2, 1, 1, M(F2, [[0], [1]]))  # inverse graph of 0
        assert not lrel_is_isomorphic(up, down) or up == down
        assert up != down

    def test_pairrel_hom_and_iso(self):
        rng = random.Random(29)
        a = random_pairrel(F3, 2, 2, 1, 2, rng)
        for h in rel_hom_basis(a, a):
            assert h.is_valid()
        assert rel_is_isomorphic(a, a)
        b = PairRelObj(F3, a.dim1, a.dim2, a.basis2, a.basis1)
        if a.basis1 != a.basis2:
            assert not rel_is_isomorphic(a, b) or a.basis1.cols == a.basis2.cols

    @pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
    def test_decomposable_conjugates_through_the_embeddings(self, field):
        # every hom-basis element between the sums is singular, so the
        # answer comes from the embedded four-subspace representations
        r = rel_from_operator(M(field, [[1]]))
        rho = rel_direct_sum(r, r)
        zero = rel_from_operator(M(field, [[0]]))
        rng = random.Random(4)
        g1, g2 = random_invertible(field, 2, rng), random_invertible(field, 2, rng)
        sigma = RelObj(field, 2, 2, direct_sum(g1, g2) @ rho.basis)
        assert not any(h.is_invertible for h in rel_hom_basis(rho, sigma))
        assert rel_is_isomorphic(rho, sigma)
        one_space = RelObj(field, 2, 2, direct_sum(g1, g1) @ rho.basis)
        assert not any(is_invertible(h) for h in lrel_hom_basis(rho, one_space))
        assert lrel_is_isomorphic(rho, one_space)
        assert not lrel_is_isomorphic(rho, rel_direct_sum(r, zero))


    def test_input_checks(self):
        single = rel_from_operator(M(F2, [[1]]))
        pair = PairRelObj(F2, 1, 1, single.basis, single.basis)
        with pytest.raises(ShapeError):
            rel_is_isomorphic(single, pair)
        with pytest.raises(FieldMismatch):
            rel_is_isomorphic(single, rel_from_operator(M(F3, [[1]])))
        with pytest.raises(DimensionMismatch):
            lrel_is_isomorphic(rel_full(F2, 1, 2), rel_full(F2, 1, 2))
        with pytest.raises(FieldMismatch):
            lrel_is_isomorphic(single, rel_from_operator(M(F3, [[1]])))
        assert not rel_is_isomorphic(rel_full(F2, 1, 2), rel_full(F2, 2, 1))
        assert not lrel_is_isomorphic(rel_full(F2, 1, 1), rel_full(F2, 2, 2))


def _zero_heavy_rel(field, d1, d2, rng):
    """A random relation whose basis is mostly zeros, so that hom spaces
    between such relations are often nonzero."""
    r = rng.randint(0, d1 + d2)
    while True:
        entries = [
            0 if rng.random() < 0.6 else rng.randrange(field.p)
            for _ in range((d1 + d2) * r)
        ]
        basis = Matrix(field, d1 + d2, r, entries)
        if rref(basis).rank == r:
            return RelObj(field, d1, d2, basis)


class TestHomPastInt64Products:
    # each object is paired with an unrelated one and with a conjugate

    @pytest.mark.parametrize("seed", range(3))
    def test_pairrel(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            d1, d2 = rng.randint(1, 3), rng.randint(1, 3)
            a, b, c, d = (_zero_heavy_rel(BIG, d1, d2, rng) for _ in range(4))
            x = PairRelObj(BIG, d1, d2, a.basis, b.basis)
            g = direct_sum(random_invertible(BIG, d1, rng), random_invertible(BIG, d2, rng))
            for y in (
                PairRelObj(BIG, d1, d2, c.basis, d.basis),
                PairRelObj(BIG, d1, d2, g @ a.basis, g @ b.basis),
            ):
                assert all(h.is_valid() for h in rel_hom_basis(x, y))
                assert hom_transport_check(6, x, y)[2]

    @pytest.mark.parametrize("seed", range(3))
    def test_linrel1(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            d = rng.randint(1, 3)
            x = _zero_heavy_rel(BIG, d, d, rng)
            g = random_invertible(BIG, d, rng)
            for y in (
                _zero_heavy_rel(BIG, d, d, rng),
                RelObj(BIG, d, d, direct_sum(g, g) @ x.basis),
            ):
                for h in lrel_hom_basis(x, y):
                    assert RelMorphism(x, y, h, h).is_valid()
                assert hom_transport_check(5, x, y)[2]


def _coordinate_rel(field, d1, d2, rng):
    """A relation spanned by coordinate vectors: hom spaces between such
    relations are large on every field."""
    n = d1 + d2
    cols = sorted(rng.sample(range(n), rng.randint(0, n)))
    entries = [field.one() if j == c else field.zero() for j in range(n) for c in cols]
    return RelObj(field, d1, d2, Matrix(field, n, len(cols), entries))


def _relation_cases(field, seed):
    """Source and target pairs with dims 0..3, by kind: relation pairs,
    relations between two spaces and relations on a single space.  Each
    source meets an unrelated generic object, a coordinate object and a
    random conjugate of itself."""
    rng = random.Random(seed)
    d1, d2, d = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
    e1, e2 = rng.randint(0, 3), rng.randint(0, 3)

    def rel(n1, n2):
        return random_rel(field, n1, n2, rng.randint(0, n1 + n2), rng)

    def pair(r1, r2):
        return PairRelObj(field, r1.dim1, r1.dim2, r1.basis, r2.basis)

    p, single, one = pair(rel(d1, d2), rel(d1, d2)), rel(d1, d2), rel(d, d)
    g = direct_sum(random_invertible(field, d1, rng), random_invertible(field, d2, rng))
    h = random_invertible(field, d, rng)
    coord = _coordinate_rel(field, e1, e2, rng)
    return {
        "pair": [
            (p, pair(rel(e1, e2), rel(e1, e2))),
            (p, pair(coord, _coordinate_rel(field, e1, e2, rng))),
            (p, PairRelObj(field, d1, d2, g @ p.basis1, g @ p.basis2)),
        ],
        "single": [
            (single, rel(e1, e2)),
            (single, coord),
            (single, RelObj(field, d1, d2, g @ single.basis)),
        ],
        "one": [
            (one, rel(e1, e1)),
            (one, _coordinate_rel(field, e1, e1, rng)),
            (one, RelObj(field, d, d, direct_sum(h, h) @ one.basis)),
        ],
    }


FIVE_FIELDS = [F2, F3, GF(5), QQ, BIG]
FIVE_IDS = ["F2", "F3", "F5", "Q", "BIG"]


class TestQuiverRepresentations:
    # a pair of relations is an S-representation, a relation on a single
    # space a K-representation (relations._as_rep)

    @pytest.mark.parametrize("field", FIVE_FIELDS, ids=FIVE_IDS)
    def test_round_trip(self, field):
        for seed in range(8):
            cases = _relation_cases(field, seed)
            for kind, quiver in (("pair", "S"), ("one", "K")):
                for obj in {x for case in cases[kind] for x in case}:
                    rep = relations._as_rep(obj)
                    assert rep.quiver is QUIVERS[quiver]
                    assert relations._from_rep(rep) == obj

    @pytest.mark.parametrize("field", FIVE_FIELDS, ids=FIVE_IDS)
    def test_functor_6_factors_through_s(self, field):
        for seed in range(8):
            cases = _relation_cases(field, seed)
            for x, y in cases["pair"] + cases["single"]:
                for obj in (relations._as_pair(x), relations._as_pair(y)):
                    assert apply_functor(1, relations._as_rep(obj)) == apply_functor(6, obj)

    @pytest.mark.parametrize("field", FIVE_FIELDS, ids=FIVE_IDS)
    def test_hom_dims_match_the_embeddings(self, field):
        nonzero = 0
        for seed in range(8):
            cases = _relation_cases(field, seed)
            for x, y in cases["pair"] + cases["single"]:
                homs = rel_hom_basis(x, y)
                assert all(h.is_valid() for h in homs)
                fx, fy = (apply_functor(6, relations._as_pair(z)) for z in (x, y))
                assert len(homs) == len(hom_basis(fx, fy))
                nonzero += bool(homs)
            for x, y in cases["one"]:
                homs = lrel_hom_basis(x, y)
                assert all(RelMorphism(x, y, h, h).is_valid() for h in homs)
                assert len(homs) == len(hom_basis(apply_functor(5, x), apply_functor(5, y)))
                nonzero += bool(homs)
        assert nonzero >= 24

    @pytest.mark.parametrize("quiver, dims", [("S", (1, 1, 1, 0)), ("K", (1, 1))])
    def test_non_injective_summand_is_refused(self, monkeypatch, quiver, dims):
        # a summand whose source maps are zero on a nonzero R: the canonical
        # basis would drop the column, so the pull-back must refuse it
        Q = QUIVERS[quiver]
        bad = QuiverRep(
            F3,
            Q,
            dims,
            [
                Matrix.zeros(F3, dims[Q.vertex_index(a.target)], dims[Q.vertex_index(a.source)])
                for a in Q.arrows
            ],
        )
        monkeypatch.setattr(relations, "decompose", lambda rep, seed=0: [(bad, 1)])
        rho = rel_full(F3, 1, 1)
        obj = PairRelObj(F3, 1, 1, rho.basis, rho.basis) if quiver == "S" else rho
        with pytest.raises(ImagePullbackError):
            rel_decompose(obj)


class TestDirectSum:
    def test_dims_add(self):
        rng = random.Random(33)
        a = random_rel(F2, 1, 2, 1, rng)
        b = random_rel(F2, 2, 1, 2, rng)
        s = rel_direct_sum(a, b)
        assert (s.dim1, s.dim2, s.rel_dim) == (3, 3, 3)

    def test_pair_dims_add(self):
        rng = random.Random(34)
        a = random_pairrel(F3, 1, 1, 1, 0, rng)
        b = random_pairrel(F3, 1, 1, 0, 1, rng)
        s = rel_direct_sum(a, b)
        assert (s.dim1, s.dim2) == (2, 2)
        assert (s.basis1.cols, s.basis2.cols) == (1, 1)


class TestSplitIdempotent:
    def test_identity_idempotent(self):
        r = rel_from_operator(jordan_plus(2, F2))
        sigma, p, q = rel_split_idempotent(r, RelMorphism.identity(r))
        assert sigma == r
        assert p.f1 == Matrix.identity(F2, 2) and q.f1 == Matrix.identity(F2, 2)

    def test_zero_idempotent(self):
        r = rel_from_operator(M(F2, [[1]]))
        zero = RelMorphism(r, r, Matrix.zeros(F2, 1, 1), Matrix.zeros(F2, 1, 1))
        sigma, p, q = rel_split_idempotent(r, zero)
        assert (sigma.dim1, sigma.dim2, sigma.rel_dim) == (0, 0, 0)

    def test_projection_splits_summand(self):
        graph_id = rel_from_operator(M(F3, [[1]]))
        rho = rel_direct_sum(graph_id, rel_zero(F3, 1, 1))
        e_mat = M(F3, [[1, 0], [0, 0]])
        e = RelMorphism(rho, rho, e_mat, e_mat)
        sigma, p, q = rel_split_idempotent(rho, e)
        assert sigma == graph_id

    def test_rejects_non_idempotent(self):
        r = rel_full(F2, 1, 1)
        flip = M(F2, [[1]])
        bad = RelMorphism(r, r, flip, Matrix.zeros(F2, 1, 1) + flip)
        # f1 = f2 = 1 is the identity (idempotent), so craft a genuine failure:
        s = rel_from_operator(M(F3, [[1]]))
        two = RelMorphism(s, s, M(F3, [[2]]), M(F3, [[2]]))
        with pytest.raises(NotIdempotent):
            rel_split_idempotent(s, two)

    def test_rejects_invalid_endo(self):
        up = RelObj(F3, 1, 1, M(F3, [[1], [0]]))
        e = RelMorphism(up, up, Matrix.zeros(F3, 1, 1), Matrix.identity(F3, 1))
        # e is idempotent componentwise but must also preserve the relation
        assert e.is_valid()  # (x,0) -> (0,0) stays inside
        sigma, _, _ = rel_split_idempotent(up, e)
        assert (sigma.dim1, sigma.dim2) == (0, 1)

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            rel_hom_basis(rel_zero(F2, 1, 1), rel_zero(F3, 1, 1))
