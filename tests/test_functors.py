import random

import pytest

from foursub.errors import (
    NotInC5,
    RestrictionNotContained,
    SourceMismatch,
)
from foursub.fields import GF, QQ
from foursub.functors import (
    _as_s,
    _source_hom_basis,
    apply_functor,
    apply_functor_mor,
    eta,
    extension_witness_c5,
    hom_transport_check,
    in_image,
    lrel_morphism,
    random_extension,
)
from foursub.matrices import Matrix, jordan_plus
from foursub.quivers import (
    QUIVERS,
    QuiverRep,
    RepMorphism,
    direct_sum,
    hom_basis,
    hom_dim,
    is_isomorphic,
    random_conjugate,
    random_rep,
)
from foursub.relations import (
    lrel_hom_basis,
    lrel_is_isomorphic,
    random_pairrel,
    random_rel,
    rel_decompose,
    rel_direct_sum,
    rel_from_operator,
    rel_hom_basis,
    rel_zero,
)

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)
FQ = QUIVERS["F"]


def M(field, rows):
    return Matrix.from_rows(field, rows)


def random_source(i, field, rng, size=2):
    """A random object of the i-th source category with small dims."""
    if i in (1, 2, 3, 4):
        q = QUIVERS[{1: "S", 2: "D", 3: "K", 4: "C"}[i]]
        dims = [rng.randrange(size) for _ in q.vertices]
        return random_rep(field, q, dims, rng)
    if i == 5:
        d = rng.randrange(size)
        return random_rel(field, d, d, rng.randrange(2 * d + 1), rng)
    d1, d2 = rng.randrange(size), rng.randrange(size)
    return random_pairrel(
        field, d1, d2, rng.randrange(d1 + d2 + 1), rng.randrange(d1 + d2 + 1), rng
    )


def random_source_morphism(i, field, rng, size=2):
    """A random source object pair plus a basis morphism between them."""
    v = random_source(i, field, rng, size)
    w = random_source(i, field, rng, size)
    if i in (1, 2, 3, 4):
        homs = hom_basis(v, w)
    elif i == 5:
        homs = [lrel_morphism(v, w, m) for m in lrel_hom_basis(v, w)]
    else:
        homs = rel_hom_basis(v, w)
    if not homs:
        return None
    return homs[rng.randrange(len(homs))]


class TestApplyFunctor:
    def test_kronecker_embedding_frozen(self):
        w = QuiverRep(F5, QUIVERS["K"], (1, 1), {"alpha": M(F5, [[3]]), "beta": M(F5, [[2]])})
        v = apply_functor(3, w)
        assert v.dims == (2, 1, 1, 1, 1)
        assert v.mat("gamma") == M(F5, [[3], [1]])
        assert v.mat("delta") == M(F5, [[2], [1]])
        assert v.mat("alpha") == M(F5, [[1], [0]])
        assert v.mat("beta") == M(F5, [[0], [1]])

    def test_identity_graph_embedding(self):
        r = rel_from_operator(M(F2, [[1]]))
        v = apply_functor(5, r)
        assert v.dims == (2, 1, 1, 1, 1)
        assert v.mat("gamma") == M(F2, [[1], [1]])
        assert v.mat("delta") == M(F2, [[1], [1]])

    def test_zero_maps_to_zero(self):
        z = QuiverRep.zero(F3, QUIVERS["S"])
        assert apply_functor(1, z).is_zero

    def test_source_mismatch(self):
        with pytest.raises(SourceMismatch):
            apply_functor(1, QuiverRep.zero(F2, QUIVERS["K"]))
        with pytest.raises(SourceMismatch):
            apply_functor(5, random_rel(F2, 1, 2, 1, random.Random(0)))
        with pytest.raises(SourceMismatch):
            apply_functor(7, QuiverRep.zero(F2, QUIVERS["S"]))

    def test_eta_of_embedded_is_identity(self):
        rng = random.Random(3)
        for i in range(1, 7):
            x = random_source(i, F3, rng)
            v = apply_functor(i, x)
            assert eta(v).matrix == Matrix.identity(F3, v.dims[0])

    def test_additivity(self):
        rng = random.Random(6)
        for i in range(1, 7):
            x = random_source(i, F2, rng)
            y = random_source(i, F2, rng)
            if i in (1, 2, 3, 4):
                total = direct_sum(x, y)
            else:
                total = rel_direct_sum(x, y)
            assert is_isomorphic(
                apply_functor(i, total),
                direct_sum(apply_functor(i, x), apply_functor(i, y)),
            )


class TestAsS:
    """Every embedding is functor 1 after _as_s, so _as_s must be full and
    faithful: source hom spaces and S hom spaces have the same dimension."""

    @pytest.mark.parametrize("field", [F2, F3, QQ], ids=["F2", "F3", "Q"])
    @pytest.mark.parametrize("i", [2, 3, 4, 5, 6])
    def test_full_and_faithful(self, i, field):
        rng = random.Random(f"{i} {field.name}")
        for _ in range(100):
            x = random_source(i, field, rng, size=3)
            y = random_source(i, field, rng, size=3)
            basis = _source_hom_basis(i, x, y)
            assert len(basis) == hom_dim(_as_s(i, x), _as_s(i, y)), (x, y)
            for m in basis:
                assert apply_functor_mor(i, m).is_valid()


class TestApplyFunctorMor:
    def test_identity_maps_to_identity(self):
        rng = random.Random(11)
        for i in (1, 2, 3, 4):
            x = random_source(i, F3, rng)
            ident = RepMorphism.identity(x)
            embedded = apply_functor_mor(i, ident)
            assert embedded == RepMorphism.identity(apply_functor(i, x))

    def test_embedded_morphisms_commute(self):
        rng = random.Random(13)
        for i in range(1, 7):
            for _ in range(8):
                m = random_source_morphism(i, F3, rng)
                if m is None:
                    continue
                assert apply_functor_mor(i, m).is_valid()

    def test_functoriality_composition(self):
        rng = random.Random(19)
        for i in range(1, 7):
            done = 0
            while done < 5:
                a = random_source(i, F2, rng)
                b = random_source(i, F2, rng)
                c = random_source(i, F2, rng)
                if i in (1, 2, 3, 4):
                    h1 = hom_basis(a, b)
                    h2 = hom_basis(b, c)
                elif i == 5:
                    h1 = [lrel_morphism(a, b, m) for m in lrel_hom_basis(a, b)]
                    h2 = [lrel_morphism(b, c, m) for m in lrel_hom_basis(b, c)]
                else:
                    h1 = rel_hom_basis(a, b)
                    h2 = rel_hom_basis(b, c)
                if not h1 or not h2:
                    continue
                f = h1[rng.randrange(len(h1))]
                g = h2[rng.randrange(len(h2))]
                lhs = apply_functor_mor(i, g @ f)
                rhs = apply_functor_mor(i, g) @ apply_functor_mor(i, f)
                assert lhs == rhs
                done += 1

    def test_restriction_not_contained(self):
        src = rel_from_operator(M(F2, [[0]]))  # graph of zero map
        tgt = rel_from_operator(M(F2, [[1]]))  # graph of identity
        bad = lrel_morphism(src, tgt, Matrix.identity(F2, 1))
        assert not bad.is_valid()
        with pytest.raises(RestrictionNotContained):
            apply_functor_mor(5, bad)


class TestEta:
    def test_zero_arms_not_invertible(self):
        v = QuiverRep(
            F2,
            FQ,
            (1, 1, 1, 0, 0),
            {
                "alpha": Matrix.zeros(F2, 1, 1),
                "beta": Matrix.zeros(F2, 1, 1),
                "gamma": Matrix.zeros(F2, 1, 0),
                "delta": Matrix.zeros(F2, 1, 0),
            },
        )
        assert not eta(v).is_invertible
        assert in_image(1, v).reason == "EtaNotInvertible"

    def test_empty_eta_invertible(self):
        dims = (0, 0, 0, 1, 0)
        v = QuiverRep(
            F2,
            FQ,
            dims,
            {
                "alpha": Matrix.zeros(F2, 0, 0),
                "beta": Matrix.zeros(F2, 0, 0),
                "gamma": Matrix.zeros(F2, 0, 1),
                "delta": Matrix.zeros(F2, 0, 0),
            },
        )
        assert eta(v).is_invertible
        res = in_image(1, v)
        assert res.contained and res.witness.dims == (0, 0, 1, 0)


class TestInImage:
    def test_roundtrip_all_functors(self):
        rng = random.Random(29)
        for i in range(1, 7):
            for field in (F2, F3):
                for _ in range(5):
                    x = random_source(i, field, rng)
                    v = apply_functor(i, x)
                    res = in_image(i, v)
                    assert res.contained, (i, field.name, res.reason)
                    assert is_isomorphic(apply_functor(i, res.witness), v)

    def test_recovered_kronecker_rep(self):
        w = QuiverRep(F5, QUIVERS["K"], (1, 1), {"alpha": M(F5, [[3]]), "beta": M(F5, [[2]])})
        res = in_image(3, apply_functor(3, w))
        assert res.contained
        assert is_isomorphic(res.witness, w)

    def test_nonsquare_block_reason(self):
        # eta invertible but dims[3] != dims[2]: theta cannot be square
        v = QuiverRep(
            F2,
            FQ,
            (2, 1, 1, 1, 2),
            {
                "alpha": M(F2, [[1], [0]]),
                "beta": M(F2, [[0], [1]]),
                "gamma": M(F2, [[1], [1]]),
                "delta": M(F2, [[1, 0], [0, 1]]),
            },
        )
        res = in_image(3, v)
        assert not res.contained and res.reason == "NonSquareBlock"

    def test_image_hierarchy(self):
        rng = random.Random(31)
        for i in (3, 4):
            for _ in range(10):
                x = random_source(i, F3, rng)
                v = apply_functor(i, x)
                assert in_image(2, v).contained if i == 3 else True
                assert in_image(1, v).contained
        for i in (5, 6):
            for _ in range(10):
                x = random_source(i, F3, rng)
                assert in_image(1, apply_functor(i, x)).contained

    def test_wrong_quiver(self):
        with pytest.raises(SourceMismatch):
            in_image(1, QuiverRep.zero(F2, QUIVERS["K"]))

    # (functor, failing checks, S-dims, S-arrows set to zero, reason): functor
    # 1 of an S-representation whose arrows are all-ones matrices except the
    # zeroed ones; each case fails one check of in_image, or two, where the
    # first one checked decides the reason.
    REASON_CASES = [
        (2, "delta", (1, 1, 1, 2), (), "NonSquareBlock"),
        (2, "delta", (1, 1, 1, 1), ("delta",), "BlockNotInvertible"),
        (3, "beta", (1, 1, 2, 1), (), "NonSquareBlock"),
        (3, "beta", (1, 1, 1, 1), ("beta",), "BlockNotInvertible"),
        (3, "delta", (1, 1, 1, 2), (), "NonSquareBlock"),
        (3, "delta", (1, 1, 1, 1), ("delta",), "BlockNotInvertible"),
        (4, "alpha", (1, 1, 2, 1), (), "NonSquareBlock"),
        (4, "alpha", (1, 1, 1, 1), ("alpha",), "BlockNotInvertible"),
        (4, "delta", (1, 1, 1, 2), (), "NonSquareBlock"),
        (4, "delta", (1, 1, 1, 1), ("delta",), "BlockNotInvertible"),
        (5, "alpha", (2, 1, 1, 1), (), "NonSquareBlock"),
        (5, "alpha", (1, 1, 1, 1), ("alpha",), "BlockNotInvertible"),
        (5, "beta", (1, 2, 1, 1), (), "NonSquareBlock"),
        (5, "beta", (1, 1, 1, 1), ("beta",), "BlockNotInvertible"),
        (5, "arm4", (1, 1, 1, 2), (), "NotInjective"),
        (6, "arm3", (1, 1, 1, 1), ("alpha", "beta"), "NotInjective"),
        (6, "arm4", (1, 1, 1, 1), ("gamma", "delta"), "NotInjective"),
        (3, "beta+delta", (1, 1, 2, 1), ("delta",), "NonSquareBlock"),
        (4, "alpha+delta", (1, 1, 2, 1), ("delta",), "NonSquareBlock"),
        (5, "alpha+arm4", (1, 1, 1, 1), ("alpha", "gamma", "delta"), "BlockNotInvertible"),
    ]

    @pytest.mark.parametrize(
        "i, checks, dims, zeroed, reason",
        REASON_CASES,
        ids=[f"{c[0]}-{c[1]}-{c[4]}" for c in REASON_CASES],
    )
    def test_reason_of_each_check(self, i, checks, dims, zeroed, reason):
        s_quiver = QUIVERS["S"]
        mats = {}
        for a in s_quiver.arrows:
            rows = dims[s_quiver.vertex_index(a.target)]
            cols = dims[s_quiver.vertex_index(a.source)]
            fill = 0 if a.name in zeroed else 1
            mats[a.name] = Matrix(F3, rows, cols, [fill] * (rows * cols))
        s_rep = QuiverRep(F3, s_quiver, dims, mats)
        v = random_conjugate(apply_functor(1, s_rep), random.Random(sum(dims)))
        res = in_image(i, v)
        assert (res.contained, res.reason, res.witness) == (False, reason, None)
        assert set(res.blocks) == {
            "eta_inv", "gamma_top", "gamma_bottom", "delta_top", "delta_bottom"
        }
        assert in_image(1, v).contained

    def test_eta_reason_for_every_functor(self):
        v = random_rep(F3, FQ, (2, 1, 1, 1, 1), random.Random(0))
        v = QuiverRep(F3, FQ, v.dims, (v.mat("alpha"), v.mat("alpha"), *v.mats[2:]))
        for i in range(1, 7):
            res = in_image(i, v)
            assert (res.contained, res.reason, res.blocks) == (
                False, "EtaNotInvertible", {}
            )


class TestHomTransport:
    def test_end_of_indecomposable(self):
        w = QuiverRep(F2, QUIVERS["K"], (1, 1), {"alpha": M(F2, [[1]]), "beta": M(F2, [[0]])})
        assert hom_transport_check(3, w, w) == (1, 1, True)

    def test_disjoint_supports(self):
        a = QuiverRep(F2, QUIVERS["K"], (1, 0), {"alpha": Matrix.zeros(F2, 1, 0), "beta": Matrix.zeros(F2, 1, 0)})
        b = QuiverRep(F2, QUIVERS["K"], (0, 1), {"alpha": Matrix.zeros(F2, 0, 1), "beta": Matrix.zeros(F2, 0, 1)})
        assert hom_transport_check(3, a, b) == (0, 0, True)

    def test_zero_objects(self):
        z = QuiverRep.zero(F3, QUIVERS["S"])
        assert hom_transport_check(1, z, z) == (0, 0, True)

    def test_random_pairs_bijective(self):
        rng = random.Random(37)
        for i in range(1, 7):
            for field in (F2, F3):
                for _ in range(4):
                    v = random_source(i, field, rng)
                    w = random_source(i, field, rng)
                    ds, dt, bij = hom_transport_check(i, v, w)
                    assert ds == dt and bij, (i, field.name, ds, dt)


class TestExtensions:
    def test_split_extension(self):
        r = rel_from_operator(M(F3, [[1]]))
        u = apply_functor(5, r)
        w = apply_functor(5, rel_from_operator(M(F3, [[2]])))
        v = random_extension(u, w, seed=99)
        # force the zero extension by rebuilding with h = 0
        split = direct_sum(u, w)
        eps, zeta = extension_witness_c5(u, split, w)
        res_u, res_w = in_image(5, u), in_image(5, w)
        from foursub.matrices import direct_sum as mds

        assert eps == mds(res_u.blocks["gamma_top"], res_w.blocks["gamma_top"])
        assert zeta == mds(res_u.blocks["gamma_bottom"], res_w.blocks["gamma_bottom"])

    def test_random_extension_witness(self):
        rng = random.Random(43)
        r = rel_from_operator(M(F3, [[1]]))
        u = apply_functor(5, r)
        for seed in range(10):
            v = random_extension(u, u, seed=seed)
            eps, zeta = extension_witness_c5(u, v, u)
            assert v.mat("alpha") @ eps + v.mat("beta") @ zeta == v.mat("gamma")
            assert in_image(5, v).contained

    def test_not_in_c5(self):
        r = rel_from_operator(M(F3, [[1]]))
        u = apply_functor(5, r)
        bad = QuiverRep(
            F3,
            FQ,
            (1, 0, 0, 0, 0),
            {
                "alpha": Matrix.zeros(F3, 1, 0),
                "beta": Matrix.zeros(F3, 1, 0),
                "gamma": Matrix.zeros(F3, 1, 0),
                "delta": Matrix.zeros(F3, 1, 0),
            },
        )
        assert not in_image(5, bad).contained
        with pytest.raises(NotInC5):
            extension_witness_c5(u, direct_sum(u, bad), bad)


class TestRelDecompose:
    def test_nilpotent_graph_is_indecomposable(self):
        rho = rel_from_operator(jordan_plus(2, F2))
        result = rel_decompose(rho)
        assert len(result) == 1 and result[0][1] == 1
        assert lrel_is_isomorphic(result[0][0], rho)

    def test_two_scalar_graphs(self):
        a = rel_from_operator(M(F3, [[1]]))
        b = rel_from_operator(M(F3, [[2]]))
        result = rel_decompose(rel_direct_sum(a, b))
        assert sorted(m for _, m in result) == [1, 1]
        found = [rep for rep, _ in result]
        assert any(lrel_is_isomorphic(x, a) for x in found)
        assert any(lrel_is_isomorphic(x, b) for x in found)

    def test_zero_relation_on_line(self):
        z = rel_zero(F2, 1, 1)
        result = rel_decompose(z)
        assert result == [(z, 1)]

    def test_pair_decomposition_roundtrip(self):
        rng = random.Random(47)
        for _ in range(5):
            rho = random_pairrel(F2, 2, 1, 1, 2, rng)
            result = rel_decompose(rho)
            total = None
            for rep, mult in result:
                for _ in range(mult):
                    total = rep if total is None else rel_direct_sum(total, rep)
            assert total is not None
            assert (total.dim1, total.dim2) == (rho.dim1, rho.dim2)
            from foursub.relations import rel_is_isomorphic

            assert rel_is_isomorphic(total, rho)

    def test_one_space_roundtrip(self):
        rng = random.Random(53)
        for _ in range(5):
            d = rng.randrange(1, 3)
            rho = random_rel(F3, d, d, rng.randrange(2 * d + 1), rng)
            result = rel_decompose(rho)
            total = None
            for rep, mult in result:
                for _ in range(mult):
                    total = rep if total is None else rel_direct_sum(total, rep)
            assert lrel_is_isomorphic(total, rho)

    def test_rejects_two_space_relation(self):
        from foursub.errors import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            rel_decompose(random_rel(F2, 1, 2, 1, random.Random(1)))
