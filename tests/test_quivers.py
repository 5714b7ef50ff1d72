import itertools
import random

import numpy as np
import pytest

from foursub import quivers
from foursub.canon import canon_rep, parse_tag
from foursub.errors import (
    FieldMismatch,
    IndecomposabilityUndecided,
    QuiverMismatch,
    ShapeError,
    ZeroObject,
)
from foursub.fields import GF, QQ
from foursub.matrices import Matrix, jordan_plus, kernel_basis
from foursub.quivers import (
    QUIVERS,
    Arrow,
    Quiver,
    QuiverRep,
    RepMorphism,
    decompose,
    direct_sum,
    end_dim,
    find_isomorphism,
    hom_basis,
    is_indecomposable,
    is_isomorphic,
    random_conjugate,
    random_rep,
    summand_injections,
    summand_projections,
    validate,
)

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)
FQ = QUIVERS["F"]
KQ = QUIVERS["K"]
CQ = QUIVERS["C"]


def k_rep(field, a_rows, b_rows):
    a = Matrix.from_rows(field, a_rows)
    return QuiverRep(
        field, KQ, (a.rows, a.cols), {"alpha": a, "beta": Matrix.from_rows(field, b_rows)}
    )


def simple_f(field, vertex):
    """Simple representation of the four-subspace quiver at one vertex."""
    dims = [0] * 5
    dims[vertex] = 1
    mats = {}
    for a in FQ.arrows:
        mats[a.name] = Matrix.zeros(field, dims[0], dims[FQ.vertex_index(a.source)])
    return QuiverRep(field, FQ, dims, mats)


class TestConstruction:
    def test_zero_rep_validates(self):
        validate(QuiverRep.zero(F2, KQ))
        validate(QuiverRep.zero(QQ, FQ))

    def test_transposed_matrix_rejected(self):
        a = Matrix.zeros(F2, 1, 2)  # alpha: 2->1 with dims (2,1) needs 2x1
        with pytest.raises(ShapeError, match="alpha"):
            QuiverRep(F2, KQ, (2, 1), {"alpha": a, "beta": Matrix.zeros(F2, 2, 1)})

    def test_simple_at_arm_vertex_validates(self):
        rep = simple_f(F3, 1)
        validate(rep)
        assert rep.dims == (0, 1, 0, 0, 0)

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            QuiverRep(
                F2,
                KQ,
                (1, 1),
                {"alpha": Matrix.zeros(F3, 1, 1), "beta": Matrix.zeros(F2, 1, 1)},
            )

    def test_immutable(self):
        rep = QuiverRep.zero(F2, KQ)
        with pytest.raises(AttributeError):
            rep.dims = (1, 1)


class TestHom:
    def test_hom_between_distinct_simples_is_zero(self):
        assert hom_basis(simple_f(F2, 1), simple_f(F2, 2)) == []

    def test_end_of_k_rep(self):
        v = k_rep(F2, [[1]], [[0]])
        assert end_dim(v) == 1

    def test_hom_into_double(self):
        v = k_rep(F3, [[1]], [[2]])
        assert len(hom_basis(v, direct_sum(v, v))) == 2 * end_dim(v)

    def test_end_of_double(self):
        v = k_rep(F2, [[1]], [[0]])
        assert end_dim(v) == 1
        assert end_dim(direct_sum(v, v)) == 4

    def test_hom_additivity_random(self):
        rng = random.Random(5)
        for field in (F2, F3):
            for _ in range(6):
                dims = [rng.randrange(3) for _ in range(2)]
                u = random_rep(field, KQ, dims, rng)
                v = random_rep(field, KQ, [rng.randrange(3) for _ in range(2)], rng)
                w = random_rep(field, KQ, [rng.randrange(3) for _ in range(2)], rng)
                assert len(hom_basis(direct_sum(u, v), w)) == len(
                    hom_basis(u, w)
                ) + len(hom_basis(v, w))

    def test_hom_elements_commute(self):
        rng = random.Random(9)
        u = random_rep(F3, FQ, (2, 1, 1, 1, 1), rng)
        w = random_rep(F3, FQ, (2, 1, 2, 1, 0), rng)
        for h in hom_basis(u, w):
            assert h.is_valid()

    def test_quiver_mismatch(self):
        with pytest.raises(QuiverMismatch):
            hom_basis(QuiverRep.zero(F2, KQ), QuiverRep.zero(F2, CQ))
        with pytest.raises(FieldMismatch):
            hom_basis(QuiverRep.zero(F2, KQ), QuiverRep.zero(F3, KQ))


def _dense_hom_basis(v, w):
    """Reference: one dense row per commutation equation (X_t A - B X_s)_ij,
    then kernel_basis of the system Matrix; each basis element as the entry
    tuples of its vertex components."""
    f, q = v.field, v.quiver
    offsets, total = {}, 0
    for vert in q.vertices:
        offsets[vert] = total
        total += w.dim(vert) * v.dim(vert)
    rows = []
    for a in q.arrows:
        s, t = a.source, a.target
        for i in range(w.dim(t)):
            for j in range(v.dim(s)):
                row = [f.zero()] * total
                for k in range(v.dim(t)):
                    idx = offsets[t] + i * v.dim(t) + k
                    row[idx] = f.add(row[idx], v.mat(a.name).entry(k, j))
                for k in range(w.dim(s)):
                    idx = offsets[s] + k * v.dim(s) + j
                    row[idx] = f.sub(row[idx], w.mat(a.name).entry(i, k))
                rows.append(row)
    kern = kernel_basis(Matrix(f, len(rows), total, [x for r in rows for x in r]))
    return [
        [kern.col(c)[offsets[x] : offsets[x] + w.dim(x) * v.dim(x)] for x in q.vertices]
        for c in range(kern.cols)
    ]


def _random_pairs(field, count, seed):
    """Seeded (v, w) pairs on all five quivers with dims 0..3: unrelated
    pairs, v with itself, and v against a conjugate of v + v."""
    rng = random.Random(seed)
    for n in range(count):
        q = QUIVERS["FSDKC"[n % 5]]
        v = random_rep(field, q, [rng.randint(0, 3) for _ in q.vertices], rng)
        kind = rng.randrange(3)
        if kind == 0:
            w = random_rep(field, q, [rng.randint(0, 3) for _ in q.vertices], rng)
        elif kind == 1:
            w = v
        else:
            w = random_conjugate(direct_sum(v, v), rng)
        yield v, w


@pytest.mark.parametrize("field", [F2, F3, F5], ids=["F2", "F3", "F5"])
def test_hom_basis_equals_dense_reference(field):
    # 3 x 200 pairs, every quiver and the zero dims included
    zero_dims = 0
    for v, w in _random_pairs(field, 200, field.p):
        got = [[c.entries for c in h.comps] for h in hom_basis(v, w)]
        assert got == _dense_hom_basis(v, w)
        zero_dims += 0 in v.dims + w.dims
    assert zero_dims > 50


def _count_commuting(v, w):
    """How many tuples of vertex components commute with every arrow,
    counted over all of them at once."""
    p, q = v.field.p, v.quiver
    shapes = [(nw, nv) for nw, nv in zip(w.dims, v.dims)]
    starts = list(itertools.accumulate((r * c for r, c in shapes), initial=0))
    tuples = np.array(list(itertools.product(range(p), repeat=starts[-1])), dtype=np.int64)
    comps = [
        tuples[:, starts[k] : starts[k + 1]].reshape(len(tuples), r, c)
        for k, (r, c) in enumerate(shapes)
    ]
    ok = np.ones(len(tuples), dtype=bool)
    for a, ma, mb in zip(q.arrows, v.mats, w.mats):
        s, t = q.vertex_index(a.source), q.vertex_index(a.target)
        A = np.array(ma.entries, dtype=np.int64).reshape(ma.rows, ma.cols)
        B = np.array(mb.entries, dtype=np.int64).reshape(mb.rows, mb.cols)
        ok &= ((comps[t] @ A - B @ comps[s]) % p == 0).all(axis=(1, 2))
    return int(ok.sum())


@pytest.mark.parametrize("field", [F2, F3, F5], ids=["F2", "F3", "F5"])
def test_hom_basis_against_brute_force(field):
    # cells with at most 3^8 component tuples
    p = field.p
    rng = random.Random(17)
    cells = 0
    while cells < 40:
        q = QUIVERS["FSDKC"[cells % 5]]
        v = random_rep(field, q, [rng.randint(0, 2) for _ in q.vertices], rng)
        w = random_rep(field, q, [rng.randint(0, 2) for _ in q.vertices], rng)
        if p ** sum(nw * nv for nw, nv in zip(w.dims, v.dims)) > 3**8:
            continue
        cells += 1
        basis = hom_basis(v, w)
        assert _count_commuting(v, w) == p ** len(basis)
        # the free coordinate of a canonical basis vector is its last nonzero
        # one: 1 there and 0 at the free coordinates of the others
        vectors = [[x for c in h.comps for x in c.entries] for h in basis]
        free = [max(i for i, x in enumerate(vec) if x) for vec in vectors]
        assert free == sorted(set(free))
        for k, vec in enumerate(vectors):
            assert [vec[j] for j in free] == [int(i == k) for i in range(len(free))]


def test_hom_basis_past_int64_products():
    # p^2 > 2^63, and the 48 x 50 system is past the small-system limit
    field = GF(4294967311)
    rng = random.Random(3)
    for _ in range(3):
        v = random_rep(field, FQ, [3, 2, 2, 2, 2], rng)
        w = random_conjugate(direct_sum(v, v), rng)
        got = [[c.entries for c in h.comps] for h in hom_basis(v, w)]
        assert got == _dense_hom_basis(v, w)


@pytest.mark.parametrize("field", [F2, F3, F5, QQ], ids=["F2", "F3", "F5", "Q"])
def test_hom_basis_on_a_loop(field):
    # an arrow s -> s puts both terms of X_s A - B X_s in one block of unknowns
    loop = Quiver("L", (1, 2), (Arrow("x", 1, 1), Arrow("y", 1, 2)))
    rng = random.Random(29)
    for _ in range(30):
        v = random_rep(field, loop, [rng.randint(0, 3) for _ in range(2)], rng)
        w = random_rep(field, loop, [rng.randint(0, 3) for _ in range(2)], rng)
        got = [[c.entries for c in h.comps] for h in hom_basis(v, w)]
        assert got == _dense_hom_basis(v, w)
    jordan = Quiver("J", (1,), (Arrow("x", 1, 1),))
    for n in range(1, 5):
        rep = QuiverRep(field, jordan, [n], [jordan_plus(n, field)])
        assert end_dim(rep) == n  # End of a nilpotent Jordan block is F[x]/x^n


class TestIso:
    def test_self_iso(self):
        v = k_rep(F2, [[1]], [[0]])
        assert is_isomorphic(v, v)
        iso = find_isomorphism(v, v)
        assert iso is not None and iso.is_invertible and iso.is_valid()

    def test_different_dims(self):
        assert not is_isomorphic(simple_f(F2, 1), simple_f(F2, 2))

    def test_kronecker_nonisomorphic_pair(self):
        v = k_rep(F2, [[1]], [[0]])
        w = k_rep(F2, [[1]], [[1]])
        assert not is_isomorphic(v, w)

    def test_conjugate_is_isomorphic(self):
        rng = random.Random(17)
        for field in (F2, F5, QQ):
            v = random_rep(field, FQ, (2, 1, 1, 2, 1), rng)
            assert is_isomorphic(v, random_conjugate(v, rng))

    def test_zero_reps_isomorphic(self):
        assert is_isomorphic(QuiverRep.zero(F2, KQ), QuiverRep.zero(F2, KQ))

    def test_equivalence_relation_on_pool(self):
        rng = random.Random(23)
        pool = [random_rep(F2, KQ, (2, 2), rng) for _ in range(8)]
        rel = {
            (i, j): is_isomorphic(pool[i], pool[j])
            for i in range(len(pool))
            for j in range(len(pool))
        }
        for i in range(len(pool)):
            assert rel[(i, i)]
            for j in range(len(pool)):
                assert rel[(i, j)] == rel[(j, i)]
                for k in range(len(pool)):
                    if rel[(i, j)] and rel[(j, k)]:
                        assert rel[(i, k)]


    def test_answers_do_not_depend_on_seed(self):
        rng = random.Random(23)
        pool = [random_rep(F2, KQ, (2, 2), rng) for _ in range(8)]
        answers = [
            [[find_isomorphism(a, b, seed) is None for b in pool] for a in pool]
            for seed in range(4)
        ]
        assert all(a == answers[0] for a in answers)


def _singular_basis_pair(field, parts, seed):
    """A direct sum and a conjugate of it between which every hom-basis
    element is singular, so the witness has to be assembled."""
    total = direct_sum(*parts)
    conj = random_conjugate(total, random.Random(seed))
    assert not any(h.is_invertible for h in hom_basis(total, conj))
    return total, conj


class TestAssembledWitness:
    def test_square_of_indecomposable_over_f2(self):
        u = k_rep(F2, [[1]], [[0]])
        v, w = _singular_basis_pair(F2, [u, u], 3)
        iso = find_isomorphism(v, w)
        assert iso is not None and iso.is_valid() and iso.is_invertible

    @pytest.mark.parametrize("field", [F5, QQ], ids=["F5", "Q"])
    def test_mixed_sums(self, field):
        u = k_rep(field, [[1]], [[0]])
        w = k_rep(field, [[1]], [[1]])
        rot = k_rep(field, [[1, 0], [0, 1]], [[0, -1], [1, 0]])
        for seed, parts in enumerate([[u, w, u], [rot, u, rot], [w, rot, u, w]]):
            v, x = _singular_basis_pair(field, parts, seed)
            iso = find_isomorphism(v, x)
            assert iso is not None and iso.is_valid() and iso.is_invertible

    @pytest.mark.parametrize("field", [F2, F5, QQ], ids=["F2", "F5", "Q"])
    def test_equal_hom_dims_but_not_isomorphic(self, field):
        # C-representations with alpha = 1, beta = 0 and the reverse:
        # Hom(a, b) is one-dimensional and singular
        a = QuiverRep(field, CQ, (1, 1), [Matrix.from_rows(field, r) for r in ([[1]], [[0]])])
        b = QuiverRep(field, CQ, (1, 1), [Matrix.from_rows(field, r) for r in ([[0]], [[1]])])
        v = random_conjugate(direct_sum(a, a, b), random.Random(1))
        w = direct_sum(a, b, b)
        d = len(hom_basis(v, w))
        assert d == end_dim(v) == end_dim(w)
        assert find_isomorphism(v, w) is None
        assert not is_isomorphic(w, v)

    def test_uncertified_piece_raises(self, monkeypatch):
        u = k_rep(F2, [[1]], [[0]])
        v, w = _singular_basis_pair(F2, [u, u], 3)
        monkeypatch.setattr(
            quivers, "_find_splitting", lambda rep, seed=0: ("indecomposable", False)
        )
        with pytest.raises(IndecomposabilityUndecided):
            is_isomorphic(v, w)


class TestDirectSum:
    def test_dims_add(self):
        v = k_rep(F2, [[1]], [[0]])
        w = random_rep(F2, KQ, (2, 1), random.Random(1))
        assert direct_sum(v, w).dims == (3, 2)

    def test_sum_with_zero(self):
        v = k_rep(F3, [[2]], [[1]])
        s = direct_sum(v, QuiverRep.zero(F3, KQ))
        assert is_isomorphic(v, s)

    def test_injections_projections(self):
        rng = random.Random(2)
        parts = [random_rep(F3, KQ, (1, 2), rng), random_rep(F3, KQ, (2, 1), rng)]
        injs = summand_injections(parts)
        projs = summand_projections(parts)
        for inj, proj, part in zip(injs, projs, parts):
            assert inj.is_valid() and proj.is_valid()
            assert proj @ inj == RepMorphism.identity(part)


class TestIndecomposable:
    def test_simple_is_indecomposable(self):
        verdict = is_indecomposable(simple_f(F2, 1))
        assert verdict and verdict.certified

    def test_double_is_decomposable(self):
        v = k_rep(F2, [[1]], [[0]])
        verdict = is_indecomposable(direct_sum(v, v))
        assert not verdict and verdict.certified

    def test_zero_rep_raises(self):
        with pytest.raises(ZeroObject):
            is_indecomposable(QuiverRep.zero(F2, KQ))

    def test_end_dim_two_but_indecomposable(self):
        # alpha = I, beta = companion of an irreducible quadratic: End = F_4
        v = k_rep(F2, [[1, 0], [0, 1]], [[0, 1], [1, 1]])
        assert end_dim(v) == 2
        verdict = is_indecomposable(v)
        assert verdict and verdict.certified


class TestDecompose:
    def test_zero(self):
        assert decompose(QuiverRep.zero(F2, FQ)) == []

    def test_simples_with_multiplicity(self):
        total = direct_sum(simple_f(F2, 1), simple_f(F2, 1), simple_f(F2, 3))
        result = decompose(total)
        as_multiset = sorted((rep.dims, mult) for rep, mult in result)
        assert as_multiset == [((0, 0, 0, 1, 0), 1), ((0, 1, 0, 0, 0), 2)]

    def test_roundtrip_conjugated(self):
        rng = random.Random(31)
        for field in (F2, F5):
            u = k_rep(field, [[1]], [[0]])
            w = k_rep(field, [[1]], [[1]])
            total = random_conjugate(direct_sum(u, w, u), rng)
            result = decompose(total)
            assert sum(m for _, m in result) == 3
            matched_u = [m for rep, m in result if is_isomorphic(rep, u)]
            matched_w = [m for rep, m in result if is_isomorphic(rep, w)]
            assert matched_u == [2] and matched_w == [1]

    def test_summands_rebuild_original(self):
        rng = random.Random(37)
        v = random_rep(F3, FQ, (3, 1, 2, 1, 1), rng)
        result = decompose(v)
        rebuilt = direct_sum(
            *[rep for rep, mult in result for _ in range(mult)]
        )
        assert is_isomorphic(rebuilt, v)

    def test_deterministic(self):
        rng = random.Random(41)
        v = random_rep(F2, FQ, (2, 1, 1, 1, 1), rng)
        assert decompose(v) == decompose(v)

    def test_indecomposable_passthrough(self):
        v = k_rep(F2, [[1, 0], [0, 1]], [[0, 1], [1, 1]])
        assert decompose(v) == [(v, 1)]


# -- certification over the rationals -----------------------------------------


def test_rational_field_endomorphism_ring_certified():
    # End is Q[T]/(t^2+1), a field: no idempotent enumeration is possible
    # over Q, so certification must come from the algebra analysis
    rot = Matrix.from_rows(QQ, [[0, -1], [1, 0]])
    rep = k_rep(QQ, [[1, 0], [0, 1]], [[0, -1], [1, 0]])
    assert rep.mat("beta") == rot
    assert end_dim(rep) == 2
    verdict = is_indecomposable(rep)
    assert verdict and verdict.certified


def test_rational_local_ring_with_nilpotents_certified():
    # End is Q[x]/(x^2): local but not a field; the radical must be
    # separated off before the primitive-element test
    rep = k_rep(QQ, [[1, 0], [0, 1]], [[1, 1], [0, 1]])
    assert end_dim(rep) == 2
    verdict = is_indecomposable(rep)
    assert verdict and verdict.certified


def test_rational_decompose_mixed_sum():
    rot = k_rep(QQ, [[1, 0], [0, 1]], [[0, -1], [1, 0]])
    scal = k_rep(QQ, [[1]], [[2]])
    total = random_conjugate(direct_sum(rot, scal), random.Random(3))
    parts = decompose(total)
    assert sorted(p.dims for p, _ in parts) == [(1, 1), (2, 2)]
    assert all(mult == 1 for _, mult in parts)
    rebuilt = direct_sum(*[p for p, _ in parts])
    assert is_isomorphic(total, rebuilt)


def test_rational_decompose_square_of_indecomposable():
    rot = k_rep(QQ, [[1, 0], [0, 1]], [[0, -1], [1, 0]])
    total = random_conjugate(direct_sum(rot, rot), random.Random(7))
    parts = decompose(total)
    assert len(parts) == 1
    rep, mult = parts[0]
    assert mult == 2 and rep.dims == (2, 2)


# -- the radical of End and the exact algebra analysis ---------------------------


def _structure_constants(field, basis, mul):
    """lam[k, i*d+j] for the algebra with the given basis, where mul(a, b)
    is the basis element a*b or None for zero."""
    d = len(basis)
    index = {b: k for k, b in enumerate(basis)}
    entries = [0] * (d * d * d)
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            prod = mul(a, b)
            if prod is not None:
                entries[index[prod] * d * d + i * d + j] = 1
    return Matrix(field, d, d * d, [field.convert(x) for x in entries])


S3 = list(itertools.permutations(range(3)))
T3 = [(i, j) for i in range(3) for j in range(i, 3)]  # matrix units E_ij, i <= j


def _s3_mul(a, b):
    return tuple(a[b[i]] for i in range(3))


def _t3_mul(a, b):
    return (a[0], b[1]) if a[1] == b[0] else None


@pytest.mark.parametrize(
    "field, basis, mul, rad_dim",
    [
        (F2, S3, _s3_mul, 1),
        (F3, S3, _s3_mul, 4),
        (F5, S3, _s3_mul, 0),
        (QQ, S3, _s3_mul, 0),
        (F2, list(range(4)), lambda a, b: (a + b) % 4, 3),
        (F2, T3, _t3_mul, 3),
        (F3, T3, _t3_mul, 3),
    ],
    ids=["F2[S3]", "F3[S3]", "F5[S3]", "Q[S3]", "F2[C4]", "T3(F2)", "T3(F3)"],
)
def test_radical_dimension(field, basis, mul, rad_dim):
    lam = _structure_constants(field, basis, mul)
    rad = quivers._radical(field, len(basis), lam)
    assert rad.cols == rad_dim
    assert quivers._is_nilpotent_ideal(field, len(basis), lam, rad)


def _brute_radical(p, d, lam):
    """Codes (base p, first coordinate highest) of every x in the algebra
    such that y x is nilpotent for every y."""
    lam3 = np.array(lam.entries, dtype=np.int64).reshape(d, d, d)  # [k, i, j]
    elems = np.array(list(itertools.product(range(p), repeat=d)), dtype=np.int64)
    weights = p ** np.arange(d - 1, -1, -1)
    z = elems
    for _ in range(d.bit_length()):  # z^(2^e) with 2^e >= d
        z = np.einsum("ni,nj,kij->nk", z, z, lam3) % p
    nilpotent = ~z.any(axis=1)
    return {
        code
        for code, x in enumerate(elems)
        if nilpotent[(elems @ np.einsum("kij,j->ik", lam3, x) % p) @ weights].all()
    }


@pytest.mark.parametrize("field", [F2, F3, F5], ids=["F2", "F3", "F5"])
def test_radical_of_end_matches_brute_force(field):
    p = field.p
    rng = random.Random(5)
    checked = 0
    while checked < 3:
        q = QUIVERS[rng.choice("FSDKC")]
        parts = []
        for _ in range(2):
            dims = [rng.randint(0, 2) for _ in q.vertices]
            dims[0] = max(dims[0], 1)
            parts += [random_rep(field, q, dims, rng)] * rng.randint(1, 2)
        v = random_conjugate(direct_sum(*parts), rng)
        endos = hom_basis(v, v)
        d = len(endos)
        if d < 3 or p**d > 1 << 10:
            continue
        lam = quivers._product_coords(endos, quivers._endo_vec_basis(endos))
        rad = quivers._radical(field, d, lam)
        r = rad.cols
        coords = np.array(rad.entries, dtype=np.int64).reshape(d, r)
        combos = np.array(list(itertools.product(range(p), repeat=r)), dtype=np.int64)
        spanned = (combos.reshape(p**r, r) @ coords.T % p) @ (p ** np.arange(d - 1, -1, -1))
        assert set(spanned.tolist()) == _brute_radical(p, d, lam)
        checked += 1


def test_analysis_rejects_a_radical_that_is_not_nilpotent(monkeypatch):
    # End is Q[x]/(x^2); a "radical" holding the identity must not certify
    rep = k_rep(QQ, [[1, 0], [0, 1]], [[1, 1], [0, 1]])
    monkeypatch.setattr(quivers, "_radical", lambda f, d, lam: Matrix.identity(f, d))
    with pytest.raises(ShapeError, match="radical"):
        quivers._algebra_analysis(rep, hom_basis(rep, rep), 0)


@pytest.mark.parametrize(
    "field, tag, copies", [(F2, "K:I(1)", 2), (F2, "K:I(1)", 5), (F3, "D:II(1)", 3)]
)
def test_analysis_splits_matrix_ring_ends(field, tag, copies):
    # End is a full matrix ring over a local ring: a noncommutative quotient
    # E/rad that the analysis must split by itself
    unit = canon_rep(parse_tag(tag, field), field)
    rep = random_conjugate(direct_sum(*[unit] * copies), random.Random(0))
    kind, (bases_a, bases_b) = quivers._algebra_analysis(rep, hom_basis(rep, rep), 0)
    assert kind == "split"
    pieces = [quivers._restrict_to_bases(rep, b) for b in (bases_a, bases_b)]
    assert all(not piece.is_zero for piece in pieces)
    assert is_isomorphic(rep, direct_sum(*pieces))
