"""Census tests: frozen class counts from independent enumeration, orbit
accounting, agreement of the orbit walk with pairwise isomorphism tests and
with a plain breadth-first search, the batched elimination against
rref, the counting verdict against hand-checked cells and the
indecomposability ladder, the generating sets of GL(d, q) and their cached
inverses, the permutation tables against the Matrix-level action, the
tables shared between cells (read-only, bounded, the same report cold and
warm), large fields, worker equivalence, guards, and the release of an
earlier import."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import foursub
import foursub.census as census_module
from foursub.canon import classify_indecomposable, format_tag
from foursub.census import (
    COMPONENT_CAP,
    _batched_rref,
    _census_space,
    _decide_indecomposable,
    _echelon_bases,
    _echelon_shapes,
    _gl_generators,
    _gl_inverses,
    _group_order,
    _labels,
    _orbits,
    _uint_dtype,
    census,
    census_sweep,
    enumeration_size,
)
from foursub.errors import ShapeError, TooLarge, UnmatchedClass, UnsupportedField
from foursub.fields import GF, QQ
from foursub.matrices import Matrix, column_echelon, direct_sum, inverse, rref
from foursub.quivers import QUIVERS, QuiverRep, end_dim, is_indecomposable, is_isomorphic
from foursub.relations import (
    PairRelObj,
    RelObj,
    _as_rep,
    lrel_is_isomorphic,
    rel_is_isomorphic,
)


def signature(report):
    return [
        (
            c.shape(),
            c.orbit_size,
            c.indecomposable,
            format_tag(c.tag) if c.tag else None,
        )
        for c in report.classes
    ]


def tags_of(report):
    return sorted(format_tag(c.tag) for c in report.classes if c.tag is not None)


# -- frozen fixtures -------------------------------------------------------------


def test_kronecker_1_1_over_f2():
    report = census("K", GF(2), (1, 1))
    assert report.total == 4
    assert report.num_classes == 4
    assert report.num_indecomposable == 3
    assert report.unmatched_indices == ()
    assert tags_of(report) == ["K:0(1,p=t+1,s=1)", "K:I(1)", "K:I2(1)"]
    assert all(c.orbit_size == 1 for c in report.classes)


def test_kronecker_1_0_single_simple():
    report = census("K", GF(2), (1, 0))
    assert report.total == 1
    assert report.num_classes == 1
    assert report.num_indecomposable == 1
    assert report.unmatched_indices == ()


@pytest.mark.parametrize("category", ["K", "C"])
@pytest.mark.parametrize("p", [2, 3])
def test_rank_one_pencils_count_q_plus_one(category, p):
    report = census(category, GF(p), (1, 1))
    assert report.total == p * p
    assert report.num_indecomposable == p + 1
    assert report.unmatched_indices == ()


@pytest.mark.parametrize("p", [2, 3])
def test_three_subspace_quiver_count_q_plus_two(p):
    report = census("D", GF(p), (1, 1, 1))
    assert report.num_indecomposable == p + 2
    assert report.unmatched_indices == ()
    # every indecomposable class matches a tag with parameter n in {0, 1}
    for entry in report.classes:
        if entry.indecomposable:
            assert entry.tag.n in (0, 1)


@pytest.mark.parametrize("p", [2, 3])
def test_square_quiver_count_q_plus_three(p):
    report = census("S", GF(p), (1, 1, 1, 1))
    assert report.num_indecomposable == p + 3
    assert report.unmatched_indices == ()


@pytest.mark.parametrize("p", [2, 3])
def test_tetrad_delta_dims_count_q_plus_four(p):
    report = census("F", GF(p), (2, 1, 1, 1, 1))
    assert report.total == p**8
    assert report.num_indecomposable == p + 4
    assert report.unmatched_indices == ()


def test_one_relation_space_dim_one():
    report = census("LinRel1", GF(2), (1,))
    # the five subspaces of k^2 give five singleton classes, all indecomposable
    assert report.total == 5
    assert report.num_classes == 5
    assert report.num_indecomposable == 5
    assert report.unmatched_indices == ()


def test_one_relation_space_dim_two_frozen():
    report = census("LinRel1", GF(2), (2,))
    assert report.total == 67
    assert report.num_classes == 21
    assert report.num_indecomposable == 6
    assert report.unmatched_indices == ()
    # the nilpotent graph and its inverse are non-isomorphic classes that both
    # match the invertible-operator family tag up to embedding symmetry
    assert tags_of(report) == [
        "LinRel1:0(2,p=t+1,s=2)",
        "LinRel1:0(2,p=t+1,s=2)",
        "LinRel1:0(2,p=t^2+t+1,s=1)",
        "LinRel1:I(2)",
        "LinRel1:II(1)",
        "LinRel1:III(2)",
    ]


def test_pair_relation_1_1_frozen():
    report = census("PairRel", GF(2), (1, 1))
    assert report.total == 25
    assert report.num_classes == 25
    assert report.num_indecomposable == 9
    assert report.unmatched_indices == ()


# -- report invariants -----------------------------------------------------------


@pytest.mark.parametrize(
    "category,dims",
    [("K", (2, 1)), ("D", (1, 2, 1)), ("LinRel1", (2,)), ("PairRel", (1, 1))],
)
def test_orbit_sizes_account_for_every_object(category, dims):
    report = census(category, GF(2), dims)
    assert sum(c.orbit_size for c in report.classes) == report.total
    assert report.total == enumeration_size(category, GF(2), dims)


def gl_order(d, q):
    order = 1
    for i in range(d):
        order *= q**d - q**i
    return order


def group_order(category, dims, q):
    """|prod_v GL(d_v, q)| for the group whose orbits are the classes."""
    if category == "LinRel1":
        return gl_order(dims[0], q)
    order = 1
    for d in dims:
        order *= gl_order(d, q)
    return order


@pytest.mark.parametrize(
    "category,dims,q",
    [
        ("K", (2, 2), 2),
        ("D", (1, 2, 1), 3),
        ("F", (2, 1, 1, 1, 1), 2),
        ("LinRel1", (2,), 3),
        ("PairRel", (1, 2), 2),
        ("PairRel", (1, 1), 5),
    ],
)
def test_orbit_sizes_divide_group_order(category, dims, q):
    order = group_order(category, dims, q)
    report = census(category, GF(q), dims)
    assert all(order % c.orbit_size == 0 for c in report.classes)


def test_worker_count_does_not_change_report():
    for category, q, dims in [("K", 2, (2, 1)), ("LinRel1", 2, (2,)), ("PairRel", 3, (1, 1))]:
        one = census(category, GF(q), dims)
        two = census(category, GF(q), dims, workers=2)
        assert signature(one) == signature(two)


@pytest.mark.parametrize(
    "category,dims,q",
    [
        ("K", (0, 0), 2),
        ("K", (2, 2), 3),
        ("D", (1, 2, 1), 5),
        ("F", (2, 1, 1, 1, 1), 2),
        ("LinRel1", (3,), 3),
        ("PairRel", (1, 2), 2),
    ],
)
def test_group_order_matches_gl_orders(category, dims, q):
    assert _group_order(GF(q), dims) == group_order(category, dims, q)


# -- the counting verdict ----------------------------------------------------------


def kronecker(q, dims, alpha, beta):
    field = GF(q)
    t, s = dims
    return QuiverRep(
        field, QUIVERS["K"], dims, [Matrix(field, t, s, m) for m in (alpha, beta)]
    )


def hand_checked_cells(q):
    """(representative, dim End, orbit size, indecomposable) with
    q^dim End - |Aut| worked out by hand."""
    gl2 = gl_order(2, q)
    return [
        # S + S, S the simple at the first vertex: End = M_2(F_q), and
        # q^4 - |GL_2(q)| = q (q^2 + q - 1)
        (kronecker(q, (2, 0), [], []), 4, 1, False),
        # alpha = I, beta the nilpotent Jordan block: End = F_q[x]/x^2, and
        # q^2 - (q^2 - q) = q
        (kronecker(q, (2, 2), [1, 0, 0, 1], [0, 1, 0, 0]), 2, gl2 * gl2 // (q * q - q), True),
        # the two simples: End = F_q x F_q, and q^2 - (q - 1)^2 = 2q - 1
        (kronecker(q, (1, 1), [0], [0]), 2, 1, False),
    ]


@pytest.mark.parametrize("q", [2, 3, 5])
def test_counting_verdict_on_hand_checked_cells(q):
    for rep, e, orbit, indecomposable in hand_checked_cells(q):
        assert end_dim(rep) == e
        assert _decide_indecomposable(rep, orbit, _group_order(GF(q), rep.dims)) is indecomposable
        assert is_indecomposable(rep).indecomposable is indecomposable
        if q < 5:  # the census of K (2, 2) over F_5 walks 5^8 objects
            report = census("K", GF(q), rep.dims)
            (entry,) = [c for c in report.classes if is_isomorphic(c.representative, rep)]
            assert (entry.orbit_size, entry.indecomposable) == (orbit, indecomposable)


def test_forged_orbit_size_raises():
    rep, _, orbit, _ = hand_checked_cells(3)[1]
    order = _group_order(GF(3), rep.dims)
    assert _decide_indecomposable(rep, orbit, order)
    with pytest.raises(ShapeError):
        _decide_indecomposable(rep, orbit + 1, order)  # does not divide |G|
    with pytest.raises(ShapeError):
        _decide_indecomposable(rep, 1, order)  # |Aut| above q^dim End


# F2: K, C, D, S to total 3, F to 4, LinRel1 and PairRel to 2.  F3 and F5:
# every cell at total <= 3 except LinRel1 (3), whose census alone takes
# seconds.
DIFFERENTIAL_SWEEPS = (
    [(2, c, 3) for c in "KCDS"]
    + [(2, "F", 4), (2, "LinRel1", 2), (2, "PairRel", 2)]
    + [(q, c, 3) for q in (3, 5) for c in ("K", "C", "D", "S", "F", "PairRel")]
    + [(q, "LinRel1", 2) for q in (3, 5)]
)


@pytest.mark.parametrize("q,category,bound", DIFFERENTIAL_SWEEPS)
def test_counting_verdict_matches_the_ladder(q, category, bound):
    """On every nonzero class of the sweep, the census verdict equals the
    certified verdict of is_indecomposable on the representative."""
    for report in census_sweep(category, GF(q), bound):
        for entry in report.classes:
            obj = entry.representative
            rep = obj if isinstance(obj, QuiverRep) else _as_rep(obj)
            if rep.total_dim == 0:
                assert not entry.indecomposable
                continue
            verdict = is_indecomposable(rep)
            assert verdict.certified, (report.dims, obj)
            assert verdict.indecomposable == entry.indecomposable, (report.dims, obj)


def test_enumeration_sizes():
    assert enumeration_size("K", GF(2), (2, 2)) == 256
    assert enumeration_size("F", GF(3), (2, 1, 1, 1, 1)) == 3**8
    assert enumeration_size("LinRel1", GF(2), (2,)) == 67
    assert enumeration_size("LinRel1", GF(2), (4,)) == 417199
    assert enumeration_size("PairRel", GF(2), (2, 2)) == 67 * 67


# -- guards and errors -----------------------------------------------------------


def test_component_cap_enforced():
    with pytest.raises(TooLarge):
        census("K", GF(2), (COMPONENT_CAP + 1, 0))


def test_enumeration_guard_enforced():
    with pytest.raises(TooLarge):
        census("LinRel1", GF(5), (4,))


def test_rational_field_rejected():
    with pytest.raises(UnsupportedField):
        census("K", QQ, (1, 1))


def test_bad_inputs_rejected():
    with pytest.raises(ShapeError):
        census("X", GF(2), (1, 1))
    with pytest.raises(ShapeError):
        census("K", GF(2), (1, 1, 1))
    with pytest.raises(ShapeError):
        census("K", GF(2), (-1, 1))


# -- sweeps ----------------------------------------------------------------------


def test_sweep_kronecker_total_three():
    reports = census_sweep("K", GF(2), 3)
    assert len(reports) == 10  # dim vectors with total <= 3, components <= 3
    assert [r.dims for r in reports[:6]] == [
        (0, 0),
        (0, 1),
        (1, 0),
        (0, 2),
        (1, 1),
        (2, 0),
    ]
    assert all(r.unmatched_indices == () for r in reports)


def test_sweep_skips_oversized_cells_with_warning(monkeypatch):
    monkeypatch.setattr("foursub.census.ENUMERATION_GUARD", 3)
    with pytest.warns(RuntimeWarning, match="skipped"):
        reports = census_sweep("K", GF(2), 2)
    assert (1, 1) not in [r.dims for r in reports]


def test_sweep_raises_on_unmatched_class(monkeypatch):
    def no_trials(category, shape, field, candidates=None):
        return iter(())

    monkeypatch.setattr("foursub.census.table_trials", no_trials)
    with pytest.raises(UnmatchedClass):
        census_sweep("K", GF(2), 1)


# -- the orbit walk ----------------------------------------------------------------


def test_enumerated_bases_are_canonical():
    f = GF(2)
    count = 0
    for shape in _echelon_shapes(4):
        for basis in _echelon_bases(f, 4, shape):
            assert RelObj(f, 2, 2, basis).basis == basis
            count += 1
    assert count == 67


def closure_size(gens, d, q):
    """Number of products of the generators, by breadth-first search over
    d x d matrices over F_q coded as base-q integers."""
    g = np.array([m.to_lists() for m in gens], dtype=np.int64).reshape(-1, d, d)
    weights = q ** np.arange(d * d, dtype=np.int64)
    seen = np.zeros(q ** (d * d), dtype=bool)
    frontier = np.eye(d, dtype=np.int64)[None]
    seen[frontier.reshape(1, -1) @ weights] = True
    while len(frontier):
        images = (np.einsum("nij,kjl->knil", frontier, g) % q).reshape(-1, d, d)
        codes, first = np.unique(images.reshape(-1, d * d) @ weights, return_index=True)
        new = ~seen[codes]
        seen[codes[new]] = True
        frontier = images[first[new]]
    return int(seen.sum())


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_generators_reach_all_of_gl(d, q):
    gens = _gl_generators(GF(q), d)
    assert all(m.rank == d for m in gens)
    assert closure_size(gens, d, q) == gl_order(d, q)


def clear_shared_tables():
    _gl_generators.cache_clear()
    _gl_inverses.cache_clear()
    census_module._tables.clear()


def full_signature(report):
    return [(c.representative,) + entry for c, entry in zip(report.classes, signature(report))]


def test_cold_and_warm_tables_give_the_same_report():
    """A cell run on empty caches and again after other cells of its field
    filled them reports the same classes, representatives, orbit sizes,
    verdicts and tags."""
    others = {
        3: [("K", (1, 1)), ("S", (2, 1, 1, 1)), ("D", (1, 1, 1)), ("F", (1, 1, 1, 1, 1))],
        2: [("K", (2, 1)), ("C", (2, 2)), ("K", (1, 2)), ("S", (2, 2, 1, 1))],
    }
    for category, q, dims in [("S", 3, (1, 1, 1, 1)), ("K", 2, (2, 2))]:
        clear_shared_tables()
        cold = full_signature(census(category, GF(q), dims))
        assert census_module._tables  # the cell filled the cache
        for other, other_dims in others[q]:
            census(other, GF(q), other_dims)
        warm = full_signature(census(category, GF(q), dims))
        assert warm == cold


def test_shared_tables_are_read_only():
    clear_shared_tables()
    census("K", GF(3), (2, 1))
    assert census_module._tables
    for table in census_module._tables.values():
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_cached_inverses_invert_each_generator(d, q):
    field = GF(q)
    clear_shared_tables()
    for hits in (0, 1):  # computed, then read from the cache
        inverses = _gl_inverses(field, d)
        assert _gl_inverses.cache_info().hits == hits
        assert len(inverses) == len(_gl_generators(field, d))
        for g, g_inv in zip(_gl_generators(field, d), inverses):
            assert g_inv @ g == Matrix.identity(field, d)


def test_table_cache_keeps_within_its_bound(monkeypatch):
    """With room for about one 2 x 2 table over F3 (81 int64 entries), the
    cache drops the least recently used tables, and the census still
    gives the same report."""
    clear_shared_tables()
    expected = full_signature(census("K", GF(3), (2, 2)))
    clear_shared_tables()
    monkeypatch.setattr(census_module, "_TABLE_BYTES", 81 * 8)
    assert full_signature(census("K", GF(3), (2, 2))) == expected
    assert sum(t.nbytes for t in census_module._tables.values()) <= 81 * 8
    assert len(census_module._tables) == 1
    monkeypatch.setattr(census_module, "_TABLE_BYTES", 0)
    census("K", GF(3), (1, 1))
    assert census_module._tables == {}  # no table fits


def group_generators(category, field, dims):
    """The generators of G in the order the census space lists its moves:
    (vertex, g) for a quiver, the matrix acting on k^n for a relation."""
    if category in QUIVERS:
        quiver = QUIVERS[category]
        return [(v, g) for v, d in zip(quiver.vertices, dims) for g in _gl_generators(field, d)]
    if category == "LinRel1":
        return [direct_sum(g, g) for g in _gl_generators(field, dims[0])]
    one1, one2 = Matrix.identity(field, dims[0]), Matrix.identity(field, dims[1])
    return [direct_sum(g, one2) for g in _gl_generators(field, dims[0])] + [
        direct_sum(one1, g) for g in _gl_generators(field, dims[1])
    ]


def act(generator, obj):
    """The image of a census object under a generator of G, at Matrix level:
    M_a -> g_t M_a g_s^-1 on a quiver, basis -> column_echelon(G basis) on
    each relation."""
    field = obj.field
    if isinstance(obj, QuiverRep):
        v, g = generator
        mats = []
        for a, m in zip(obj.quiver.arrows, obj.mats):
            if a.target == v:
                m = g @ m
            if a.source == v:
                m = m @ inverse(g)
            mats.append(m)
        return QuiverRep(field, obj.quiver, obj.dims, mats)
    if isinstance(obj, RelObj):
        return RelObj(field, obj.dim1, obj.dim2, column_echelon(generator @ obj.basis))
    return PairRelObj(
        field,
        obj.dim1,
        obj.dim2,
        column_echelon(generator @ obj.basis1),
        column_echelon(generator @ obj.basis2),
    )


@pytest.mark.parametrize(
    "category,dims,p",
    [
        ("K", (2, 1), 3),
        ("C", (1, 2), 3),
        ("LinRel1", (2,), 3),
        ("PairRel", (1, 2), 3),
        ("PairRel", (2, 1), 2),
        ("K", (1, 2), 5),
    ],
)
def test_tables_follow_the_matrix_action(category, dims, p):
    """build numbers the objects in enumeration order, and every table entry
    is the number of the image the Matrix-level action gives."""
    field = GF(p)
    space = _census_space(category, field, dims)
    objects = [space.build(i) for i in range(space.total)]
    assert objects == list(enumerate_objects(category, field, dims))
    generators = group_generators(category, field, dims)
    assert len(generators) == len(space.moves)
    for generator, move in zip(generators, space.moves):
        images = space.images(move)
        for i, obj in enumerate(objects):
            assert objects[images[i]] == act(generator, obj)


def enumerate_objects(category, field, dims):
    """Every object of a census cell in canonical order, built directly."""
    if category in QUIVERS:
        quiver = QUIVERS[category]
        shapes = [
            (dims[quiver.vertex_index(a.target)], dims[quiver.vertex_index(a.source)])
            for a in quiver.arrows
        ]
        cells = sum(t * s for t, s in shapes)
        for values in itertools.product(field.elements(), repeat=cells):
            mats, pos = [], 0
            for t, s in shapes:
                mats.append(Matrix(field, t, s, values[pos : pos + t * s]))
                pos += t * s
            yield QuiverRep(field, quiver, dims, mats)
        return
    n = 2 * dims[0] if category == "LinRel1" else sum(dims)
    bases = [b for shape in _echelon_shapes(n) for b in _echelon_bases(field, n, shape)]
    if category == "LinRel1":
        for b in bases:
            yield RelObj(field, dims[0], dims[0], b)
    else:
        for b1, b2 in itertools.product(bases, repeat=2):
            yield PairRelObj(field, dims[0], dims[1], b1, b2)


def bfs_orbits(space):
    """(representative, orbit size) by scanning the numbers in order and
    walking each unvisited one's orbit breadth-first under the moves."""
    perms = [space.images(move).tolist() for move in space.moves]
    for perm in perms:
        assert sorted(perm) == list(range(space.total))
    seen = [False] * space.total
    out = []
    for start in range(space.total):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for index in orbit:  # the loop reaches appended images
            for perm in perms:
                if not seen[perm[index]]:
                    seen[perm[index]] = True
                    orbit.append(perm[index])
        out.append((start, len(orbit)))
    return out


@pytest.mark.parametrize(
    "category,dims,q",
    [
        ("LinRel1", (3,), 2),  # 7 rounds of label propagation
        ("K", (3, 3), 2),  # 6 rounds
        ("K", (2, 2), 3),
        ("LinRel1", (2,), 3),
        ("PairRel", (1, 2), 3),
        ("D", (1, 2, 1), 5),
        ("PairRel", (1, 1), 5),
    ],
)
def test_label_propagation_matches_breadth_first_search(category, dims, q):
    space = _census_space(category, GF(q), dims)
    assert _orbits(_labels(space)) == bfs_orbits(space)


def random_stack(rng, q, r, n, count, full_rank):
    """count r x n matrices over F_q as row lists, full rank if asked."""
    mats = []
    while len(mats) < count:
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(r)]
        if not full_rank or Matrix(GF(q), r, n, [x for row in rows for x in row]).rank == r:
            mats.append(rows)
    return mats


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("r,n", [(0, 3), (1, 1), (2, 4), (3, 3), (3, 6), (4, 8)])
def test_batched_rref_matches_reduce_rows(q, r, n):
    """Full-rank batches, then arbitrary ones: the same reduced rows and
    pivot columns as rref, matrix by matrix."""
    rng = random.Random(100 * q + 10 * r + n)
    mats = random_stack(rng, q, r, n, 150, True) + random_stack(rng, q, r, n, 50, False)
    stack = np.array(mats, dtype=_uint_dtype(max(n, 2) * q * q)).reshape(len(mats), r, n)
    reduced, mask = _batched_rref(stack.transpose(1, 2, 0).copy(), q)
    for b, rows in enumerate(mats):
        red = rref(Matrix(GF(q), r, n, [x for row in rows for x in row]))
        assert reduced[:, :, b].tolist() == red.reduced.to_lists()
        assert mask[:, b].tolist() == [j in red.pivot_cols for j in range(n)]


@pytest.mark.parametrize("q", [10007, 65537])
def test_linrel1_one_over_large_fields_fixes_every_line(q):
    """g + g with g a scalar fixes every subspace of k^2, so every table is
    the identity and the q + 3 subspaces are q + 3 orbits of size 1."""
    space = _census_space("LinRel1", GF(q), (1,))
    identity = list(range(q + 3))
    assert space.total == q + 3
    for move in space.moves:
        assert [table.tolist() for _, table in move] == [identity]
        assert space.images(move).tolist() == identity
    assert _orbits(_labels(space)) == [(i, 1) for i in identity]


def test_kronecker_1_1_over_f251_counts_q_plus_two():
    # (0, 0) and the q + 1 points of the projective line
    assert census("K", GF(251), (1, 1)).num_classes == 253


def test_pair_relation_past_int64():
    """(q - 1)^2 overflows int64 over GF(4294967311); the four pairs of
    subspaces of k^1 are fixed by GL(1)."""
    report = census("PairRel", GF(4294967311), (1, 0))
    assert [(c.orbit_size, c.indecomposable) for c in report.classes] == [(1, True)] * 4


ISOMORPHIC = {"LinRel1": lrel_is_isomorphic, "PairRel": rel_is_isomorphic}


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize(
    "category,dims",
    [("K", (2, 1)), ("LinRel1", (2,)), ("PairRel", (1, 1)), ("D", (1, 2, 1))],
)
def test_census_partition_matches_pairwise_isomorphism(category, dims, p):
    """First-seen representatives and class sizes from pairwise isomorphism
    tests against the representatives found so far."""
    iso = ISOMORPHIC.get(category, is_isomorphic)
    classes = []  # [representative, size]
    for obj in enumerate_objects(category, GF(p), dims):
        for entry in classes:
            if iso(entry[0], obj):
                entry[1] += 1
                break
        else:
            classes.append([obj, 1])
    report = census(category, GF(p), dims)
    assert [(c.representative, c.orbit_size) for c in report.classes] == [
        tuple(entry) for entry in classes
    ]


# -- numbering and tags --------------------------------------------------------------

NUMBERED_CELLS = [
    (q, category, dims)
    for q in (2, 3)
    for category, dims in [
        ("K", (1, 1)),
        ("K", (2, 1)),
        ("D", (1, 2, 1)),
        ("F", (1, 1, 1, 1, 1)),
        ("F", (2, 1, 1, 1, 0)),
        ("LinRel1", (1,)),
        ("LinRel1", (2,)),
        ("PairRel", (0, 2)),
        ("PairRel", (1, 0)),
        ("PairRel", (1, 2)),
    ]
]


@pytest.mark.parametrize("q,category,dims", NUMBERED_CELLS)
def test_number_inverts_build(q, category, dims):
    space = _census_space(category, GF(q), dims)
    assert [space.number(space.build(i)) for i in range(space.total)] == list(range(space.total))


def test_number_rejects_other_cells_and_bases_off_echelon_form():
    f = GF(3)
    line = _census_space("LinRel1", f, (1,))
    pair = _census_space("PairRel", f, (1, 1))
    diagonal = Matrix(f, 2, 1, [1, 1])
    off_form = [
        Matrix(f, 2, 1, [2, 2]),  # pivot entry not 1
        Matrix(f, 2, 1, [0, 0]),  # zero column
        Matrix(f, 2, 2, [0, 1, 1, 0]),  # pivots out of order
        Matrix(f, 2, 2, [1, 1, 0, 1]),  # pivot column not cleared
    ]
    for basis in off_form:
        with pytest.raises(ShapeError):
            line.number(RelObj._trusted(f, 1, 1, basis))
        with pytest.raises(ShapeError):
            pair.number(PairRelObj._trusted(f, 1, 1, diagonal, basis))
    with pytest.raises(ShapeError):
        pair.number(RelObj._trusted(f, 1, 1, diagonal))  # one relation, not a pair
    with pytest.raises(ShapeError):
        pair.number(PairRelObj._trusted(f, 2, 0, diagonal, diagonal))
    kronecker = _census_space("K", f, (1, 1))
    with pytest.raises(ShapeError):
        kronecker.number(QuiverRep.zero(f, QUIVERS["K"]))
    with pytest.raises(ShapeError):
        kronecker.number(_census_space("C", f, (1, 1)).build(0))


# the F2 sweep to total 3 (F to 4) by its bound, census_f3's cells and a
# few F5 cells by their dims
TAGGED_CELLS = (
    [(2, category, 3) for category in ("K", "C", "D", "S", "LinRel1", "PairRel")]
    + [(2, "F", 4)]
    + [
        (3, category, dims)
        for category, dims in [
            ("K", (1, 1)), ("K", (2, 2)), ("K", (1, 3)), ("C", (2, 2)),
            ("F", (2, 1, 1, 1, 1)), ("LinRel1", (2,)), ("PairRel", (0, 3)),
            ("PairRel", (1, 2)), ("D", (2, 1, 1)), ("S", (1, 1, 1, 1)),
        ]
    ]
    + [
        (5, category, dims)
        for category, dims in [
            ("K", (1, 1)), ("D", (1, 1, 1)), ("LinRel1", (1,)), ("PairRel", (1, 1)),
            ("S", (1, 1, 1, 1)),
        ]
    ]
)


@pytest.mark.parametrize("q,category,cells", TAGGED_CELLS)
def test_tags_by_orbit_match_classify_indecomposable(q, category, cells):
    """The census tag of every indecomposable class is the tag the
    hom-basis tests of classify_indecomposable give its representative."""
    field = GF(q)
    if isinstance(cells, int):
        reports = census_sweep(category, field, cells)
    else:
        reports = [census(category, field, cells)]
    for report in reports:
        for entry in report.classes:
            if entry.indecomposable:
                assert entry.tag == classify_indecomposable(entry.representative), (
                    report.dims,
                    entry.representative,
                )


# -- re-import -----------------------------------------------------------------------

REIMPORT = """
import gc, importlib, sys, weakref

def purge():
    for name in [n for n in sys.modules if n == "foursub" or n.startswith("foursub.")]:
        del sys.modules[name]

importlib.import_module("foursub.cli")
old = weakref.ref(sys.modules["foursub.matrices"].Matrix)
for _ in range(3):
    purge()
    importlib.import_module("foursub.cli")
gc.collect()
print("released" if old() is None else "pinned")
"""


def test_reimport_releases_the_earlier_package():
    """A fresh import of foursub leaves nothing of the earlier one alive
    (module-level typing.Union aliases used to pin it in typing's cache).
    Runs in a subprocess, so the suite's own modules stay as they are."""
    src = str(Path(foursub.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", REIMPORT],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert result.stdout.strip() == "released"
