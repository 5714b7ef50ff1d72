"""Canonical families: construction, tag syntax, indecomposability,
distinctness, and classification roundtrips."""

import itertools
import random
import warnings

import pytest

from foursub import canon
from foursub.canon import (
    CATEGORIES,
    IndecompTag,
    _SHAPES,
    _VALID_TYPES,
    _embedded_canon,
    _embedded_dims,
    arm_permute,
    canon_rep,
    classify,
    classify_indecomposable,
    format_tag,
    nhat,
    parse_tag,
)
from foursub.census import census
from foursub.errors import InvalidTag, ParseError, ReducibleModulus
from foursub.fields import GF, QQ, Poly, monic_irreducibles, parse_poly
from foursub.functors import apply_functor, in_image
from foursub.matrices import Matrix
from foursub.quivers import (
    QUIVERS,
    QuiverRep,
    direct_sum,
    end_dim,
    is_indecomposable,
    is_isomorphic,
    random_conjugate,
    validate,
)
from foursub.relations import (
    PairRelObj,
    _as_rep,
    _from_rep,
    lrel_is_isomorphic,
    rel_inverse,
    rel_is_isomorphic,
)

F2 = GF(2)
F3 = GF(3)


def all_tags(category, field, max_n, max_deg=2, max_size=None):
    """Every valid tag of the category with index up to max_n (polynomial
    entries: s*deg(p) up to max_size, default max_n)."""
    if max_size is None:
        max_size = max_n
    out = []
    for type_name, min_n in _VALID_TYPES[category].items():
        if type_name == "Zero":
            for deg in range(1, max_deg + 1):
                for p in monic_irreducibles(field, deg):
                    if p == Poly.t(field):
                        continue
                    for s in range(1, max_size // deg + 1):
                        out.append(IndecompTag(category, "Zero", s * deg, p, s))
        elif type_name.startswith("Inj"):
            out.append(IndecompTag(category, type_name))
        else:
            for n in range(min_n, max_n + 1):
                out.append(IndecompTag(category, type_name, n))
    out.sort(key=IndecompTag.sort_key)
    return out


# -- tag syntax -------------------------------------------------------------


def test_tag_text_roundtrip():
    texts = [
        "F:III(2)",
        "F:V*(0)",
        "K:0(2,p=t^2+t+1,s=1)",
        "S:I(3)",
        "K:I2(1)",
        "PairRel:IV*(2)",
        "LinRel1:II(0)",
        "F:Inj3(0)",
    ]
    for text in texts:
        tag = parse_tag(text, F2)
        assert format_tag(tag) == text


def test_tag_parse_errors():
    for bad in ["X:II(1)", "F:II", "F:II()", "F:Weird(1)", "F:0(2,p=t+1)", "F:II(x)",
                "K:0(1,p=t+1,s=2,s=1)", "K:0(1,p=t,p=t+1,s=1)",
                # n and s are ASCII digits with no sign, which int() alone allows
                "K:I(1_0)", "K:I(+1)", "K:I(-1)", "K:I(١)", "K:I(²)", "K:0(1,p=t+١,s=1)",
                "K:0(1,p=t+1,s=+1)", "K:0(1,p=t+1,s=١)", "K:0(1,p=t+1,s=1_0)"]:
        with pytest.raises(ParseError):
            parse_tag(bad, F2)


def test_invalid_tags_rejected():
    with pytest.raises(InvalidTag):
        canon_rep(IndecompTag("F", "I", 1), F2)  # folded into the p = t-1 family
    with pytest.raises(InvalidTag):
        canon_rep(IndecompTag("S", "V", 1), F2)
    with pytest.raises(InvalidTag):
        canon_rep(IndecompTag("K", "I", 0), F2)
    with pytest.raises(InvalidTag):
        canon_rep(IndecompTag("LinRel1", "III", 0), F2)
    with pytest.raises(InvalidTag):  # p = t is excluded everywhere
        canon_rep(IndecompTag("K", "Zero", 1, Poly.t(F2), 1), F2)
    with pytest.raises(InvalidTag):  # n must equal s*deg p
        canon_rep(IndecompTag("K", "Zero", 3, parse_poly(F2, "t+1"), 2), F2)
    with pytest.raises(InvalidTag):  # polynomial on a string type
        canon_rep(IndecompTag("K", "II", 1, parse_poly(F2, "t+1"), 1), F2)
    with pytest.raises(InvalidTag):
        canon_rep(IndecompTag("F", "Inj1", 2), F2)


# -- frozen shapes and entries ---------------------------------------------


def test_injective_dims():
    assert canon_rep(IndecompTag("F", "Inj1"), F2).dims == (0, 1, 0, 0, 0)
    assert canon_rep(IndecompTag("F", "Inj4"), F2).dims == (0, 0, 0, 0, 1)


def test_kronecker_ii_zero_dims():
    assert canon_rep(IndecompTag("K", "II", 0), F2).dims == (1, 0)


def test_poly_family_allows_t_minus_one():
    p = parse_poly(F3, "t+2")  # t - 1 over F_3
    rep = canon_rep(IndecompTag("F", "Zero", 2, p, 2), F3)
    assert rep.dims == (4, 2, 2, 2, 2)
    verdict = is_indecomposable(rep)
    assert verdict and verdict.certified


def test_nhat_frozen_example():
    p = parse_poly(F2, "t^2+t+1")
    rep = nhat(p, 1)
    assert rep.dims == (4, 2, 2, 2, 2)
    delta = rep.mat("delta")
    assert [[delta.entry(i, j) for j in range(2)] for i in range(2)] == [
        [0, 1],
        [1, 1],
    ]
    assert [[delta.entry(i + 2, j) for j in range(2)] for i in range(2)] == [
        [1, 0],
        [0, 1],
    ]


def test_nhat_rational_unipotent():
    with pytest.warns(UserWarning):
        rep = nhat(parse_poly(QQ, "t-1"), 1)
    assert rep.dims == (2, 1, 1, 1, 1)
    assert rep.mat("delta").entry(0, 0) == 1


def test_nhat_warns_on_special_moduli():
    for text in ["t", "t+1"]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            nhat(parse_poly(F2, text), 2)
        assert len(caught) == 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        nhat(parse_poly(F2, "t^2+t+1"), 1)
    assert not caught


def test_nhat_rejects_reducible():
    with pytest.raises(ReducibleModulus):
        nhat(parse_poly(F2, "t^2+1"), 1)


def test_dims_tables():
    for field in (F2, F3):
        for category in CATEGORIES:
            for tag in all_tags(category, field, max_n=4, max_deg=2, max_size=4):
                obj = canon_rep(tag, field)
                want = _SHAPES[(category, tag.type_name)](tag.n)
                if category in ("F", "S", "D", "K", "C"):
                    assert obj.dims == want, tag
                elif category == "LinRel1":
                    assert (obj.dim1, obj.rel_dim) == want, tag
                    assert obj.dim1 == obj.dim2
                else:
                    got = (obj.dim1, obj.dim2, obj.basis1.cols, obj.basis2.cols)
                    assert got == want, tag


# -- indecomposability -------------------------------------------------------


@pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
@pytest.mark.parametrize("category", ["F", "S", "D", "K", "C"])
def test_canonical_quiver_reps_indecomposable(category, field):
    for tag in all_tags(category, field, max_n=3, max_deg=2, max_size=3):
        verdict = is_indecomposable(canon_rep(tag, field))
        assert verdict and verdict.certified, tag


@pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
@pytest.mark.parametrize("category", ["LinRel1", "PairRel"])
def test_canonical_relations_indecomposable(category, field):
    index = 5 if category == "LinRel1" else 6
    for tag in all_tags(category, field, max_n=3, max_deg=2, max_size=3):
        embedded = apply_functor(index, canon_rep(tag, field))
        verdict = is_indecomposable(embedded)
        assert verdict and verdict.certified, tag


@pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
def test_type_v_families_small_end_rings(field):
    # the two one-space-per-arm families are the delicate transcriptions:
    # pin the endomorphism rings as well
    for n in range(4):
        assert end_dim(canon_rep(IndecompTag("F", "V", n), field)) == 1
        assert end_dim(canon_rep(IndecompTag("F", "VStar", n), field)) == 1


# -- distinctness ------------------------------------------------------------


@pytest.mark.parametrize("category", CATEGORIES)
def test_canonical_reps_pairwise_distinct(category):
    tags = all_tags(category, F2, max_n=2, max_deg=2, max_size=2)
    objs = [(tag, canon_rep(tag, F2)) for tag in tags]
    for i, (tag_a, a) in enumerate(objs):
        for tag_b, b in objs[i + 1 :]:
            if category in ("F", "S", "D", "K", "C"):
                same = is_isomorphic(a, b)
            elif category == "LinRel1":
                same = lrel_is_isomorphic(a, b)
            else:
                same = rel_is_isomorphic(a, b)
            assert not same, (tag_a, tag_b)


def test_kronecker_variants_not_isomorphic():
    one = canon_rep(IndecompTag("K", "I", 2), F2)
    two = canon_rep(IndecompTag("K", "I_second_variant", 2), F2)
    assert not is_isomorphic(one, two)
    assert str(classify_indecomposable(two)) == "K:I2(2)"


def test_rational_c_variants_not_isomorphic():
    one = canon_rep(parse_tag("C:I(1)", QQ), QQ)
    two = canon_rep(parse_tag("C:I2(1)", QQ), QQ)
    assert not is_isomorphic(one, two)
    # hom dimensions all agree (4/4/4), so the answer comes from matching
    # the Krull-Schmidt pieces
    assert not is_isomorphic(direct_sum(one, one), direct_sum(two, one))
    conjugated = random_conjugate(two, random.Random(5))
    assert classify(conjugated) == [(parse_tag("C:I2(1)", QQ), 1)]


# -- classification ----------------------------------------------------------


@pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
@pytest.mark.parametrize("category", CATEGORIES)
def test_classify_recovers_every_tag(category, field):
    for tag in all_tags(category, field, max_n=2, max_deg=2, max_size=2):
        obj = canon_rep(tag, field)
        assert classify(obj) == [(tag, 1)], tag


def test_classify_spot_checks_n3():
    for text in ["F:V(3)", "F:IV*(3)", "S:II(3)", "K:III(3)", "D:I(3)"]:
        tag = parse_tag(text, F3)
        assert classify(canon_rep(tag, F3)) == [(tag, 1)]


def test_classify_conjugated_sum_with_multiplicity():
    t_plus_1 = parse_poly(F2, "t+1")
    zero_tag = IndecompTag("F", "Zero", 1, t_plus_1, 1)
    ii_tag = IndecompTag("F", "II", 1)
    total = direct_sum(
        canon_rep(zero_tag, F2), canon_rep(ii_tag, F2), canon_rep(ii_tag, F2)
    )
    twisted = random_conjugate(total, random.Random(11))
    assert classify(twisted) == [(zero_tag, 1), (ii_tag, 2)]


def test_classify_arm_permuted_reps():
    # the tables are complete only up to arm permutation; the classifier
    # must absorb the permuted variants
    base = canon_rep(IndecompTag("F", "III", 1), F2)
    for perm in [(1, 0, 2, 3), (3, 2, 1, 0), (1, 2, 3, 0)]:
        tags = classify(arm_permute(base, perm))
        assert len(tags) == 1 and tags[0][1] == 1
        assert tags[0][0].type_name in ("III", "IIIStar")


def test_classify_coinciding_pair_configuration():
    # four lines in the plane, two of them equal: a permuted member of the
    # p = t-1 polynomial family
    one = Matrix.from_rows(F2, [[1], [0]])
    two = Matrix.from_rows(F2, [[0], [1]])
    diag = Matrix.from_rows(F2, [[1], [1]])
    rep = QuiverRep(
        F2,
        QUIVERS["F"],
        (2, 1, 1, 1, 1),
        {"alpha": one, "beta": two, "gamma": diag, "delta": one},
    )
    tags = classify(rep)
    assert [(str(t), m) for t, m in tags] == [("F:0(1,p=t+1,s=1)", 1)]


def test_classify_source_vertex_simples():
    # simples at the two source vertices of the seesaw quiver: only one of
    # the pair appears verbatim in the table; the other is its swap
    zero_col = Matrix.zeros(F2, 0, 1)
    zero_sq = Matrix.zeros(F2, 0, 0)
    simple3 = QuiverRep(
        F2,
        QUIVERS["S"],
        (0, 0, 1, 0),
        {"alpha": zero_col, "beta": zero_col, "gamma": zero_sq, "delta": zero_sq},
    )
    assert str(classify_indecomposable(simple3)) == "S:IV*(0)"
    simple4 = QuiverRep(
        F2,
        QUIVERS["S"],
        (0, 0, 0, 1),
        {"alpha": zero_sq, "beta": zero_sq, "gamma": zero_col, "delta": zero_col},
    )
    assert str(classify_indecomposable(simple4)) == "S:IV*(0)"


def test_classify_inverse_relation():
    # relation inversion is a symmetry the one-relation table quotients out;
    # the inverted nilpotent graph lands on the first permutation-equivalent
    # table entry, which is the unipotent member of the polynomial family
    graph = canon_rep(IndecompTag("LinRel1", "I", 2), F2)
    inverted = rel_inverse(graph)
    assert not lrel_is_isomorphic(graph, inverted)
    assert str(classify_indecomposable(inverted)) == "LinRel1:0(2,p=t+1,s=2)"


def test_stage_two_builds_only_permutations_of_matching_dims(monkeypatch):
    # stage two compares a permutation's dims with the shape's embedded dims
    # before it builds the permuted representative, so every one it builds
    # has the object's embedded dims and goes on to in_image; the PairRel
    # (1,2) classes over F2 reach stage two with arms of unequal dims
    reps = [
        c.representative
        for c in census("PairRel", F2, (1, 2)).classes
        if c.indecomposable
    ]
    expected = [classify_indecomposable(rep) for rep in reps]
    built, pulled = [], set()

    def recording_arm_permute(rep, perm):
        built.append(arm_permute(rep, perm))
        return built[-1]

    def recording_in_image(i, v):
        pulled.add(id(v))
        return in_image(i, v)

    monkeypatch.setattr(canon, "arm_permute", recording_arm_permute)
    monkeypatch.setattr(canon, "in_image", recording_in_image)
    canon._pulled_back.cache_clear()
    count = 0
    for rep, tag in zip(reps, expected):
        built.clear()
        assert classify_indecomposable(rep) == tag
        dims = _embedded_dims("PairRel", canon._object_shape("PairRel", rep))
        assert all(b.dims == dims and id(b) in pulled for b in built)
        count += len(built)
    assert count


@pytest.mark.parametrize(
    "category,shape",
    [("F", (3, 2, 2, 1, 1)), ("F", (2, 1, 1, 1, 0)), ("S", (2, 1, 2, 1)),
     ("D", (2, 1, 1)), ("LinRel1", (3, 3)), ("PairRel", (1, 2, 1, 1)),
     ("PairRel", (1, 2, 2, 1))],
)
def test_every_trial_entry_has_the_shape(category, shape):
    # stage two's pullbacks are objects of the category with the shape they
    # are matched against, whatever the permutation: a pullback through the
    # permutation rather than its inverse has the wrong dims at PairRel
    # (1,2,2,1)
    for field in (F2, F3):
        entries = [e for _, e in canon.table_trials(category, shape, field)]
        assert len(entries) > len(canon._tags_for_shape(category, shape, field, None))
        assert all(canon._object_shape(category, e) == shape for e in entries)


# candidate (p, 1) pairs over Q for the F:0(2,p=t^2+1,s=1) entry under arm
# permutations, which move the parameter by the Moebius maps permuting
# 0, 1 and infinity: t^2+1 (roots +-i), t^2-2t+2 (1+-i), t^2-t+1/2 ((1+-i)/2)
_Q_CANDIDATES = [(parse_poly(QQ, p), 1) for p in ("t^2+1", "t^2-2t+2", "t^2-t+1/2")]


def _relation_conjugate(obj, rng):
    return _from_rep(random_conjugate(_as_rep(obj), rng))


def symmetric_variants(field, rng):
    """Objects the tables name only up to a symmetry of the ambient, each in
    a random basis: arm-permuted F representatives, inverted LinRel1 entries
    and PairRel entries with their two relations swapped."""
    if field == QQ:
        family = parse_poly(QQ, "t^2+1")
        tags = {
            category: [t for t in all_tags(category, F2, max_n=1) if t.poly is None]
            + [IndecompTag(category, "Zero", 2, family, 1)]
            for category in ("F", "LinRel1", "PairRel")
        }
    else:
        tags = {
            "F": all_tags("F", field, max_n=1, max_deg=1),
            "LinRel1": all_tags("LinRel1", field, max_n=2, max_deg=2),
            "PairRel": all_tags("PairRel", field, max_n=1, max_deg=1),
        }
    for tag in tags["F"]:
        perm = tuple(rng.sample(range(4), 4))
        yield random_conjugate(arm_permute(canon_rep(tag, field), perm), rng)
    for tag in tags["LinRel1"]:
        yield _relation_conjugate(rel_inverse(canon_rep(tag, field)), rng)
    for tag in tags["PairRel"]:
        pair = canon_rep(tag, field)
        swapped = PairRelObj(field, pair.dim1, pair.dim2, pair.basis2, pair.basis1)
        yield _relation_conjugate(swapped, rng)


@pytest.mark.parametrize("field", [F2, F3, GF(5), QQ], ids=["F2", "F3", "F5", "Q"])
def test_symmetric_variants_match_by_the_embedded_rule(field):
    # an independent oracle for matching inside the category: the tag's
    # embedded representative is isomorphic to some arm permutation of the
    # object's embedding
    candidates = _Q_CANDIDATES if field == QQ else None
    count = 0
    for obj in symmetric_variants(field, random.Random(25)):
        category = canon._category_of(obj)
        tag = classify_indecomposable(obj, candidates)
        embedded = obj if category == "F" else apply_functor(canon._FUNCTOR_OF[category], obj)
        target = _embedded_canon(tag, field)
        assert any(
            is_isomorphic(arm_permute(embedded, perm), target)
            for perm in itertools.permutations(range(4))
        ), (str(tag), obj)
        count += 1
    assert count >= 20


def test_classify_over_rationals_needs_candidates():
    p = parse_poly(QQ, "t^2+1")
    rep = canon_rep(IndecompTag("K", "Zero", 2, p, 1), QQ)
    tags = classify(rep, candidates=[(p, 1), (parse_poly(QQ, "t+1"), 2)])
    assert [(str(t), m) for t, m in tags] == [("K:0(2,p=t^2+1,s=1)", 1)]


def test_classify_zero_object_is_empty():
    assert classify(QuiverRep.zero(F2, QUIVERS["K"])) == []


def test_classify_relation_objects_roundtrip():
    for text in ["LinRel1:II(2)", "LinRel1:III(2)", "PairRel:IV(1)", "PairRel:0(1,p=t+1,s=1)"]:
        tag = parse_tag(text, F2)
        obj = canon_rep(tag, F2)
        assert classify(obj) == [(tag, 1)]


# -- arm permutation ---------------------------------------------------------


def test_arm_permute_composition_and_identity():
    rep = canon_rep(IndecompTag("F", "II", 1), F3)
    assert arm_permute(rep, (0, 1, 2, 3)) == rep
    p1, p2 = (1, 2, 3, 0), (2, 0, 3, 1)
    composed = tuple(p1[i] for i in p2)
    assert arm_permute(arm_permute(rep, p1), p2) == arm_permute(rep, composed)
    # arm_permute builds its result unchecked; validate re-checks every one
    for perm in itertools.permutations(range(4)):
        permuted = arm_permute(rep, perm)
        validate(permuted)
        assert permuted.dims == (rep.dims[0],) + tuple(rep.dims[1 + p] for p in perm)
        assert permuted.mats == tuple(rep.mat(("alpha", "beta", "gamma", "delta")[p]) for p in perm)


def test_arm_permute_conjugate_still_classifies():
    tag = IndecompTag("F", "IV", 1)
    rep = random_conjugate(arm_permute(canon_rep(tag, F3), (3, 1, 0, 2)), random.Random(5))
    got = classify(rep)
    assert len(got) == 1
    assert got[0][0].type_name in ("IV", "IVStar")


@pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
def test_embedded_total_matches_embedding(field):
    """_embedded_dims reads the S-dims table of functors; it must agree with
    the embedded canonical object for every tag, family tags included."""
    for category in CATEGORIES:
        for tag in all_tags(category, field, max_n=3, max_deg=2, max_size=3):
            shape = _SHAPES[(category, tag.type_name)](tag.n)
            want = _embedded_canon(tag, field)
            assert _embedded_dims(category, shape) == want.dims, tag


# -- images of canonical objects ---------------------------------------------


@pytest.mark.parametrize(
    "category,index",
    [("S", 1), ("D", 2), ("K", 3), ("C", 4), ("LinRel1", 5), ("PairRel", 6)],
)
def test_embedded_canonical_objects_pass_image_test(category, index):
    for tag in all_tags(category, F2, max_n=2, max_deg=2, max_size=2):
        embedded = apply_functor(index, canon_rep(tag, F2))
        result = in_image(index, embedded)
        assert result.contained, tag
