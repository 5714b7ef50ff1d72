"""The recorded census reference agrees with theory and with the
benchmark's own object counts."""

import json

import pytest

import workloads


def reference(name):
    return json.loads(workloads.make(name).reference_path().read_text())["cells"]


@pytest.mark.parametrize("name,q", [("census_f2", 2), ("census_f3", 3)])
def test_totals_are_the_independent_counts(name, q):
    cells = reference(name)
    assert sorted(cells) == sorted(workloads.cell_key(c, d) for c, d in workloads.make(name).cells)
    for key, cell in cells.items():
        category, *dims = key.split()
        assert cell["total"] == workloads.object_count(category, q, tuple(map(int, dims))), key
        assert sum(size * n for _, size, n in cell["orbits"]) == cell["total"], key
        assert sum(n for _, _, n in cell["orbits"]) == cell["classes"], key


@pytest.mark.parametrize("name,q", [("census_f2", 2), ("census_f3", 3)])
def test_kronecker_has_q_plus_one_indecomposables(name, q):
    assert reference(name)["K 1 1"]["indecomposable"] == q + 1


def test_linrel1_class_counts():
    cells = reference("census_f2")
    assert [cells[f"LinRel1 {d}"]["classes"] for d in range(4)] == [1, 5, 21, 72]


@pytest.mark.parametrize("name", ["census_f2", "census_f3"])
def test_no_unmatched_class(name):
    for key, cell in reference(name).items():
        assert all(tag != "UNMATCHED" for tag, _, _ in cell["orbits"]), key
        indecomposable = sum(n for tag, _, n in cell["orbits"] if tag != "decomposable")
        assert indecomposable == cell["indecomposable"], key


def test_object_count_by_hand():
    assert workloads.gaussian_binomial(4, 2, 2) == 35
    assert workloads.object_count("K", 2, (1, 1)) == 4
    assert workloads.object_count("F", 3, (2, 1, 1, 1, 1)) == 3 ** 8
    assert workloads.object_count("LinRel1", 2, (1,)) == 5
    assert workloads.object_count("PairRel", 2, (1, 1)) == 25
