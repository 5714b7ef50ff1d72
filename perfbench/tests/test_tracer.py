"""The tracer accounts self time exactly, restores every binding it
replaced, and is not installed by an untraced run."""

import sys
import textwrap
import types

import pytest

import run
import tracer
import workloads
from layers import PER_LAYER, TARGETS
from tracer import Target, Tracer

SMALL_CELLS = 40  # the first census_f2 cells: K up to total dimension 4 and more


@pytest.fixture
def fakepkg():
    mod = types.ModuleType("fakepkg.mod")
    exec(textwrap.dedent("""
        import time

        def leaf(x):
            time.sleep(0.002)
            return x

        def outer():
            time.sleep(0.001)
            return leaf(1) + leaf(0)
    """), mod.__dict__)
    user = types.ModuleType("fakepkg.user")
    user.leaf = mod.leaf  # a copied binding, as `from .mod import leaf` makes
    modules = {"fakepkg": types.ModuleType("fakepkg"), "fakepkg.mod": mod, "fakepkg.user": user}
    sys.modules.update(modules)
    yield mod, user
    for name in modules:
        del sys.modules[name]


def test_self_times_of_a_nested_call_add_up_to_its_duration(fakepkg):
    mod, user = fakepkg
    originals = (mod.outer, mod.leaf)
    with Tracer("fakepkg", [Target("mod", "outer", "outer"), Target("mod", "leaf", "leaf", int)]) as t:
        mod.outer()
        user.leaf(7)
    assert (mod.outer, mod.leaf, user.leaf) == originals + (originals[1],)
    spans = t.spans()
    names = [spans.names[k] for k in spans.kind]
    assert names == ["outer", "leaf", "leaf", "leaf"]
    assert spans.parent.tolist() == [-1, 0, 0, -1]
    assert spans.outcome.tolist() == [-1, 1, 0, 7]
    own = spans.self_time()
    assert own[0] + own[1] + own[2] == pytest.approx(spans.duration[0], rel=1e-12, abs=1e-12)
    assert own[1:].tolist() == spans.duration[1:].tolist()
    assert own[0] >= 0.001 and min(spans.duration[1:]) >= 0.002


def installed_wrappers() -> list:
    """Every foursub binding (and Matrix method) that is a tracer wrapper."""
    from foursub.matrices import Matrix

    owners = [m for n, m in sys.modules.items() if n == "foursub" or n.startswith("foursub.")]
    found = []
    for owner in owners + [Matrix]:
        for key, value in list(vars(owner).items()):
            code = getattr(value, "__code__", None)
            if code is not None and code.co_filename == tracer.__file__:
                found.append(f"{owner.__name__}.{key}")
    return found


def small_census(cls=workloads.CensusWorkload):
    return cls("census_f2", 2, workloads.census_f2_cells()[:SMALL_CELLS], lambda c, d: c)


def bindings() -> dict:
    """Every name bound in a foursub module or on Matrix, with its object."""
    from foursub.matrices import Matrix

    owners = [m for n, m in sys.modules.items() if n == "foursub" or n.startswith("foursub.")]
    return {(owner.__name__, key): value for owner in owners + [Matrix] for key, value in vars(owner).items()}


def test_uninstall_restores_every_binding(tmp_path):
    from foursub import census, matrices
    from foursub.fields import GF

    before = bindings()
    with Tracer("foursub", TARGETS) as t:
        assert census.rref is matrices.rref is not before[("foursub.matrices", "rref")]
        census.census("K", GF(2), (1, 1))
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert census.rref is matrices.rref
    assert installed_wrappers() == []
    assert t.spans().counts["matrices.alloc"] > 0


def test_traced_runs_repeat_their_counts(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    counts = []
    for _ in range(2):
        measured, metrics, _ = run.traced(small_census(), 0, tmp_path)
        assert measured.failures == []
        assert list(metrics) == [name for name, _, _ in PER_LAYER]
        counts.append({k: v for k, (v, unit) in metrics.items() if unit in ("count", "ratio")})
    assert counts[0] == counts[1]
    assert counts[0]["census.iso.calls"] > 0 and counts[0]["matrices.alloc.calls"] > 0
    assert (tmp_path / "census_f2.spans.npz").is_file()
    assert installed_wrappers() == []


class Probe(workloads.CensusWorkload):
    def run(self, op):
        found = installed_wrappers()
        if found:
            return workloads.Failure(f"wrapped during an untraced run: {found}")
        return super().run(op)


def test_untraced_run_installs_no_wrapper(tmp_path):
    measured, metrics, _ = run.end_to_end(small_census(Probe), 0, 1, tmp_path)
    assert measured.failures == []
    assert list(metrics) == [name for name, _ in run.END_TO_END]
