import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checker():
    return _tool("unused_imports")


def test_unused_imports_flags_and_exemptions(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from typing import (\n"
        "    Optional,\n"
        "    Union,\n"
        ")\n"
        "from json import dumps  # noqa: F401\n"
        "from math import pi, tau\n"
        "__all__ = ['tau']\n"
        "def f(x: Optional[int]):\n"
        "    return os.sep\n"
    )
    assert _checker().unused_imports(source) == [(3, "osp"), (4, "Union"), (9, "pi")]


def test_package_has_no_unused_imports():
    # the same directories as the CI step
    checker = _checker()
    found = [
        (str(path.relative_to(ROOT)), line, name)
        for root in ("src/foursub", "tests", "tools", "perfbench")
        for path in sorted((ROOT / root).rglob("*.py"))
        for line, name in checker.unused_imports(path)
    ]
    assert found == []


def test_bench_pairs_summary_on_fixed_numbers():
    bench_pairs = _tool("bench_pairs")
    parent = [{"objects_per_s": v, "op_p50_ms": 10.0 - v, "failed": 0} for v in (1, 2, 3, 4, 5)]
    change = [{"objects_per_s": v, "op_p50_ms": 10.0 - v + 2, "failed": 0} for v in (9, 8, 7, 6, 2)]
    better = {"objects_per_s": "higher", "op_p50_ms": "lower"}
    bounds = {"objects_per_s": 0.25}
    rows = {row["metric"]: row for row in bench_pairs.summarize(parent, change, better, bounds)}
    assert rows["objects_per_s"] == {
        "metric": "objects_per_s", "pairs": 5, "parent": (2, 3, 4), "change": (6, 7, 8),
        "wins": 4, "parent_iqr": 2, "gain": False,  # 4 of 5 pairs is under nine tenths
        # quartile distances of 2 exceed the bound's margin, 0.25 * 3, and
        # the change's run of 2 loses to three parent runs
        "regression": False, "unresolved": True,
    }
    op = rows["op_p50_ms"]
    # a tie (6 against 6) is no win
    assert (op["parent"], op["change"], op["wins"], op["gain"]) == ((6, 7, 8), (4, 5, 6), 3, False)
    assert op["regression"] is None and op["unresolved"] is None  # no bound given
    assert rows["failed"]["wins"] is None and rows["failed"]["gain"] is None
    assert rows["failed"]["regression"] is None
    text = bench_pairs.format_summary([rows["objects_per_s"]])
    assert text.splitlines()[1] == (
        "objects_per_s: 3 (2-4) -> 7 (6-8), wins 4/5, parent iqr 2, gain no, "
        "regression no (unresolved)"
    )
    # a median worse than the parent's by more than the metric's bound
    # regresses: 111 against 100 breaches a 10% bound, 109 holds it
    rss = [{"peak_rss_mb": v} for v in (98, 99, 100, 101, 102)]
    lower, rss_bound = {"peak_rss_mb": "lower"}, {"peak_rss_mb": 0.1}
    breached = bench_pairs.summarize(rss, [{"peak_rss_mb": v + 11} for v in (98, 99, 100, 101, 102)],
                                     lower, rss_bound)[0]
    assert (breached["change"][1], breached["regression"]) == (111, True)
    assert breached["unresolved"] is None
    assert bench_pairs.format_summary([breached]).endswith("gain no, regression yes\n")
    held = bench_pairs.summarize(rss, [{"peak_rss_mb": v + 9} for v in (98, 99, 100, 101, 102)],
                                 lower, rss_bound)[0]
    assert (held["change"][1], held["regression"], held["unresolved"]) == (109, False, False)
    assert bench_pairs.format_summary([held]).endswith("gain no, regression no\n")
    # a spread wider than the bound: parent quartiles 80-120 against a
    # margin of 10, so a median within the bound is unresolved, not unchanged
    spread = [{"peak_rss_mb": v} for v in (60, 80, 100, 120, 140)]
    wide = bench_pairs.summarize(spread, [{"peak_rss_mb": v + 5} for v in (60, 80, 100, 120, 140)],
                                 lower, rss_bound)[0]
    assert (wide["regression"], wide["unresolved"]) == (False, True)
    assert bench_pairs.format_summary([wide]).endswith("regression no (unresolved)\n")
    # the same spread with every change run below every parent run is resolved
    below = bench_pairs.summarize(spread, [{"peak_rss_mb": v} for v in (50, 52, 54, 56, 58)],
                                  lower, rss_bound)[0]
    assert (below["regression"], below["unresolved"]) == (False, False)
    # directions and bounds as this repository's BENCHMARK.json states them
    better, bounds = bench_pairs.metric_specs(ROOT)
    assert (better["objects_per_s"], better["peak_rss_mb"]) == ("higher", "lower")
    assert (bounds["objects_per_s"], bounds["peak_rss_mb"]) == (0.25, 0.1)
    assert "matrices.rref.q.calls" in better and "matrices.rref.q.calls" not in bounds
    # five wins of five pairs are too few pairs for a gain
    won = bench_pairs.summarize(parent, [{"objects_per_s": v + 3} for v in (1, 2, 3, 4, 5)], better)
    assert won[0]["wins"] == 5 and won[0]["gain"] is False
    # ten pairs: parent iqr 4.5 (3.25-7.75), medians 5.5 -> 10.5
    parent = [{"objects_per_s": v, "failed": 0} for v in range(1, 11)]
    won = bench_pairs.summarize(parent, [{"objects_per_s": v + 5} for v in range(1, 11)], better)
    assert (won[0]["pairs"], won[0]["wins"], won[0]["parent_iqr"]) == (10, 10, 4.5)
    assert won[0]["gain"] is True
    # the same numbers gain nothing when a larger share of operations fails
    attempts = [dict(run, attempted=100) for run in parent]
    failing = [{"objects_per_s": v + 5, "attempted": 100, "failed": 1} for v in range(1, 11)]
    lost = {row["metric"]: row for row in bench_pairs.summarize(attempts, failing, better)}
    assert lost["objects_per_s"]["wins"] == 10 and lost["objects_per_s"]["gain"] is False
    # a change that attempts more at the parent's share of failures still gains
    attempts = [dict(run, failed=1) for run in attempts]
    more = [dict(run, attempted=200, failed=2) for run in failing]
    assert bench_pairs.summarize(attempts, more, better)[0]["gain"] is True
