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
    rows = {row["metric"]: row for row in bench_pairs.summarize(parent, change, better)}
    assert rows["objects_per_s"] == {
        "metric": "objects_per_s", "pairs": 5, "parent": (2, 3, 4), "change": (6, 7, 8),
        "wins": 4, "parent_iqr": 2, "gain": False,  # 4 of 5 pairs is under nine tenths
    }
    op = rows["op_p50_ms"]
    # a tie (6 against 6) is no win
    assert (op["parent"], op["change"], op["wins"], op["gain"]) == ((6, 7, 8), (4, 5, 6), 3, False)
    assert rows["failed"]["wins"] is None and rows["failed"]["gain"] is None
    text = bench_pairs.format_summary([rows["objects_per_s"]])
    assert text.splitlines()[1] == (
        "objects_per_s: 3 (2-4) -> 7 (6-8), wins 4/5, parent iqr 2, gain no"
    )
    won = bench_pairs.summarize(parent, [{"objects_per_s": v + 3} for v in (1, 2, 3, 4, 5)], better)
    assert won[0]["wins"] == 5 and won[0]["gain"] is True
    # the same numbers gain nothing when a larger share of operations fails
    attempts = [dict(run, attempted=100) for run in parent]
    failing = [{"objects_per_s": v + 3, "attempted": 100, "failed": 1} for v in (1, 2, 3, 4, 5)]
    lost = {row["metric"]: row for row in bench_pairs.summarize(attempts, failing, better)}
    assert lost["objects_per_s"]["wins"] == 5 and lost["objects_per_s"]["gain"] is False
    # a change that attempts more at the parent's share of failures still gains
    attempts = [dict(run, failed=1) for run in attempts]
    more = [dict(run, attempted=200, failed=2) for run in failing]
    assert bench_pairs.summarize(attempts, more, better)[0]["gain"] is True
