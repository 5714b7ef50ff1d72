import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _checker():
    spec = importlib.util.spec_from_file_location(
        "unused_imports", ROOT / "tools" / "unused_imports.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
