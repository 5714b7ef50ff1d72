"""List module-level imports that a module never uses.

    python3 tools/unused_imports.py src/foursub

An import statement at module level binds names; a name counts as used when
the module reads it anywhere (a bare name or the base of an attribute
chain) or lists it in ``__all__``.  A line carrying ``# noqa: F401`` is
exempt, for bindings kept on purpose.  Prints one ``path:line: name`` per
unused binding and exits 1 when there is any.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def unused_imports(path: Path) -> list[tuple[int, str]]:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    bound = []  # (line, name)
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in lines[i - 1] for i in range(node.lineno, node.end_lineno + 1)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound.append((node.lineno, name))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                elt.value for elt in getattr(node.value, "elts", ())
                if isinstance(elt, ast.Constant)
            )
    return [(line, name) for line, name in bound if name not in used]


def main(argv: list[str]) -> int:
    roots = [Path(a) for a in argv] or [Path("src/foursub")]
    found = 0
    for root in roots:
        for path in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            for line, name in unused_imports(path):
                print(f"{path}:{line}: {name}")
                found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
