"""Every module uses each name it imports.

Scans src/goalrba (except the re-exports of __init__.py), scripts and tests
with the stdlib ast module: a name bound by an import must be read somewhere
in the same module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    [p for p in (ROOT / "src" / "goalrba").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "scripts").glob("*.py"))
    + list((ROOT / "tests").glob("*.py"))
)


def unused_imports(source: str):
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_the_scan_finds_an_unused_import():
    source = "import os\nimport sys as system\nfrom a.b import c, d\nimport e.f\nprint(d, e)\n"
    assert unused_imports(source) == [(1, "os"), (2, "system"), (3, "c")]


def test_every_module_uses_each_name_it_imports():
    assert len(MODULES) > 20
    unused = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in MODULES
        for line, name in unused_imports(path.read_text())
    ]
    assert unused == []
