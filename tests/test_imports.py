"""Every module uses what it imports: an ast scan of the package and the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/spinmix/*.py"), *ROOT.glob("tests/*.py")])


def _unused_imports(tree: ast.Module) -> list:
    """Names bound by the module's imports that no expression of it reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a; "from m import x as y" binds y
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in bound.items() if name not in read)


def test_no_unused_imports():
    assert MODULES
    unused = {}
    for path in MODULES:
        if path.name == "__init__.py":      # its imports are the package's re-exports
            continue
        names = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            unused[str(path.relative_to(ROOT))] = names
    assert not unused, unused
