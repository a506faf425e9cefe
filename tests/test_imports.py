"""ast scans: every module uses what it imports, and the package what it defines."""

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


# read only from outside the package: the benchmark's draw, and the
# parity-diagonal moments that the closed-form tests check term by term
UNREAD_ALLOWED = ["chain_m11", "chain_m2", "draw_local_batch"]


def test_package_reads_what_it_defines():
    # a top-level function or class that no module of the package reads is
    # reached only by tests, which keep their reference code in oracles.py;
    # __init__'s re-exports do not count as reads
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in ROOT.glob("src/spinmix/*.py") if path.name != "__init__.py"]
    assert trees
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    defined = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert sorted(defined - read) == UNREAD_ALLOWED
