"""src/ holds only code that a run reaches: every top-level name has a caller outside the tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pairsieve"

# Names kept without a caller in src/, scripts/ or perfbench/.
EXEMPT_MODULES = {
    # The finite-difference gradient checker is the reference that the tests compare every hand-derived gradient against.
    "numerics",
}
EXEMPT_NAMES = {
    # The shared base config of the acceptance comparisons; README documents it for comparing arms.
    ("config", "comparison_config"),
}

_DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def _identifiers(node: ast.AST) -> set[str]:
    """Names that ``node`` uses: loads, attributes, imports and dotted-name strings such as trace targets."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.update(sub.name.split("."))
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and _DOTTED.fullmatch(sub.value):
            found.update(sub.value.split("."))
    return found


def _corpus() -> list[Path]:
    return sorted(SRC.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))


def unreached_names() -> list[str]:
    """Top-level defs and classes of src/pairsieve that nothing but their own definition refers to."""
    statements = []  # (path, index, identifiers) per top-level statement
    defined = []  # (module, name, path, index)
    for path in _corpus():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for i, stmt in enumerate(tree.body):
            statements.append((path, i, _identifiers(stmt)))
            if path.parent == SRC and isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.stem, stmt.name, path, i))
    unreached = []
    for module, name, path, index in defined:
        if module in EXEMPT_MODULES or (module, name) in EXEMPT_NAMES:
            continue
        if not any(name in ids for p, i, ids in statements if (p, i) != (path, index)):
            unreached.append(f"{module}.{name}")
    return unreached


def test_every_src_name_is_reached_outside_the_tests():
    assert unreached_names() == []


def private_imports() -> list[str]:
    """``module: name`` for each underscore name a module of src/pairsieve imports from another pairsieve module."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("pairsieve")):
                found += [f"{path.stem}: {alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_src_module_imports_another_modules_private_name():
    assert private_imports() == []
