"""Every public library name has a user: some code under ``src/`` refers to
it, or the acceptance suite does. A function kept alive only by its own
unit tests is dead weight, and this scan names it.
"""

import ast
from pathlib import Path

import vacantlab

SRC = Path(vacantlab.__file__).resolve().parent
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"

# Kept on purpose although only tests call them: independent oracles the
# unit tests check the fast paths against, and the typicality predicates,
# which are meant to become run telemetry.
ALLOWED = {"spectral_gap", "capacity_samples_direct", "sweep_records_from_csv", "typicality"}


def _public_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names.extend(item.name for item in node.body
                         if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))
    return names


def _referenced_names(tree: ast.AST) -> set[str]:
    """Names used as variables or attributes; strings, docstrings and
    import statements do not count."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def test_no_public_name_exists_only_for_unit_tests():
    defined = {}
    used = _referenced_names(ast.parse(ACCEPTANCE.read_text()))
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for name in _public_definitions(tree):
            defined.setdefault(name, path.name)
        used |= _referenced_names(tree)
    unused = sorted(f"{defined[name]}:{name}" for name in defined.keys() - used - ALLOWED)
    assert unused == []


def test_allowed_names_still_exist():
    defined = set()
    for path in SRC.glob("*.py"):
        defined.update(_public_definitions(ast.parse(path.read_text())))
    assert ALLOWED <= defined
