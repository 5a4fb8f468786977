"""Every public library name has a user: some code under ``src/`` refers to
it, or the acceptance suite does. A function kept alive only by its own
unit tests is dead weight, and this scan names it.

Names are qualified: a module-level name as ``module.name`` and a method as
``module.Class.method``, so a method cannot hide a module function of the
same name. A module-level name counts as used when it is reached through
its module (``gw.sample_gw``), imported from it (``from .gw import
sample_gw``) or named inside its own module; a method counts as used when
any attribute of that name is read, since the receiver's class is not known.
"""

import ast
from pathlib import Path

import vacantlab

SRC = Path(vacantlab.__file__).resolve().parent
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"

# Kept on purpose although only tests call them: independent oracles the
# unit tests check the fast paths against, the adjacency accessor those
# oracles read graphs through, and the per-time labeller of one vacant set,
# which the benchmark's tracer (perfbench/tracer.py) wraps by name.
ALLOWED = {"walk.spectral_gap", "gw.capacity_samples_direct", "random_graph.Graph.neighbors",
           "walk.vacant_components"}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _public_definitions(module: str, tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            names.append(f"{module}.{node.name}")
        if isinstance(node, ast.ClassDef):
            names.extend(f"{module}.{node.name}.{item.name}" for item in node.body
                         if isinstance(item, ast.FunctionDef) and _public(item.name))
    return names


def _library_module(node: ast.ImportFrom, module: str | None) -> str | None:
    """The ``vacantlab`` module an import reads from, as a short name
    ('' for the package itself), or None for any other package."""
    if node.level == 1 and module is not None:
        return node.module or ""
    if node.module == "vacantlab":
        return ""
    if node.module and node.module.startswith("vacantlab."):
        return node.module.split(".", 1)[1]
    return None


def _references(tree: ast.Module, module: str | None = None) -> tuple[set[str], set[str]]:
    """Qualified module-level names this file uses, and every attribute
    name it reads. ``module`` is the file's own module name under ``src/``;
    strings, docstrings and the import statements themselves do not count."""
    module_alias, name_alias = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _library_module(node, module)
            if source is None:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if source == "":
                    module_alias[local] = alias.name
                else:
                    name_alias[local] = f"{source}.{alias.name}"
    used, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if node.id in name_alias:
                used.add(name_alias[node.id])
            elif module is not None:
                used.add(f"{module}.{node.id}")
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
            if isinstance(node.value, ast.Name) and node.value.id in module_alias:
                used.add(f"{module_alias[node.value.id]}.{node.attr}")
    return used, attrs


def _is_used(qualified: str, used: set[str], attrs: set[str]) -> bool:
    parts = qualified.split(".")
    return qualified in used if len(parts) == 2 else parts[-1] in attrs


def test_no_public_name_exists_only_for_unit_tests():
    defined = []
    used, attrs = _references(ast.parse(ACCEPTANCE.read_text()))
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined += _public_definitions(path.stem, tree)
        file_used, file_attrs = _references(tree, path.stem)
        used |= file_used
        attrs |= file_attrs
    unused = sorted(name for name in defined
                    if name not in ALLOWED and not _is_used(name, used, attrs))
    assert unused == []


def test_allowed_names_still_exist():
    defined = set()
    for path in SRC.glob("*.py"):
        defined.update(_public_definitions(path.stem, ast.parse(path.read_text())))
    assert ALLOWED <= defined

