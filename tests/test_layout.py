"""Static checks on the package layout, read from the source with ast."""
import ast
from pathlib import Path

import pytest

PKG = Path(__file__).resolve().parents[1] / "src" / "maxkernel"
MODULES = sorted(PKG.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _bound_names(tree) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for t in targets:
                names.update(n.id for n in ast.walk(t)
                             if isinstance(n, ast.Name))
    return names


def _all_names(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_all_names_exist(path):
    tree = _tree(path)
    missing = set(_all_names(tree)) - _bound_names(tree)
    assert not missing, f"{path.stem}.__all__ names undefined {missing}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_private_imports_only_from_piecewise(path):
    bad = []
    for node in ast.walk(_tree(path)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            source = node.module or ""
        elif (node.module or "").startswith("maxkernel."):
            source = node.module.split(".", 1)[1]
        else:
            continue
        if source == "_piecewise":
            continue
        bad += [f"{source}.{a.name}" for a in node.names
                if a.name.startswith("_")]
    assert not bad, f"{path.stem} imports private names {bad}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_imports_are_used(path):
    """Every imported name is read somewhere in the module, or re-exported
    through its __all__."""
    tree = _tree(path)
    imported = {(a.asname or a.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = imported - read - set(_all_names(tree))
    assert not unused, f"{path.stem} imports unused names {sorted(unused)}"


def _private_defs(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def _references(tree, skip=None) -> set:
    """Names loaded, attributes read and names imported in tree, outside
    the node skip."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_private_definitions_are_used(path):
    trees = {p: _tree(p) for p in MODULES}
    elsewhere = set().union(*(_references(t) for p, t in trees.items()
                              if p != path))
    unused = [d.name for d in _private_defs(trees[path])
              if d.name not in elsewhere
              and d.name not in _references(trees[path], skip=d)]
    assert not unused, f"{path.stem} defines unused private names {unused}"


SYMBOL_CLASSES = {"Step", "PiecewisePoly", "TrigPoly", "Sampled"}


def _isinstance_on_symbols(tree):
    """(enclosing top-level function, class) for every isinstance call whose
    class argument names a symbol class."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                continue
            names = {n.id for n in ast.walk(node.args[1])
                     if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node.args[1])
                      if isinstance(n, ast.Attribute)}
            found += [(getattr(top, "name", None), c)
                      for c in sorted(names & SYMBOL_CLASSES)]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_symbol_types_dispatched_only_in_symbols(path):
    """Symbol variants are told apart only where they lower to pieces;
    everything else reads the pieces.  The one exception passes a
    TrigPoly's own coefficients through exactly."""
    if path.stem == "symbols":
        return
    allowed = {("fourier_coeffs", "TrigPoly")} if path.stem == "matrixrep" \
        else set()
    bad = set(_isinstance_on_symbols(_tree(path))) - allowed
    assert not bad, f"{path.stem} dispatches on symbol classes: {bad}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_scipy_is_imported_only_by_its_lazy_module(path):
    """Only _scipy imports scipy, so it alone decides when each scipy
    subpackage loads."""
    if path.stem == "_scipy":
        return
    bad = [ast.unparse(node) for node in ast.walk(_tree(path))
           if isinstance(node, ast.Import)
           and any(a.name.partition(".")[0] == "scipy" for a in node.names)
           or isinstance(node, ast.ImportFrom) and not node.level
           and (node.module or "").partition(".")[0] == "scipy"]
    assert not bad, f"{path.stem} imports scipy: {bad}"
