import ast
import inspect
from pathlib import Path

import hypercalc
from hypercalc.hyperops import EngineLimits


def test_every_export_resolves():
    missing = [name for name in hypercalc.__all__ if not hasattr(hypercalc, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(set(hypercalc.__all__)) == len(hypercalc.__all__)


def test_deleted_names_stay_gone():
    deleted = {"RenderStyle", "traversal_order", "rational_floor",
               "run", "HyperKind", "HyperRequest", "reduce", "low_op"}
    assert deleted.isdisjoint(hypercalc.__all__)


def test_settable_values_are_pinned():
    # every field is a value a caller can set; the work budgets are module
    # constants, so a new field here is a new option and needs this edit
    def names(cls):
        return list(inspect.signature(cls).parameters)

    assert names(hypercalc.NumericContext) == ["base", "digits", "guard_digits"]
    assert names(hypercalc.SeriesConfig) == ["target_error"]
    assert names(hypercalc.RootConfig) == ["x_tolerance"]
    assert names(EngineLimits) == []


def test_every_private_name_is_used_in_the_package():
    # a module-level _name that no code in the package reads is dead: a
    # helper or constant left behind when its caller went
    trees = [ast.parse(path.read_text()) for path in Path(hypercalc.__file__).parent.glob("*.py")]
    defined, loaded = set(), set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert sorted(private - loaded) == []


def test_every_local_name_is_read():
    # a local that is assigned and never read is dead: a value left behind
    # when its reader went.  `_` names are discarded on purpose, and a
    # `nonlocal` or `global` name is read in its own scope.
    dead = []
    for path in sorted(Path(hypercalc.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stored, declared, todo = set(), set(), list(fn.body)
            while todo:  # the function's own nodes: nested scopes store their own
                node = todo.pop()
                if isinstance(node, (ast.Nonlocal, ast.Global)):
                    declared.update(node.names)
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    stored.add(node.id)
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                                         ast.ClassDef)):
                    todo.extend(ast.iter_child_nodes(node))
            # a nested function's reads count: a closure reads its outer locals
            loaded = {node.id for node in ast.walk(fn)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            dead += [f"{path.stem}.{fn.name}: {name}" for name in sorted(stored - loaded - declared)
                     if not name.startswith("_")]
    assert dead == []
