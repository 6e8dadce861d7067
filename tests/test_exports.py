"""Export integrity: every public name a module lists must exist, and the
package itself must use it."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import serrin_torsion

MODULES = sorted(m.name for m in pkgutil.iter_modules(serrin_torsion.__path__))
PACKAGE = pathlib.Path(serrin_torsion.__path__[0])


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module("serrin_torsion." + name)
    missing = [a for a in getattr(module, "__all__", ()) if not hasattr(module, a)]
    assert not missing, "stale __all__ entries: %s" % missing
    # a stale entry also breaks the star import, which raises AttributeError
    namespace = {}
    exec("from serrin_torsion.%s import *" % name, namespace)
    assert set(getattr(module, "__all__", ())) <= set(namespace)


def _identifiers(tree, skip=None):
    """Names, attributes and imported names used in tree, outside skip."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return out


@pytest.mark.parametrize("name", MODULES)
def test_public_names_used_by_the_package(name):
    """No library code that only tests call: every __all__ name is imported
    by another module of the package, or used in its own module outside its
    definition (raised, returned, subclassed, called by the pipeline)."""
    module = importlib.import_module("serrin_torsion." + name)
    trees = {m: ast.parse((PACKAGE / (m + ".py")).read_text()) for m in MODULES}
    own = {
        node.name: node
        for node in trees[name].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    others = set().union(
        *(_identifiers(tree) for m, tree in trees.items() if m != name)
    )
    unused = [
        a
        for a in getattr(module, "__all__", ())
        if a not in others
        and a not in _identifiers(trees[name], skip=own.get(a))
    ]
    assert not unused, "public names only tests use: %s" % unused
