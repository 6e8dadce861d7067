"""Export integrity: every public name a module lists must exist."""

import importlib
import pkgutil

import pytest

import serrin_torsion

MODULES = sorted(m.name for m in pkgutil.iter_modules(serrin_torsion.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module("serrin_torsion." + name)
    missing = [a for a in getattr(module, "__all__", ()) if not hasattr(module, a)]
    assert not missing, "stale __all__ entries: %s" % missing
    # a stale entry also breaks the star import, which raises AttributeError
    namespace = {}
    exec("from serrin_torsion.%s import *" % name, namespace)
    assert set(getattr(module, "__all__", ())) <= set(namespace)
