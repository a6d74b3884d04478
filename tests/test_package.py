"""The package's public names: every module's ``__all__`` lists only names it defines."""

import importlib
import pkgutil

import pytest

import distillab

MODULES = [importlib.import_module(f"distillab.{m.name}") for m in pkgutil.iter_modules(distillab.__path__)]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__.rsplit(".", 1)[1]
)
def test_every_name_in_all_exists_and_star_import_works(module):
    """A name deleted from a module but left in its ``__all__`` fails here, and so does ``import *``."""
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    assert set(module.__all__) <= set(namespace)
