import importlib
import pkgutil

import pytest

import fermatcalc

# fermatcalc.__main__ runs the command line on import
MODULES = sorted(
    m.name
    for m in pkgutil.iter_modules(fermatcalc.__path__, "fermatcalc.")
    if m.name != "fermatcalc.__main__"
)


@pytest.mark.parametrize("name", ["fermatcalc", *MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
