import importlib
import pkgutil

import pytest

import fchsim

MODULES = sorted(
    f"fchsim.{info.name}" for info in pkgutil.iter_modules(fchsim.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(name)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names undefined attributes {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(mod.__all__) <= set(namespace)


def test_package_reexports_public_names():
    namespace = {}
    exec("from fchsim import *", namespace)
    for name, obj in vars(fchsim).items():
        home = getattr(obj, "__module__", None)
        if name.startswith("_") or home is None or not home.startswith("fchsim."):
            continue
        assert name in namespace
        assert name in importlib.import_module(home).__all__, (
            f"fchsim.{name} is not in {home}.__all__"
        )
