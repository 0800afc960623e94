import ast
import importlib
import pkgutil
from pathlib import Path

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


def _referenced_names(paths):
    """Every identifier used as an AST Name or Attribute in the given files."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_has_a_caller():
    # a public name earns its place by a use in the program or its benchmark;
    # the package re-exports and the tests do not count
    package = Path(fchsim.__file__).parent
    sources = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    bench = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
    used = _referenced_names(sources + bench)
    uncalled = [
        f"{name}.{public}"
        for name in MODULES
        for public in importlib.import_module(name).__all__
        if public not in used
    ]
    assert not uncalled, f"public names nothing in src or perfbench uses: {uncalled}"
