import ast
import importlib
import pkgutil
import re
import sys
from functools import cached_property
from pathlib import Path
from types import FunctionType

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


# modules whose attributes are never fchsim's members, though they share names
_FOREIGN = {"np", "numpy", "math"}


def _referenced_names(paths):
    """The identifiers the given files use, and the attributes they access.

    The first set holds every AST Name and Attribute; the second only the
    attributes accessed on something other than a module in ``_FOREIGN``.
    """
    names, attributes = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
                if not (isinstance(node.value, ast.Name) and node.value.id in _FOREIGN):
                    attributes.add(node.attr)
    return names, attributes


def test_one_implementation_per_operator():
    # grid._dot is the one grid reduction, and potential's kernels the one
    # place the logarithms of beta and B are taken
    homes = {"vdot": "grid.py", "log1p": "potential.py"}
    package = Path(fchsim.__file__).parent
    uses = [
        (node.attr, path.name)
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in homes
    ]
    assert {attr for attr, _ in uses} == set(homes)
    strays = [f"{attr} in {name}" for attr, name in uses if name != homes[attr]]
    assert not strays, f"operators implemented outside their home module: {strays}"


def test_each_range_and_norm_is_read_in_one_place():
    # potential._sup is the one reading of max |f| and forms no |f| field,
    # and psd_solve takes its l2 norms from grid.norm
    package = Path(fchsim.__file__).parent
    absolutes = [
        path.name
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "abs"
    ]
    assert not absolutes, f"abs attribute accessed in {absolutes}"
    solve = _function("solver", "psd_solve")
    sqrts = [n for n in ast.walk(solve)
             if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "sqrt"]
    assert not sqrts, "psd_solve takes a square root itself"
    readers = [("potential", "admissible"), ("potential", "require_admissible"),
               ("solver", "admissible_step_cap"), ("solver", "psd_solve")]
    for module, name in readers:
        named = {n.id for n in ast.walk(_function(module, name)) if isinstance(n, ast.Name)}
        assert "_sup" in named, f"{module}.{name} does not read the range with _sup"


def test_each_state_is_evaluated_in_one_place():
    # the step computes var_concave(phi_n) and hands it to the solve, and
    # energy_total builds its stencils only through linear_terms
    package = Path(fchsim.__file__).parent
    solver = ast.walk(ast.parse((package / "solver.py").read_text()))
    named = {getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None)
             for n in solver if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}
    assert "var_concave" not in named
    tree = ast.parse((package / "energy.py").read_text())
    (body,) = [n for n in tree.body if getattr(n, "name", None) == "energy_total"]
    called = {
        getattr(node.func, "id", getattr(node.func, "attr", None))
        for node in ast.walk(body)
        if isinstance(node, ast.Call)
    }
    stencils = {"face_diff", "laplacian", "cell_avg", "_avg_sq"}
    assert not called & stencils, f"energy_total calls {called & stencils}"
    assert "linear_terms" in called


def test_each_iterate_builds_its_terms_in_one_place():
    # linear_terms alone writes the stencil arrays of LinearTerms, so no
    # terms are moved from one state to another in place, and psd_solve
    # takes every iterate's terms from it
    stencil = {"bilap", "dphi", "gsq"}
    package = Path(fchsim.__file__).parent
    writes = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        builder = {n for top in tree.body if getattr(top, "name", None) == "linear_terms"
                   for n in ast.walk(top)}
        for node in ast.walk(tree):
            if isinstance(node, ast.AugAssign):
                targets = [node.target]
            elif isinstance(node, ast.Assign):
                targets = [t for target in node.targets for t in ast.walk(target)
                           if isinstance(t, (ast.Attribute, ast.Subscript))]
            elif isinstance(node, ast.keyword) and node.arg == "out":
                targets = [node.value]
            else:
                continue
            named = {getattr(n, "id", None) or getattr(n, "attr", None)
                     for target in targets for n in ast.walk(target)}
            if named & stencil and node not in builder:
                writes.append(f"{path.name}:{node.lineno}")
    assert not writes, f"stencil terms written in place outside linear_terms: {writes}"
    sources = [n.value for n in ast.walk(_function("solver", "psd_solve"))
               if isinstance(n, ast.Assign)
               and any(getattr(t, "id", None) == "terms" for t in n.targets)]
    built = [isinstance(v, ast.Call) and getattr(v.func, "id", None) == "linear_terms"
             for v in sources]
    assert built and all(built), "psd_solve takes terms from elsewhere than linear_terms"


def _function(module: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((Path(fchsim.__file__).parent / f"{module}.py").read_text())
    (body,) = [n for n in tree.body if getattr(n, "name", None) == name]
    return body


def test_each_decision_is_made_in_one_place():
    # mu subtracts the derivatives the step hands it; the time loop halves dt
    # in one place; the step cap needs no d == 0 patch; the output directory
    # is made with its manifest; rhs_explicit alone checks the solve's dt
    named = {n.id for n in ast.walk(_function("energy", "chemical_potential"))
             if isinstance(n, ast.Name)}
    assert not named & {"var_convex", "var_concave"}
    halvings = [n for n in ast.walk(_function("dynamics", "_advance"))
                if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Div)]
    assert len(halvings) == 1
    cap = {getattr(n, "attr", None) for n in ast.walk(_function("solver", "admissible_step_cap"))}
    assert not cap & {"where", "inf"}
    cli = ast.parse((Path(fchsim.__file__).parent / "cli.py").read_text())
    manifests = [n for n in ast.walk(cli)
                 if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "write_manifest"]
    assert len(manifests) == 1
    compared = {getattr(n.left, "id", None) for n in ast.walk(_function("solver", "psd_solve"))
                if isinstance(n, ast.Compare)}
    assert "dt" not in compared


def test_each_piece_of_run_state_has_one_owner():
    # the trajectory object owns what the time loop carries between attempts,
    # so _advance stores none of it; cmd_run saves step 0 and, in its sink,
    # every later snapshot; the beta kernels alone check a derivative's domain
    carried = {"t_run", "dt_run", "k", "states", "gaps", "order", "seed", "concave",
               "prev_total", "mass_ref", "records"}
    stored = {getattr(n, "id", None) or getattr(n, "attr", None)
              for n in ast.walk(_function("dynamics", "_advance"))
              if isinstance(getattr(n, "ctx", None), ast.Store)}
    assert not stored & carried, f"_advance stores {stored & carried}"
    run = _function("cli", "cmd_run")
    (sink,) = [n for n in ast.walk(run) if getattr(n, "name", None) == "sink"]
    saves = [len([n for n in ast.walk(body) if isinstance(n, ast.Call)
                  and getattr(n.func, "id", None) == "save"]) for body in (run, sink)]
    assert saves == [2, 1]
    for name in ("var_convex", "var_concave"):
        called = {getattr(n.func, "id", None) for n in ast.walk(_function("energy", name))
                  if isinstance(n, ast.Call)}
        assert "require_admissible" not in called, name


def test_every_import_of_the_suite_is_declared():
    # tests/ and perfbench/ import only the standard library, the
    # repository's own modules, and the dependencies and test extra
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", req).group().lower().replace("-", "_")
                for req in project["dependencies"] + project["optional-dependencies"]["test"]}
    files = sorted((root / "tests").rglob("*.py")) + sorted((root / "perfbench").rglob("*.py"))
    own = {"fchsim"} | {path.stem for path in files}
    imported = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    undeclared = imported - set(sys.stdlib_module_names) - own - declared
    assert not undeclared, f"imported but not declared in pyproject.toml: {undeclared}"


def _public_members(cls):
    """The public methods and properties a class defines; dataclass fields are data."""
    fields = getattr(cls, "__dataclass_fields__", {})
    kinds = (FunctionType, classmethod, staticmethod, property, cached_property)
    return [
        name
        for name, member in vars(cls).items()
        if not name.startswith("_") and name not in fields and isinstance(member, kinds)
    ]


def test_every_public_name_has_a_caller():
    # a public name, or a public method or property of a public class, earns
    # its place by a use in the program or its benchmark; the package
    # re-exports and the tests do not count.  A member counts only where it
    # is accessed as an attribute, and not on numpy or math: np.zeros is no
    # use of Grid.zeros, nor a variable named line one of Grid.line
    package = Path(fchsim.__file__).parent
    sources = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    bench = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
    used, accessed = _referenced_names(sources + bench)
    uncalled = []
    for name in MODULES:
        mod = importlib.import_module(name)
        for public in mod.__all__:
            obj = getattr(mod, public)
            members = _public_members(obj) if isinstance(obj, type) else []
            uncalled += [f"{name}.{public}.{m}" for m in members if m not in accessed]
            if public not in used:
                uncalled.append(f"{name}.{public}")
    assert not uncalled, f"public names nothing in src or perfbench uses: {uncalled}"
