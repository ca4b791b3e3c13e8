"""Module boundaries, read from the sources' import statements and top-level definitions."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "multischmidt"
# every module but __init__, each importing only modules before it
ORDER = [
    "errors",
    "seeding",
    "core",
    "partitions",
    "bipartite",
    "states",
    "loci",
    "number",
    "coefficients",
    "cli",
    "__main__",
]
# where each exact-locus helper and the shared state helpers live
HOMES = {
    "loci": [
        "_PROBES",
        "CKW_FLOOR",
        "CKW_MARGIN",
        "_SIGMA_Y",
        "_SPIN_FLIP",
        "_pencil_drops",
        "_homogeneous_eigvals",
        "_polar",
        "_det_line",
        "_pair_concurrences",
        "_ckw_polynomials",
        "_ckw_form",
        "_ckw_zeros",
        "_deflate",
        "_qubit_pencil_products",
        "_max_concurrence_directions",
    ],
    "core": ["_unit_state"],
    "partitions": ["_reduction_profiles"],
}


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text())


def _imports(module: str) -> list[tuple[str, tuple[str, ...]]]:
    """(imported module, imported names) per import; a relative module keeps its leading dots.

    ``from . import core`` imports the sibling module ``.core`` itself.
    """
    out = []
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Import):
            out.extend((alias.name, ()) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            out.extend(("." * node.level + alias.name, ()) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            source = "." * node.level + node.module
            out.append((source, tuple(alias.name for alias in node.names)))
    return out


def _defined(module: str) -> set[str]:
    """The names a module's top level defines: functions, classes and assigned names."""
    names = set()
    for node in _tree(module).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_order_lists_every_module():
    assert sorted(ORDER) == sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")


@pytest.mark.parametrize("module", ORDER)
def test_relative_imports_point_to_earlier_modules(module):
    """Imports inside functions count too: no module calls back into a later one."""
    targets = {source.lstrip(".").split(".")[0] for source, _ in _imports(module) if source.startswith(".")}
    assert targets <= set(ORDER[: ORDER.index(module)])


def test_bipartite_imports_only_core():
    assert {source for source, _ in _imports("bipartite") if source.startswith(".")} == {".core"}


def test_loci_imports_only_numpy_scipy_and_core():
    """Besides the annotation aids __future__ and typing, loci needs only array algebra."""
    sources = {source for source, _ in _imports("loci")}
    roots = {s if s.startswith(".") else s.split(".")[0] for s in sources}
    assert roots <= {"__future__", "typing", "numpy", "scipy", ".core"}


def test_coefficients_take_only_the_engine_from_number():
    taken = sorted(name for source, names in _imports("coefficients") if source == ".number" for name in names)
    assert taken == ["DEFAULT_BUDGET", "EIGEN_WEIGHT_FLOOR", "SearchBudget", "_Engine"]


def test_coefficients_ask_the_engine_few_questions():
    """No product route or search stage of its own: ensemble questions go through find_ensemble."""
    used = {
        node.attr
        for node in ast.walk(_tree("coefficients"))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "engine"
    }
    assert used <= {
        "structure", "pure_value", "_eigen_elements", "_ppt_stage", "find_ensemble", "tol", "budget"
    }


@pytest.mark.parametrize("home, name", [(home, n) for home, names in HOMES.items() for n in names])
def test_each_helper_is_defined_in_its_home_alone(home, name):
    owners = [path.stem for path in sorted(SRC.glob("*.py")) if name in _defined(path.stem)]
    assert owners == [home]


def _optimizer_imports(module: str) -> list[tuple[int, bool]]:
    """(line, inside a function body) of each import of scipy.optimize in ``module``."""
    tree = _tree(module)
    in_functions = {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
    }
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(alias.name.startswith("scipy.optimize") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            hit = source.startswith("scipy.optimize") or (
                source == "scipy" and any(alias.name == "optimize" for alias in node.names)
            )
        else:
            continue
        if hit:
            out.append((node.lineno, id(node) in in_functions))
    return out


@pytest.mark.parametrize("module", sorted(path.stem for path in SRC.glob("*.py")))
def test_only_core_imports_the_optimizer_and_only_on_use(module):
    """scipy.optimize loads at the first NNLS or search, through core's entry points."""
    found = _optimizer_imports(module)
    assert all(inside for _, inside in found)
    assert bool(found) == (module == "core")


def _svd_calls(module: str) -> list[int]:
    """Lines of ``module`` that call ``linalg.svd`` (numpy's or scipy's) or import it by name."""
    lines = []
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("linalg.svd"):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            lines.extend(node.lineno for alias in node.names if alias.name == "svd")
    return lines


@pytest.mark.parametrize("module", sorted(path.stem for path in SRC.glob("*.py")))
def test_every_svd_goes_through_the_core_kernel(module):
    """Only core._svd calls linalg.svd; every other module reaches an SVD through it."""
    assert len(_svd_calls(module)) == (module == "core")
