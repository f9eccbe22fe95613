import ast
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import bchmin
from bchmin.solvers import UncoveredCase
from bchmin.verify import is_min_weight_affine

PUBLIC = {
    "GF2m",
    "default_field",
    "parse_poly",
    "affine_cubic_roots",
    "SolutionVector",
    "SolverReport",
    "f_j",
    "check_system",
    "solve_i2_even",
    "solve_i2_odd",
    "solve_i2_composite",
    "solve_i3_even",
    "solve_i3_heuristic",
    "solve_i4",
    "SupportSpec",
    "CodewordSupport",
    "quadform_rows",
    "build_support",
    "expand",
    "down_convert",
    "up_convert",
    "gold_support",
    "gk_support",
    "puncture",
    "Verdict",
    "designed_distance",
    "power_sums",
    "is_min_weight",
}


def test_public_api_is_pinned():
    # New public names are an API decision: add them here on purpose.
    assert len(bchmin.__all__) == len(set(bchmin.__all__)) == 28
    assert set(bchmin.__all__) == PUBLIC
    for name in bchmin.__all__:
        assert getattr(bchmin, name) is not None
    # the exhaustive i = 2 search is a test oracle, not library API
    for oracle in ("brute_force_solver", "iter_i2_solutions", "TooLarge", "norm_rel"):
        assert not hasattr(bchmin, oracle)


# One class per outcome a caller handles on its own; every other refusal is
# the builtin named here as its base.
EXCEPTIONS = {
    "files.ParseError": ValueError,
    "construct.DegenerateY": ValueError,
    "construct.UnverifiedSupport": RuntimeError,
    "gf2m.UnsupportedDegree": ValueError,
    "solvers.RetriesExhausted": RuntimeError,
    "solvers.UncoveredCase": ValueError,
}


def test_exception_classes_are_pinned():
    # New exception classes are an API decision too: add them here on purpose.
    defined = {}
    for info in pkgutil.iter_modules(bchmin.__path__):
        module = importlib.import_module(f"bchmin.{info.name}")
        for name, obj in inspect.getmembers(module, inspect.isclass):
            if issubclass(obj, BaseException) and obj.__module__ == module.__name__:
                defined[f"{info.name}.{name}"] = obj.__bases__
    assert defined == {name: (base,) for name, base in EXCEPTIONS.items()}


def test_verify_imports_nothing_from_the_package():
    # the verifier, the affine route included, builds everything it needs
    # from field arithmetic: no construct, linearized or gflinalg import
    tree = ast.parse(inspect.getsource(importlib.import_module("bchmin.verify")))
    imported = [
        node.module or "." for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("bchmin"))
    ]
    imported += [
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name.startswith("bchmin")
    ]
    assert imported == []


def test_support_files_import_nothing_from_the_cli():
    # the library reads and writes its own files: `files` takes the field,
    # the support class and nothing else from the package
    tree = ast.parse(inspect.getsource(importlib.import_module("bchmin.files")))
    imported = {
        (node.level, node.module) for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("bchmin"))
    }
    imported |= {
        (0, alias.name) for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name.startswith("bchmin")
    }
    assert imported == {(1, "construct"), (1, "gf2m")}


def _punctured():
    return bchmin.CodewordSupport(bchmin.default_field(8), frozenset({1, 2, 4}), 3, extended=False)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: bchmin.quadform_rows(0), ValueError, "i must be >= 1"),
        (lambda: bchmin.down_convert(_punctured(), []), ValueError, "down-conversion applies to extended"),
        (lambda: bchmin.up_convert(_punctured(), []), ValueError, "up-conversion applies to extended"),
        (lambda: bchmin.puncture(_punctured(), 1), ValueError, "puncturing applies to extended"),
        (lambda: bchmin.gk_support(bchmin.default_field(3), 2), ValueError, "m >= 4 required"),
        (lambda: bchmin.GF2m(8, -285), ValueError, "modulus -0x11d is negative"),
        (
            lambda: bchmin.solve_i3_heuristic(bchmin.default_field(5), 1), UncoveredCase,
            "m >= 6 required, got m=5",
        ),
        (lambda: bchmin.power_sums(_punctured(), 0), ValueError, "j_max must be >= 1"),
        (
            lambda: is_min_weight_affine(bchmin.default_field(8), np.ones(1, np.uint64), (), 5, None),
            ValueError, r"extended claim needs even d in 2\.\.256, got 5",
        ),
    ],
    ids=[
        "quadform_rows", "down_convert", "up_convert", "puncture", "gk_support", "GF2m",
        "solve_i3_heuristic", "power_sums", "is_min_weight_affine",
    ],
)
def test_public_refusals(call, error, message):
    # the refusals of the public calls, each with its message
    with pytest.raises(error, match=message):
        call()
