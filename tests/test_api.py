import ast
import importlib
import inspect
import pkgutil

import bchmin

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
    "cli.ParseError": ValueError,
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
