import bchmin

PUBLIC = {
    "GF2m",
    "default_field",
    "parse_poly",
    "LinearizedPoly",
    "annihilator",
    "lin_eval",
    "lin_kernel",
    "image_poly",
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
    "is_member",
    "is_min_weight",
}


def test_public_api_is_pinned():
    # New public names are an API decision: add them here on purpose.
    assert len(bchmin.__all__) == len(set(bchmin.__all__)) == 34
    assert set(bchmin.__all__) == PUBLIC
    for name in bchmin.__all__:
        assert getattr(bchmin, name) is not None
    # the exhaustive i = 2 search is a test oracle, not library API
    for oracle in ("brute_force_solver", "iter_i2_solutions", "TooLarge", "norm_rel"):
        assert not hasattr(bchmin, oracle)
