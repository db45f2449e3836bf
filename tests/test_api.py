"""Snapshot of the package's public names: adding or removing one must be a
deliberate edit of this list."""

import wirtcalc

PUBLIC_NAMES = [
    # errors
    "ArityError", "DimensionMismatch", "DomainError", "EmptyData",
    "ExprSyntaxError", "NonRealCost", "PoleError", "SingularHessian",
    "StepTooSmall", "UnknownIdentifier", "UnsupportedPrimitive",
    "WirtcalcError",
    # expressions
    "Expr", "eval_jet", "format_expr", "parse", "parse_complex",
    # finite-difference oracle and holomorphy verdicts
    "HolomorphyReport", "Verdict", "classify", "fd_partials", "fd_wirtinger",
    # first-order jet rules (scalar and Hilbert-space jets)
    "PRIMITIVES", "WirtingerJet", "add", "apply_primitive", "conj",
    "constant", "div", "linear_combine", "mul", "power_int", "recip",
    "seed_variable", "sub",
    # Hilbert space
    "FunctionalJet", "GradientStack", "classify_functional", "fd_gradients",
    "fd_wirtinger_gradients", "functional_constant", "hvec", "inner",
    "ip_functional", "outer_chain", "squared_distance",
    "stack_vector_operator",
    # minimization
    "DescentConfig", "DescentTrace", "Termination", "build_least_squares",
    "newton_step_scalar", "steepest_descent_hilbert",
    "steepest_descent_scalar",
    # second order
    "HessianBlock", "SecondOrderJet", "hessian_is_real_consistent",
    "propagate_second_order", "second_order_taylor",
]


def test_public_api_snapshot():
    assert sorted(wirtcalc.__all__) == sorted(PUBLIC_NAMES)
