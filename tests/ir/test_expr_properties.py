"""Property-based tests for symbolic expressions (hypothesis).

The invariants checked here underpin everything downstream: evaluation must
agree with Python integer arithmetic, substitution must commute with
evaluation, and the integer linear form must be a faithful decomposition.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.expr import Const, Var, emax, emin, linear_form
from repro.ir.nest import ArrayRef, affine_subscripts

VARS = ("I", "J", "K")


@st.composite
def exprs(draw, depth=3):
    """Random expressions over I, J, K and small constants."""
    if depth == 0:
        if draw(st.booleans()):
            return Const(draw(st.integers(-8, 8)))
        return Var(draw(st.sampled_from(VARS)))
    kind = draw(st.sampled_from(["leaf", "add", "sub", "mul", "min", "max", "div", "mod"]))
    if kind == "leaf":
        return draw(exprs(depth=0))
    left = draw(exprs(depth=depth - 1))
    right = draw(exprs(depth=depth - 1))
    if kind == "add":
        return left + right
    if kind == "sub":
        return left - right
    if kind == "mul":
        return left * right
    if kind == "min":
        return emin(left, right)
    if kind == "max":
        return emax(left, right)
    divisor = draw(st.integers(1, 7))
    if kind == "div":
        return left // divisor
    return left % divisor


envs = st.fixed_dictionaries({v: st.integers(-50, 50) for v in VARS})


@given(exprs(), envs)
@settings(max_examples=200)
def test_substitute_commutes_with_evaluate(expr, env):
    """eval(e, env) == eval(e[x := env(x)], {})"""
    substituted = expr.substitute({k: Const(v) for k, v in env.items()})
    assert substituted.free_vars() == frozenset()
    assert substituted.evaluate({}) == expr.evaluate(env)


@given(exprs(), envs)
@settings(max_examples=200)
def test_full_substitution_folds_to_const(expr, env):
    substituted = expr.substitute({k: Const(v) for k, v in env.items()})
    assert isinstance(substituted, Const)


@given(exprs(), envs)
@settings(max_examples=100)
def test_vector_evaluation_matches_scalar(expr, env):
    """Evaluating with 1-element numpy arrays must agree with scalar eval."""
    vec_env = {k: np.array([v, v + 1]) for k, v in env.items()}
    scalar0 = expr.evaluate(env)
    scalar1 = expr.evaluate({k: v + 1 for k, v in env.items()})
    vector = expr.evaluate(vec_env)
    vector = np.broadcast_to(vector, (2,))
    assert vector[0] == scalar0
    assert vector[1] == scalar1


@given(exprs(), envs)
@settings(max_examples=200)
def test_affine_view_reconstructs(expr, env):
    """When the subscript splits over the variables, coeffs . vars + rest
    == expr; and the linear form itself always reconstructs expr."""
    form = linear_form(expr)
    total = form.const + sum(c * atom.evaluate(env) for atom, c in form.terms)
    assert total == expr.evaluate(env)
    found = affine_subscripts(ArrayRef("A", (expr,)), VARS)
    if found is None:
        return
    (row,), (rest,) = found
    total = rest.const + sum(c * atom.evaluate(env) for atom, c in rest.terms)
    for name, coeff in zip(VARS, row):
        total += coeff * env[name]
    assert total == expr.evaluate(env)


@given(exprs())
@settings(max_examples=200)
def test_free_vars_sound(expr):
    """Evaluation succeeds given exactly the free variables."""
    env = {name: 3 for name in expr.free_vars()}
    expr.evaluate(env)  # must not raise


@given(exprs(), envs)
@settings(max_examples=100)
def test_str_round_trips_through_eval(expr, env):
    """str() output is printable and deterministic (smoke property)."""
    assert str(expr) == str(expr)
    assert isinstance(str(expr), str) and str(expr)
