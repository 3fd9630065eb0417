"""Unit tests for symbolic integer expressions."""

import numpy as np
import pytest

from repro.ir.expr import (
    Add,
    Const,
    FloorDiv,
    LinearForm,
    Min,
    Mod,
    Mul,
    Var,
    add,
    as_expr,
    emax,
    emin,
    floordiv,
    linear_form,
    mod,
    mul,
    sub,
)
from repro.ir.nest import ArrayRef, affine_subscripts

I = Var("I")
J = Var("J")
N = Var("N")


class TestConstruction:
    def test_const_folding_add(self):
        assert add(1, 2, 3) == Const(6)

    def test_const_folding_mul(self):
        assert mul(2, 3) == Const(6)

    def test_mul_by_zero_annihilates(self):
        assert mul(0, I, N) == Const(0)

    def test_add_flattens_nested_sums(self):
        expr = add(add(I, 1), add(J, 2))
        assert isinstance(expr, Add)
        assert Const(3) in expr.terms

    def test_mul_flattens_nested_products(self):
        expr = mul(mul(2, I), mul(3, J))
        assert isinstance(expr, Mul)
        assert expr.factors[0] == Const(6)

    def test_add_identity(self):
        assert add(I, 0) == I

    def test_mul_identity(self):
        assert mul(I, 1) == I

    def test_operator_sugar_matches_constructors(self):
        assert (I + 1) == add(I, 1)
        assert (I - J) == sub(I, J)
        assert (2 * I) == mul(2, I)
        assert (I // 2) == floordiv(I, 2)
        assert (I % 4) == mod(I, 4)
        assert (-I) == mul(-1, I)

    def test_floordiv_by_one(self):
        assert floordiv(I, 1) == I

    def test_floordiv_constants(self):
        assert floordiv(7, 2) == Const(3)

    def test_floordiv_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            floordiv(I, 0)

    def test_mod_constants(self):
        assert mod(7, 4) == Const(3)

    def test_mod_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            mod(I, 0)

    def test_min_dedup_and_fold(self):
        assert emin(I, I) == I
        assert emin(3, 5) == Const(3)
        assert emax(3, 5) == Const(5)

    def test_min_flattens(self):
        expr = emin(emin(I, J), N)
        assert isinstance(expr, Min)
        assert len(expr.args) == 3

    def test_as_expr_rejects_bool_and_float(self):
        with pytest.raises(TypeError):
            as_expr(True)
        with pytest.raises(TypeError):
            as_expr(1.5)

    def test_structural_equality_and_hash(self):
        a = I + 2 * J
        b = add(I, mul(2, J))
        assert a == b
        assert hash(a) == hash(b)


class TestEvaluate:
    def test_scalar_evaluation(self):
        expr = 3 * I + J - 1
        assert expr.evaluate({"I": 4, "J": 10}) == 21

    def test_min_max_scalar(self):
        expr = emin(I + 1, N)
        assert expr.evaluate({"I": 5, "N": 4}) == 4
        assert emax(I, 0).evaluate({"I": -3}) == 0

    def test_floordiv_mod_scalar(self):
        assert (I // 3).evaluate({"I": 10}) == 3
        assert (I % 3).evaluate({"I": 10}) == 1

    def test_unbound_variable_raises(self):
        with pytest.raises(KeyError, match="unbound variable"):
            I.evaluate({})

    def test_vector_evaluation(self):
        vec = np.arange(5)
        expr = 2 * I + 1
        np.testing.assert_array_equal(expr.evaluate({"I": vec}), 2 * vec + 1)

    def test_vector_min(self):
        vec = np.array([1, 5, 9])
        expr = emin(I, 5)
        np.testing.assert_array_equal(expr.evaluate({"I": vec}), [1, 5, 5])

    def test_mixed_scalar_vector(self):
        vec = np.arange(4)
        expr = I + N
        np.testing.assert_array_equal(expr.evaluate({"I": vec, "N": 10}), vec + 10)


class TestSubstitute:
    def test_substitute_variable(self):
        expr = I + 2 * J
        assert expr.substitute({"J": Const(3)}) == I + 6

    def test_substitute_with_expr(self):
        expr = I + 1
        assert expr.substitute({"I": J * 2}) == 2 * J + 1

    def test_substitute_accepts_ints(self):
        assert (I + J).substitute({"I": 4, "J": 5}) == Const(9)

    def test_substitute_min(self):
        expr = emin(I, N)
        assert expr.substitute({"N": 10, "I": 3}) == Const(3)


class TestFreeVars:
    def test_free_vars(self):
        expr = emin(I + J, N) % 4
        assert expr.free_vars() == {"I", "J", "N"}

    def test_const_has_no_free_vars(self):
        assert Const(5).free_vars() == frozenset()


def split(expr, loops):
    """``expr``'s coefficients over ``loops`` and its loop-free remainder,
    read through :func:`affine_subscripts` (None when not affine)."""
    found = affine_subscripts(ArrayRef("A", (expr,)), loops)
    if found is None:
        return None
    (row,), (rest,) = found
    return {var: c for var, c in zip(loops, row) if c}, rest


class TestAffineView:
    """A subscript split over a loop list, through the linear form."""

    def test_simple_affine(self):
        coeffs, rest = split(2 * I + 3 * J + 5, ["I", "J"])
        assert coeffs == {"I": 2, "J": 3}
        assert rest == linear_form(Const(5)) == LinearForm(5, ())

    def test_affine_with_symbolic_rest(self):
        coeffs, rest = split(I + N - 1, ["I"])
        assert coeffs == {"I": 1}
        assert rest == linear_form(N - 1)

    def test_coefficient_of_absent_var_is_zero(self):
        found = affine_subscripts(ArrayRef("A", (I + 1,)), ["I", "J"])
        assert found[0] == ((1, 0),)

    def test_cancelling_coefficients_dropped(self):
        coeffs, _ = split(I - I + J, ["I", "J"])
        assert coeffs == {"J": 1}

    def test_product_of_loop_vars_is_not_affine(self):
        assert split(mul(I, J), ["I", "J"]) is None

    def test_floordiv_of_loop_var_is_not_affine(self):
        assert split(I // 2, ["I"]) is None

    def test_param_product_stays_in_rest(self):
        coeffs, rest = split(I + mul(N, N), ["I"])
        assert coeffs == {"I": 1}
        assert rest == linear_form(mul(N, N))

    def test_scaled_nonaffine_rejected(self):
        assert split(mul(2, I, J), ["I"]) is None

    def test_min_over_tracked_var_rejected(self):
        assert split(emin(I, N), ["I"]) is None

    def test_min_over_untracked_vars_ok(self):
        coeffs, _ = split(I + emin(N, Const(100)), ["I"])
        assert coeffs == {"I": 1}


class TestLinearForm:
    def test_terms_are_canonically_ordered(self):
        assert linear_form(I + N + J).terms == linear_form(N + J + I).terms
        assert linear_form(I + N + J).terms == ((I, 1), (J, 1), (N, 1))

    def test_opaque_atoms_follow_variables(self):
        form = linear_form(3 * mul(N, N) + emin(I, N) - 2 * I + 7)
        assert form.const == 7
        assert form.terms == ((I, -2), (emin(I, N), 1), (mul(N, N), 3))
        assert not form.affine
        assert linear_form(2 * I - J).affine

    def test_distance_is_a_constant_or_none(self):
        assert linear_form(I + N + 3).distance(linear_form(N + I - 1)) == 4
        assert linear_form(I + 1).distance(linear_form(I + 1)) == 0
        assert linear_form(I + N).distance(linear_form(I + 1)) is None
        assert linear_form(2 * I).distance(linear_form(I)) is None

    def test_memo_is_bounded(self):
        assert linear_form.cache_info().maxsize is not None
