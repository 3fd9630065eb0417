"""Symbolic integer expressions for loop bounds and array subscripts.

Expressions are immutable trees over integer constants, named variables
(loop indices and symbolic problem sizes such as ``N``), arithmetic, and
``min``/``max``.  Two properties drive the design:

* ``evaluate`` accepts environments whose values are either Python ints or
  numpy arrays.  The same expression tree therefore serves the interpreter
  (scalar execution used as a semantics oracle) and the trace compiler
  (vectorized address generation over the innermost loop).
* :func:`linear_form` decomposes an expression as ``const + sum(coeff *
  atom)`` with *integer* coefficients over variables and opaque terms.
  It is the one integer form of a subscript: the analyses, transforms
  and simulator read coefficients from it, and decide that two
  subscripts are a constant distance apart by comparing their terms
  (:meth:`LinearForm.distance`) instead of subtracting expressions.

Construction goes through the smart constructors (:func:`add`, :func:`mul`,
...) or operator overloading, both of which fold constants and flatten
nested sums/products so structurally equal expressions compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Add",
    "Mul",
    "FloorDiv",
    "Mod",
    "Min",
    "Max",
    "ZERO",
    "ONE",
    "as_expr",
    "add",
    "sub",
    "mul",
    "floordiv",
    "mod",
    "emin",
    "emax",
    "LinearForm",
    "linear_form",
]

ExprLike = Union["Expr", int]


class Expr:
    """Base class for symbolic integer expressions."""

    __slots__ = ()

    def evaluate(self, env: Mapping[str, object]):
        raise NotImplementedError

    def free_vars(self) -> FrozenSet[str]:
        raise NotImplementedError

    def substitute(self, mapping: Mapping[str, ExprLike]) -> "Expr":
        raise NotImplementedError

    # -- operator sugar -------------------------------------------------
    def __add__(self, other: ExprLike) -> "Expr":
        return add(self, other)

    def __radd__(self, other: ExprLike) -> "Expr":
        return add(other, self)

    def __sub__(self, other: ExprLike) -> "Expr":
        return sub(self, other)

    def __rsub__(self, other: ExprLike) -> "Expr":
        return sub(other, self)

    def __mul__(self, other: ExprLike) -> "Expr":
        return mul(self, other)

    def __rmul__(self, other: ExprLike) -> "Expr":
        return mul(other, self)

    def __floordiv__(self, other: ExprLike) -> "Expr":
        return floordiv(self, other)

    def __mod__(self, other: ExprLike) -> "Expr":
        return mod(self, other)

    def __neg__(self) -> "Expr":
        return mul(-1, self)


@dataclass(frozen=True)
class Const(Expr):
    """An integer literal."""

    value: int

    def evaluate(self, env: Mapping[str, object]):
        return self.value

    def free_vars(self) -> FrozenSet[str]:
        return frozenset()

    def substitute(self, mapping: Mapping[str, ExprLike]) -> Expr:
        return self

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Var(Expr):
    """A named integer variable (loop index or symbolic parameter)."""

    name: str

    def evaluate(self, env: Mapping[str, object]):
        try:
            return env[self.name]
        except KeyError:
            raise KeyError(f"unbound variable {self.name!r}") from None

    def free_vars(self) -> FrozenSet[str]:
        return frozenset((self.name,))

    def substitute(self, mapping: Mapping[str, ExprLike]) -> Expr:
        if self.name in mapping:
            return as_expr(mapping[self.name])
        return self

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Add(Expr):
    """A flattened sum of two or more terms."""

    terms: Tuple[Expr, ...]

    def evaluate(self, env: Mapping[str, object]):
        result = self.terms[0].evaluate(env)
        for term in self.terms[1:]:
            result = result + term.evaluate(env)
        return result

    def free_vars(self) -> FrozenSet[str]:
        return frozenset().union(*(t.free_vars() for t in self.terms))

    def substitute(self, mapping: Mapping[str, ExprLike]) -> Expr:
        return add(*(t.substitute(mapping) for t in self.terms))

    def __str__(self) -> str:
        parts = [str(self.terms[0])]
        for term in self.terms[1:]:
            text = str(term)
            if text.startswith("-"):
                parts.append(" - " + text[1:])
            else:
                parts.append(" + " + text)
        return "(" + "".join(parts) + ")"


@dataclass(frozen=True)
class Mul(Expr):
    """A flattened product of two or more factors."""

    factors: Tuple[Expr, ...]

    def evaluate(self, env: Mapping[str, object]):
        result = self.factors[0].evaluate(env)
        for factor in self.factors[1:]:
            result = result * factor.evaluate(env)
        return result

    def free_vars(self) -> FrozenSet[str]:
        return frozenset().union(*(f.free_vars() for f in self.factors))

    def substitute(self, mapping: Mapping[str, ExprLike]) -> Expr:
        return mul(*(f.substitute(mapping) for f in self.factors))

    def __str__(self) -> str:
        return "*".join(str(f) for f in self.factors)


@dataclass(frozen=True)
class FloorDiv(Expr):
    """Floor division ``numerator // denominator``."""

    numerator: Expr
    denominator: Expr

    def evaluate(self, env: Mapping[str, object]):
        return self.numerator.evaluate(env) // self.denominator.evaluate(env)

    def free_vars(self) -> FrozenSet[str]:
        return self.numerator.free_vars() | self.denominator.free_vars()

    def substitute(self, mapping: Mapping[str, ExprLike]) -> Expr:
        return floordiv(
            self.numerator.substitute(mapping), self.denominator.substitute(mapping)
        )

    def __str__(self) -> str:
        return f"({self.numerator} / {self.denominator})"


@dataclass(frozen=True)
class Mod(Expr):
    """Remainder ``value % modulus`` (Python semantics)."""

    value: Expr
    modulus: Expr

    def evaluate(self, env: Mapping[str, object]):
        return self.value.evaluate(env) % self.modulus.evaluate(env)

    def free_vars(self) -> FrozenSet[str]:
        return self.value.free_vars() | self.modulus.free_vars()

    def substitute(self, mapping: Mapping[str, ExprLike]) -> Expr:
        return mod(self.value.substitute(mapping), self.modulus.substitute(mapping))

    def __str__(self) -> str:
        return f"({self.value} mod {self.modulus})"


def _elementwise_min(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return min(a, b)
    import numpy

    return numpy.minimum(a, b)


def _elementwise_max(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return max(a, b)
    import numpy

    return numpy.maximum(a, b)


@dataclass(frozen=True)
class Min(Expr):
    """Elementwise minimum of two or more arguments."""

    args: Tuple[Expr, ...]

    def evaluate(self, env: Mapping[str, object]):
        result = self.args[0].evaluate(env)
        for arg in self.args[1:]:
            result = _elementwise_min(result, arg.evaluate(env))
        return result

    def free_vars(self) -> FrozenSet[str]:
        return frozenset().union(*(a.free_vars() for a in self.args))

    def substitute(self, mapping: Mapping[str, ExprLike]) -> Expr:
        return emin(*(a.substitute(mapping) for a in self.args))

    def __str__(self) -> str:
        return "min(" + ", ".join(str(a) for a in self.args) + ")"


@dataclass(frozen=True)
class Max(Expr):
    """Elementwise maximum of two or more arguments."""

    args: Tuple[Expr, ...]

    def evaluate(self, env: Mapping[str, object]):
        result = self.args[0].evaluate(env)
        for arg in self.args[1:]:
            result = _elementwise_max(result, arg.evaluate(env))
        return result

    def free_vars(self) -> FrozenSet[str]:
        return frozenset().union(*(a.free_vars() for a in self.args))

    def substitute(self, mapping: Mapping[str, ExprLike]) -> Expr:
        return emax(*(a.substitute(mapping) for a in self.args))

    def __str__(self) -> str:
        return "max(" + ", ".join(str(a) for a in self.args) + ")"


ZERO = Const(0)
ONE = Const(1)


def as_expr(value: ExprLike) -> Expr:
    """Coerce an int (or Expr) to an :class:`Expr`."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"cannot convert {value!r} to Expr")
    return Const(value)


def _as_coeff_atom(part: Expr) -> Tuple[int, Expr]:
    """View a term as ``coeff * atom`` with an integer coefficient."""
    if isinstance(part, Mul) and isinstance(part.factors[0], Const):
        rest = part.factors[1:]
        atom = rest[0] if len(rest) == 1 else Mul(rest)
        return part.factors[0].value, atom
    return 1, part


def add(*terms: ExprLike) -> Expr:
    """Sum of ``terms`` with constant folding, flattening and cancellation
    of like terms (so ``I - (I + 1)`` folds to ``-1``)."""
    coeffs: Dict[Expr, int] = {}
    order: list = []
    const_total = 0
    for term in terms:
        term = as_expr(term)
        if isinstance(term, Add):
            inner: Iterable[Expr] = term.terms
        else:
            inner = (term,)
        for part in inner:
            if isinstance(part, Const):
                const_total += part.value
                continue
            coeff, atom = _as_coeff_atom(part)
            if atom not in coeffs:
                coeffs[atom] = 0
                order.append(atom)
            coeffs[atom] += coeff
    flat = []
    for atom in order:
        coeff = coeffs[atom]
        if coeff == 0:
            continue
        flat.append(atom if coeff == 1 else mul(coeff, atom))
    if const_total != 0 or not flat:
        flat.append(Const(const_total))
    if len(flat) == 1:
        return flat[0]
    return Add(tuple(flat))


def sub(left: ExprLike, right: ExprLike) -> Expr:
    if isinstance(left, Const) and isinstance(right, Const):
        # what the general fold yields, without building the sum
        return Const(left.value - right.value)
    return add(left, mul(-1, right))


def mul(*factors: ExprLike) -> Expr:
    """Product of ``factors`` with constant folding and flattening."""
    flat = []
    const_total = 1
    for factor in factors:
        factor = as_expr(factor)
        if isinstance(factor, Mul):
            inner: Iterable[Expr] = factor.factors
        else:
            inner = (factor,)
        for part in inner:
            if isinstance(part, Const):
                const_total *= part.value
            else:
                flat.append(part)
    if const_total == 0:
        return ZERO
    # Distribute a constant over a lone sum so that subtraction of affine
    # expressions cancels (e.g. -1 * (I + 1) -> -I - 1).
    if len(flat) == 1 and isinstance(flat[0], Add):
        return add(*(mul(const_total, term) for term in flat[0].terms))
    if const_total != 1 or not flat:
        flat.insert(0, Const(const_total))
    if len(flat) == 1:
        return flat[0]
    return Mul(tuple(flat))


def floordiv(numerator: ExprLike, denominator: ExprLike) -> Expr:
    numerator = as_expr(numerator)
    denominator = as_expr(denominator)
    if isinstance(denominator, Const):
        if denominator.value == 0:
            raise ZeroDivisionError("symbolic division by zero")
        if denominator.value == 1:
            return numerator
        if isinstance(numerator, Const):
            return Const(numerator.value // denominator.value)
    return FloorDiv(numerator, denominator)


def mod(value: ExprLike, modulus: ExprLike) -> Expr:
    value = as_expr(value)
    modulus = as_expr(modulus)
    if isinstance(modulus, Const):
        if modulus.value == 0:
            raise ZeroDivisionError("symbolic modulo by zero")
        if isinstance(value, Const):
            return Const(value.value % modulus.value)
    return Mod(value, modulus)


def _fold_varargs(cls, fold, args: Sequence[ExprLike]) -> Expr:
    flat = []
    const: Optional[int] = None
    for arg in args:
        arg = as_expr(arg)
        if isinstance(arg, cls):
            inner: Iterable[Expr] = arg.args
        else:
            inner = (arg,)
        for part in inner:
            if isinstance(part, Const):
                const = part.value if const is None else fold(const, part.value)
            elif part not in flat:
                flat.append(part)
    if const is not None:
        flat.append(Const(const))
    if not flat:
        raise ValueError("min/max of no arguments")
    if len(flat) == 1:
        return flat[0]
    return cls(tuple(flat))


def emin(*args: ExprLike) -> Expr:
    """Symbolic ``min`` with constant folding and deduplication."""
    return _fold_varargs(Min, min, args)


def emax(*args: ExprLike) -> Expr:
    """Symbolic ``max`` with constant folding and deduplication."""
    return _fold_varargs(Max, max, args)


@dataclass(frozen=True)
class LinearForm:
    """An expression as ``const + sum(coeff * atom)`` with integer
    coefficients.

    An atom is a :class:`Var` or an opaque non-linear term (a product of
    non-constant factors, a division, a modulo, a ``min`` or a ``max``),
    kept whole.  ``terms`` holds no zero coefficient and is canonically
    ordered — variables by name, then the other atoms — so two forms are
    a constant distance apart exactly when their ``terms`` are equal.
    """

    const: int
    terms: Tuple[Tuple[Expr, int], ...]

    def distance(self, other: "LinearForm") -> Optional[int]:
        """``self - other`` when that is a constant, else None."""
        if self.terms != other.terms:
            return None
        return self.const - other.const

    @property
    def affine(self) -> bool:
        """True when every atom is a variable (no opaque term)."""
        return all(isinstance(atom, Var) for atom, _ in self.terms)


def _atom_key(item: Tuple[Expr, int]):
    atom = item[0]
    if isinstance(atom, Var):
        return (0, atom.name)
    return (1, repr(atom))


def _collect(expr: Expr, scale: int, coeffs: Dict[Expr, int]) -> int:
    """Add ``scale * expr``'s atoms to ``coeffs``; return its constant."""
    if isinstance(expr, Const):
        return scale * expr.value
    if isinstance(expr, Add):
        return sum(_collect(term, scale, coeffs) for term in expr.terms)
    atom = expr
    if isinstance(expr, Mul):
        others = []
        for factor in expr.factors:
            if isinstance(factor, Const):
                scale *= factor.value
            else:
                others.append(factor)
        if len(others) == 1:
            return _collect(others[0], scale, coeffs)
        atom = Mul(tuple(others))
    coeffs[atom] = coeffs.get(atom, 0) + scale
    return 0


@lru_cache(maxsize=8192)
def linear_form(expr: Expr) -> LinearForm:
    """The :class:`LinearForm` of ``expr``.  Memoized (bounded): the same
    subscripts recur in every analysis, transform and simulation of a
    kernel and of its variants."""
    coeffs: Dict[Expr, int] = {}
    const = _collect(expr, 1, coeffs)
    terms = sorted(((a, c) for a, c in coeffs.items() if c != 0), key=_atom_key)
    return LinearForm(const, tuple(terms))
