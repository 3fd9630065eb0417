"""Loop-nest intermediate representation.

The IR models the class of programs the paper optimizes: loop nests over
dense multi-dimensional arrays with affine subscripts.  A kernel is a tree
of :class:`Loop` nodes whose leaves are statements:

* :class:`Assign` — a store to an array element or scalar temporary of a
  floating-point expression (:class:`CExpr`) over array reads, scalars and
  literals;
* :class:`Prefetch` — a non-binding software prefetch of one array element.

Arrays are laid out **column-major** (Fortran convention, matching the
paper's pseudocode: in ``A[I,K]`` consecutive ``I`` are contiguous).

All nodes are immutable; transformations construct new trees.  Loop upper
bounds are *inclusive*, matching Fortran ``DO`` semantics and the paper's
pseudocode (``DO K = 1,N``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, FrozenSet, Iterator, Mapping, Optional, Sequence, Tuple, Union

from repro.ir.expr import Expr, ExprLike, LinearForm, Var, as_expr, linear_form

__all__ = [
    "ArrayDecl",
    "ArrayRef",
    "Subscripts",
    "affine_subscripts",
    "CExpr",
    "CNum",
    "CRead",
    "CVar",
    "CBin",
    "Statement",
    "Assign",
    "Prefetch",
    "Loop",
    "Node",
    "Kernel",
    "walk",
    "walk_statements",
    "walk_loops",
    "loop_order",
    "find_loop",
    "array_refs",
    "scalars_read",
]


@dataclass(frozen=True)
class ArrayDecl:
    """Declaration of a dense array.

    ``shape`` gives the extent of each dimension (symbolic, usually in terms
    of the kernel's size parameters).  ``temp`` marks compiler-introduced
    arrays (copy buffers), which the code generator allocates separately.
    """

    name: str
    shape: Tuple[Expr, ...]
    element_size: int = 8
    temp: bool = False

    @property
    def rank(self) -> int:
        return len(self.shape)

    def size_expr(self) -> Expr:
        """Total number of elements, symbolically."""
        total: Expr = as_expr(1)
        for dim in self.shape:
            total = total * dim
        return total

    def __str__(self) -> str:
        dims = ",".join(str(d) for d in self.shape)
        return f"{self.name}[{dims}]"


@dataclass(frozen=True)
class ArrayRef:
    """A subscripted array reference, e.g. ``A[I, K+1]``."""

    array: str
    indices: Tuple[Expr, ...]

    @property
    def rank(self) -> int:
        return len(self.indices)

    def free_vars(self) -> FrozenSet[str]:
        if not self.indices:
            return frozenset()
        return frozenset().union(*(ix.free_vars() for ix in self.indices))

    def substitute(self, mapping: Mapping[str, ExprLike]) -> "ArrayRef":
        return ArrayRef(self.array, tuple(ix.substitute(mapping) for ix in self.indices))

    def __str__(self) -> str:
        return f"{self.array}[" + ",".join(str(ix) for ix in self.indices) + "]"


#: per-dimension integer coefficients over a loop list, and the loop-free
#: remainder of each dimension
Subscripts = Tuple[Tuple[Tuple[int, ...], ...], Tuple[LinearForm, ...]]


def affine_subscripts(ref: ArrayRef, loops: Sequence[str]) -> Optional[Subscripts]:
    """``ref``'s subscripts as integer coefficient rows over ``loops`` (one
    row per dimension, one column per loop) plus each dimension's
    loop-free remainder.

    Two references with equal rows touch elements a constant distance
    apart in a dimension exactly when :meth:`LinearForm.distance` of
    their remainders there is not None.  Returns None when a loop
    variable appears inside an opaque (non-linear) atom.
    """
    wanted = frozenset(loops)
    rows = []
    rests = []
    for index in ref.indices:
        form = linear_form(index)
        coeffs: Dict[str, int] = {}
        rest = []
        for atom, coeff in form.terms:
            if isinstance(atom, Var) and atom.name in wanted:
                coeffs[atom.name] = coeff
            elif atom.free_vars() & wanted:
                return None
            else:
                rest.append((atom, coeff))
        rows.append(tuple(coeffs.get(var, 0) for var in loops))
        rests.append(LinearForm(form.const, tuple(rest)))
    return tuple(rows), tuple(rests)


class CExpr:
    """Base class for floating-point computation expressions."""

    __slots__ = ()

    def reads(self) -> Iterator[ArrayRef]:
        raise NotImplementedError

    def flops(self) -> int:
        raise NotImplementedError

    def substitute(self, mapping: Mapping[str, ExprLike]) -> "CExpr":
        raise NotImplementedError

    # -- operator sugar (builds CBin trees) -----------------------------
    def __add__(self, other: "CExpr") -> "CExpr":
        return CBin("+", self, _as_cexpr(other))

    def __radd__(self, other) -> "CExpr":
        return CBin("+", _as_cexpr(other), self)

    def __sub__(self, other: "CExpr") -> "CExpr":
        return CBin("-", self, _as_cexpr(other))

    def __rsub__(self, other) -> "CExpr":
        return CBin("-", _as_cexpr(other), self)

    def __mul__(self, other: "CExpr") -> "CExpr":
        return CBin("*", self, _as_cexpr(other))

    def __rmul__(self, other) -> "CExpr":
        return CBin("*", _as_cexpr(other), self)

    def __truediv__(self, other: "CExpr") -> "CExpr":
        return CBin("/", self, _as_cexpr(other))


def _as_cexpr(value) -> "CExpr":
    if isinstance(value, CExpr):
        return value
    if isinstance(value, (int, float)):
        return CNum(float(value))
    raise TypeError(f"cannot convert {value!r} to CExpr")


@dataclass(frozen=True)
class CNum(CExpr):
    """A floating-point literal."""

    value: float

    def reads(self) -> Iterator[ArrayRef]:
        return iter(())

    def flops(self) -> int:
        return 0

    def substitute(self, mapping: Mapping[str, ExprLike]) -> CExpr:
        return self

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class CRead(CExpr):
    """A load from an array element."""

    ref: ArrayRef

    def reads(self) -> Iterator[ArrayRef]:
        yield self.ref

    def flops(self) -> int:
        return 0

    def substitute(self, mapping: Mapping[str, ExprLike]) -> CExpr:
        return CRead(self.ref.substitute(mapping))

    def __str__(self) -> str:
        return str(self.ref)


@dataclass(frozen=True)
class CVar(CExpr):
    """A scalar: either a kernel constant (e.g. Jacobi's ``c``) or a
    compiler-introduced register temporary from scalar replacement."""

    name: str

    def reads(self) -> Iterator[ArrayRef]:
        return iter(())

    def flops(self) -> int:
        return 0

    def substitute(self, mapping: Mapping[str, ExprLike]) -> CExpr:
        return self

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class CBin(CExpr):
    """A binary floating-point operation; ``op`` is one of ``+ - * /``."""

    op: str
    left: CExpr
    right: CExpr

    def __post_init__(self) -> None:
        if self.op not in ("+", "-", "*", "/"):
            raise ValueError(f"bad float op {self.op!r}")

    def reads(self) -> Iterator[ArrayRef]:
        yield from self.left.reads()
        yield from self.right.reads()

    def flops(self) -> int:
        return 1 + self.left.flops() + self.right.flops()

    def substitute(self, mapping: Mapping[str, ExprLike]) -> CExpr:
        return CBin(self.op, self.left.substitute(mapping), self.right.substitute(mapping))

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


class Statement:
    """Base class for leaf statements."""

    __slots__ = ()

    def substitute(self, mapping: Mapping[str, ExprLike]) -> "Statement":
        raise NotImplementedError


@dataclass(frozen=True)
class Assign(Statement):
    """``target = value``; the target is an array element or a scalar name."""

    target: Union[ArrayRef, str]
    value: CExpr

    def substitute(self, mapping: Mapping[str, ExprLike]) -> "Assign":
        target = self.target
        if isinstance(target, ArrayRef):
            target = target.substitute(mapping)
        return Assign(target, self.value.substitute(mapping))

    def __str__(self) -> str:
        return f"{self.target} = {self.value}"


@dataclass(frozen=True)
class Prefetch(Statement):
    """A software prefetch of ``ref``.

    Prefetches have no effect on program semantics; the simulator models
    them as non-blocking cache fills and the C emitter lowers them to
    ``__builtin_prefetch``.
    """

    ref: ArrayRef

    def substitute(self, mapping: Mapping[str, ExprLike]) -> "Prefetch":
        return Prefetch(self.ref.substitute(mapping))

    def __str__(self) -> str:
        return f"prefetch {self.ref}"


@dataclass(frozen=True)
class Loop:
    """A counted loop: ``DO var = lower, upper, step`` (inclusive bound).

    ``role`` tags the loop's origin for printing and cost modelling:
    ``"compute"`` for original/point loops, ``"control"`` for tile
    controlling loops, and ``"copy"`` for copy-in loops.
    """

    var: str
    lower: Expr
    upper: Expr
    step: int
    body: Tuple["Node", ...]
    role: str = "compute"

    def __post_init__(self) -> None:
        if self.step == 0:
            raise ValueError("loop step must be non-zero")
        if not self.body:
            raise ValueError(f"loop {self.var} has an empty body")

    def with_body(self, body: Tuple["Node", ...]) -> "Loop":
        return replace(self, body=body)

    def substitute(self, mapping: Mapping[str, ExprLike]) -> "Loop":
        if self.var in mapping:
            mapping = {k: v for k, v in mapping.items() if k != self.var}
        return Loop(
            self.var,
            self.lower.substitute(mapping),
            self.upper.substitute(mapping),
            self.step,
            tuple(child.substitute(mapping) for child in self.body),
            self.role,
        )

    def trip_count(self, env: Mapping[str, int]) -> int:
        lower = self.lower.evaluate(env)
        upper = self.upper.evaluate(env)
        if self.step > 0:
            return max(0, (upper - lower) // self.step + 1)
        return max(0, (lower - upper) // (-self.step) + 1)


Node = Union[Loop, Statement]


@dataclass(frozen=True)
class Kernel:
    """A complete kernel: declarations plus the loop tree.

    ``params`` are symbolic integer sizes (e.g. ``("N",)``); ``consts`` are
    named floating-point constants read by the computation (e.g. Jacobi's
    ``c``).  ``flop_basis`` optionally records, as an expression over
    ``params``, the nominal useful flop count used for MFLOPS reporting;
    when absent the executor counts arithmetic operations dynamically.
    """

    name: str
    params: Tuple[str, ...]
    arrays: Tuple[ArrayDecl, ...]
    body: Tuple[Node, ...]
    consts: Tuple[str, ...] = ()
    flop_basis: Optional[Expr] = None

    def array(self, name: str) -> ArrayDecl:
        for decl in self.arrays:
            if decl.name == name:
                return decl
        raise KeyError(f"kernel {self.name}: unknown array {name!r}")

    def has_array(self, name: str) -> bool:
        return any(decl.name == name for decl in self.arrays)

    def with_body(self, body: Tuple[Node, ...]) -> "Kernel":
        return replace(self, body=body)

    def with_array(self, decl: ArrayDecl) -> "Kernel":
        if self.has_array(decl.name):
            raise ValueError(f"array {decl.name!r} already declared")
        return replace(self, arrays=self.arrays + (decl,))


def walk(nodes: Tuple[Node, ...]) -> Iterator[Node]:
    """Pre-order traversal of every node in ``nodes``."""
    for node in nodes:
        yield node
        if isinstance(node, Loop):
            yield from walk(node.body)


def walk_statements(nodes: Tuple[Node, ...]) -> Iterator[Statement]:
    """All leaf statements, in execution (textual) order."""
    for node in walk(nodes):
        if isinstance(node, Statement):
            yield node


def walk_loops(nodes: Tuple[Node, ...]) -> Iterator[Loop]:
    """All loops, pre-order."""
    for node in walk(nodes):
        if isinstance(node, Loop):
            yield node


def loop_order(kernel: Kernel) -> Tuple[str, ...]:
    """Loop variables from outermost to innermost along the first nest path."""
    order = []
    nodes = kernel.body
    while True:
        loops = [n for n in nodes if isinstance(n, Loop)]
        if not loops:
            return tuple(order)
        order.append(loops[0].var)
        nodes = loops[0].body


def find_loop(nodes: Tuple[Node, ...], var: str) -> Optional[Loop]:
    """Find the (first) loop with index variable ``var``."""
    for node in walk_loops(nodes):
        if node.var == var:
            return node
    return None


def array_refs(nodes: Tuple[Node, ...]) -> Iterator[Tuple[ArrayRef, bool]]:
    """Yield ``(ref, is_write)`` for every array access in textual order.

    Prefetch targets are not yielded (they are hints, not accesses, for the
    purposes of dependence and reuse analysis).
    """
    for stmt in walk_statements(nodes):
        if isinstance(stmt, Assign):
            yield from ((ref, False) for ref in stmt.value.reads())
            if isinstance(stmt.target, ArrayRef):
                yield (stmt.target, True)


def scalars_read(expr: CExpr) -> FrozenSet[str]:
    """Names of the scalars (temporaries and constants) ``expr`` reads."""
    if isinstance(expr, CVar):
        return frozenset((expr.name,))
    if isinstance(expr, CBin):
        return scalars_read(expr.left) | scalars_read(expr.right)
    return frozenset()


def map_statements(
    nodes: Tuple[Node, ...], fn: Callable[[Statement], Tuple[Node, ...]]
) -> Tuple[Node, ...]:
    """Rebuild a tree with every statement replaced by ``fn(stmt)``.

    ``fn`` returns a tuple so statements can be dropped (empty tuple) or
    expanded into several nodes.  Loops whose bodies become empty are
    pruned.
    """
    result = []
    for node in nodes:
        if isinstance(node, Loop):
            body = map_statements(node.body, fn)
            if body:
                result.append(node.with_body(body))
        else:
            result.extend(fn(node))
    return tuple(result)
