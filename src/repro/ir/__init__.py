"""Loop-nest intermediate representation.

Public surface:

* :mod:`repro.ir.expr` — symbolic integer expressions (bounds, subscripts)
  and their integer linear form (:func:`~repro.ir.expr.linear_form`);
* :mod:`repro.ir.nest` — arrays, statements, loops, kernels, traversals,
  and :func:`~repro.ir.nest.affine_subscripts`, the per-dimension
  coefficient rows every subscript analysis reads;
* :mod:`repro.ir.builder` — convenience constructors;
* :mod:`repro.ir.printer` — paper-style pseudocode output;
* :mod:`repro.ir.validate` — structural checks.
"""

from repro.ir.expr import (
    Add,
    Const,
    Expr,
    FloorDiv,
    LinearForm,
    Max,
    Min,
    Mod,
    Mul,
    Var,
    as_expr,
    emax,
    emin,
    linear_form,
)
from repro.ir.nest import (
    ArrayDecl,
    ArrayRef,
    Assign,
    Subscripts,
    affine_subscripts,
    CBin,
    CExpr,
    CNum,
    CRead,
    CVar,
    Kernel,
    Loop,
    Node,
    Prefetch,
    Statement,
    array_refs,
    count_flops,
    find_loop,
    loop_order,
    map_statements,
    walk,
    walk_loops,
    walk_statements,
)
from repro.ir.printer import format_kernel
from repro.ir.validate import ValidationError, validate_kernel

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
    "LinearForm",
    "linear_form",
    "as_expr",
    "emin",
    "emax",
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
    "count_flops",
    "map_statements",
    "format_kernel",
    "validate_kernel",
    "ValidationError",
]
