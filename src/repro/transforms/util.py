"""Shared helpers for tree-rewriting transformations."""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.ir.nest import Kernel, Loop, Node, Statement

__all__ = [
    "TransformError",
    "replace_loop",
    "perfect_nest_loops",
    "is_statement_body",
    "fresh_name",
]


class TransformError(ValueError):
    """Raised when a transformation's preconditions do not hold."""


def replace_loop(
    nodes: Tuple[Node, ...],
    var: str,
    fn: Callable[[Loop], Tuple[Node, ...]],
) -> Tuple[Node, ...]:
    """Rewrite every loop with index ``var`` via ``fn`` (which may expand
    the loop into several nodes, or drop it).  Recurses into loop bodies
    (the rewritten subtree is not revisited); enclosing loops whose bodies
    become empty are pruned."""
    result: List[Node] = []
    for node in nodes:
        if isinstance(node, Loop):
            if node.var == var:
                result.extend(fn(node))
            else:
                body = replace_loop(node.body, var, fn)
                if body:
                    result.append(node.with_body(body))
        else:
            result.append(node)
    return tuple(result)


def is_statement_body(loop: Loop) -> bool:
    """True when the loop body consists solely of statements."""
    return all(isinstance(child, Statement) for child in loop.body)


def perfect_nest_loops(kernel: Kernel) -> List[Loop]:
    """The loops of a perfect nest, outermost first.

    Raises :class:`TransformError` when the kernel body is not a single
    perfect nest (each level exactly one loop, statements only innermost).
    """
    loops: List[Loop] = []
    nodes = kernel.body
    while True:
        loop_nodes = [n for n in nodes if isinstance(n, Loop)]
        stmt_nodes = [n for n in nodes if not isinstance(n, Loop)]
        if not loop_nodes:
            return loops
        if len(loop_nodes) != 1 or stmt_nodes:
            raise TransformError(f"{kernel.name}: body is not a perfect loop nest")
        loops.append(loop_nodes[0])
        nodes = loop_nodes[0].body


def fresh_name(base: str, taken) -> str:
    """A name based on ``base`` not present in ``taken``."""
    if base not in taken:
        return base
    suffix = 2
    while f"{base}{suffix}" in taken:
        suffix += 1
    return f"{base}{suffix}"
