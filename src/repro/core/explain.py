"""Human-readable optimization reports.

``explain(tuned)`` renders everything the two phases decided and why:

* the memory-level plan (Table-4 rows) of the winning variant;
* each constraint with the chosen parameters substituted in, so the
  model's headroom is visible (``TJ*TK = 128 <= 128``);
* the tile footprints at the chosen parameters against each level's
  usable capacity;
* the search trajectory (points per variant, best-point progression);
* a counter comparison against the untransformed kernel.

This is diagnostic output, not part of the search: it simulates the naive
kernel at the requested size, and the tuned one too unless that is the
size the search measured its winner at (then the search's counters are
reused).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.core.eco import TunedKernel
from repro.sim import execute

__all__ = ["explain"]


def explain(tuned: TunedKernel, problem: Optional[Mapping[str, int]] = None) -> str:
    """Build the full report (a multi-line string)."""
    result = tuned.result
    machine = tuned.machine
    problem = dict(problem or result.counters.params)
    lines: List[str] = []
    out = lines.append

    out(f"Optimization report: {tuned.kernel.name} on {machine.name}")
    out("=" * 64)
    out(machine.describe())
    out("")

    # --- the plan -------------------------------------------------------
    out(f"Selected {result.variant.name} of {result.variants_considered} variants:")
    for level in result.variant.levels:
        out("  " + level.describe())
    out("")

    # --- parameters against constraints -----------------------------------
    values = dict(result.values)
    out("Chosen parameters: " + ", ".join(f"{k}={v}" for k, v in sorted(values.items())))
    env = {**values, **problem}
    for constraint in result.variant.constraints:
        free = constraint.expr.free_vars() | constraint.bound.free_vars()
        if free - set(env):
            out(f"  {constraint.label}   [unbound]")
            continue
        lhs = int(constraint.expr.evaluate(env))
        rhs = int(constraint.bound.evaluate(env))
        status = "ok" if lhs <= rhs else ("exceeded (soft)" if not constraint.hard else "VIOLATED")
        out(f"  {constraint.label}:  {lhs} <= {rhs}  [{status}]")
    if result.prefetch:
        out(
            "Prefetch: "
            + ", ".join(
                f"{site.array} in loop {site.loop} at distance {d}"
                for site, d in result.prefetch.items()
            )
        )
    else:
        out("Prefetch: none selected")
    if result.pads:
        out("Padding: " + ", ".join(f"{a}+{p}" for a, p in result.pads.items()))
    out("")

    # --- search trajectory --------------------------------------------------
    out(f"Search: {result.points} experiments, "
        f"{result.machine_seconds:.3f}s machine time, {result.seconds:.1f}s wall")
    per_variant: Dict[str, int] = {}
    best_so_far = float("inf")
    improvements = 0
    for name, _, cycles in result.history:
        per_variant[name] = per_variant.get(name, 0) + 1
        if cycles < best_so_far:
            best_so_far = cycles
            improvements += 1
    out("  points per variant: "
        + ", ".join(f"{k}:{v}" for k, v in sorted(per_variant.items())))
    out(f"  best point improved {improvements} times during the search")
    out("")

    # --- measured effect ------------------------------------------------------
    naive = execute(tuned.kernel, problem, machine)
    if problem == result.counters.params:
        opt = result.counters
    else:
        opt = tuned.measure(problem)
    out(f"Measured at {problem}:")
    out(f"  {'':14}{'naive':>14}{'tuned':>14}{'change':>10}")
    for label, a, b in (
        ("loads", naive.loads_papi, opt.loads_papi),
        ("L1 misses", naive.l1_misses, opt.l1_misses),
        ("L2 misses", naive.l2_misses, opt.l2_misses),
        ("TLB misses", naive.tlb_misses, opt.tlb_misses),
        ("cycles", int(naive.cycles), int(opt.cycles)),
    ):
        change = f"{(b - a) / a * 100:+.0f}%" if a else "n/a"
        out(f"  {label:14}{a:>14,}{b:>14,}{change:>10}")
    out(f"  {'MFLOPS':14}{naive.mflops:>14.1f}{opt.mflops:>14.1f}"
        f"{opt.mflops / naive.mflops:>9.1f}x")
    out(f"  ({100 * opt.mflops / machine.peak_mflops:.1f}% of the machine's "
        f"{machine.peak_mflops:.0f} MFLOPS peak)")
    return "\n".join(lines)
