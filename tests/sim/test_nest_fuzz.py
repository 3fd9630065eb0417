"""Differential fuzzing over generated loop nests: fast path vs reference.

A seeded generator writes small affine nests in the textual frontend
(:mod:`repro.frontend.parser`): depth 2-4, unit, strided, offset and
transposed subscripts, a reduction, optionally a scalar temporary and a
software prefetch.  Each nest runs through ``execute`` on the fast path
and with ``reference=True`` (the per-access scalar simulator), on the
four registry machines and two synthetic ones, with a 4-way L1 and a
four-set TLB.  Every counter must be equal and cycles must agree within
``CYCLES_RTOL``.
"""

from __future__ import annotations

import random

import pytest

from repro.frontend.parser import parse_kernel
from repro.machines import MACHINES
from repro.sim.executor import execute

from tests.test_sim_parity import ALL_MACHINES, CYCLES_RTOL, SYNTHETIC_MACHINES

FUZZ_MACHINES = tuple(MACHINES[name] for name in ALL_MACHINES) + tuple(
    m for m in SYNTHETIC_MACHINES if m.name in ("l1-4way", "tlb-4set")
)

COUNTERS = (
    "loads",
    "stores",
    "prefetches",
    "dropped_prefetches",
    "flops",
    "loop_iterations",
    "cache_hits",
    "cache_misses",
    "tlb_hits",
    "tlb_misses",
)

_VARS = ("I", "J", "K", "L")
#: iteration count per loop at each depth (a nest makes ~4-20k accesses)
_SIZE = {2: 64, 3: 16, 4: 8}


def _subscript(rng: random.Random, var: str) -> str:
    shape = rng.choice(("unit", "unit", "offset", "strided"))
    if shape == "offset":
        return f"{var} + {rng.choice((1, 2, 3))}"
    if shape == "strided":
        return f"2 * {var}"
    return var


def _ref(rng: random.Random, name: str, rank: int, loop_vars) -> str:
    picked = rng.sample(loop_vars, rank)
    if rng.random() < 0.3:  # transposed: walk the slow dimension fastest
        picked.reverse()
    return f"{name}[{', '.join(_subscript(rng, v) for v in picked)}]"


def generate_nest(seed: int) -> tuple:
    """Kernel text and its size parameters for one seed."""
    rng = random.Random(seed)
    depth = rng.randint(2, 4)
    loop_vars = list(_VARS[:depth])
    order = loop_vars[:]
    rng.shuffle(order)
    arrays = {name: rng.randint(1, min(3, depth)) for name in ("A", "B")}
    arrays["C"] = rng.randint(1, min(3, depth - 1))  # a reduction target
    # every extent covers the largest subscript (2 * N) plus a prefetch
    extent = "2 * N + 12"
    decls = (f"{n}[{', '.join([extent] * rank)}]" for n, rank in arrays.items())
    lines = [f"kernel fuzz{seed}(N):", "    array " + ", ".join(decls)]
    indent = "    "
    for var in order:
        step = rng.choice((1, 1, 1, 2))
        lines.append(f"{indent}do {var} = 1, N" + (f", {step}:" if step > 1 else ":"))
        indent += "    "
    inner = order[-1]
    if rng.random() < 0.4:
        ahead = [f"{inner} + {rng.choice((4, 8))}"] + ["1"] * (arrays["A"] - 1)
        lines.append(f"{indent}prefetch A[{', '.join(ahead)}]")
    target = _ref(rng, "C", arrays["C"], loop_vars)
    reads = [_ref(rng, n, arrays[n], loop_vars) for n in ("A", "B")]
    if rng.random() < 0.3:
        lines.append(f"{indent}t = {reads[0]} * 2.0")
        reads[0] = "t"
    lines.append(f"{indent}{target} = {target} + {reads[0]} * {reads[1]}")
    return "\n".join(lines) + "\n", {"N": _SIZE[depth]}


def _assert_parity(text: str, params) -> None:
    kernel = parse_kernel(text)
    for machine in FUZZ_MACHINES:
        ref = execute(kernel, params, machine, reference=True)
        fast = execute(kernel, params, machine)
        for attr in COUNTERS:
            assert getattr(fast, attr) == getattr(ref, attr), (machine.name, attr, text)
        assert fast.cycles == pytest.approx(ref.cycles, rel=CYCLES_RTOL), machine.name


# seed 3 once caught a 4-way L1 whose hits and misses never reached the
# L1 counters (the old per-head dictionary classifier)
@pytest.mark.parametrize("seed", range(40))
def test_generated_nest_matches_reference(seed):
    _assert_parity(*generate_nest(seed))


def test_generator_covers_its_shapes():
    """The sweep really produces every nest feature it claims to."""
    texts = [generate_nest(seed)[0] for seed in range(40)]
    for feature in ("prefetch", "2 * ", " + 1", "t = ", "do L"):
        assert any(feature in text for text in texts), feature
    assert any(", 2:" in text for text in texts)  # a strided loop
