"""Known-fault injection for the mutation smoke mode.

A verification harness that has never caught a bug proves nothing, so
``repro verify smoke`` plants real bugs: each named fault below flips
one decision inside the batched kernel's fast path
(:func:`repro.core.kernel._probe_fast`) or the speculation layer's
guard/abort machinery (:mod:`repro.core.speculate`) the way a
plausible regression would, and the differential fuzzer must detect
the divergence within its budget.  The seam is the kernel's active-fault latch, reached
through the backend facade (:func:`repro.core.backend.set_active_fault`);
it is only ever set through the :func:`inject` context manager and
therefore never leaks into production runs.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator

from ..core import backend as execution

__all__ = ["KERNEL_FAULTS", "inject"]

#: fault name -> what the planted bug does to the fast path.
KERNEL_FAULTS: Dict[str, str] = {
    "lru_victim_off_by_one": (
        "the inlined LRU scan evicts the way AFTER the least recently "
        "used one"
    ),
    "dropped_trivial_mask": (
        "the vectorized trivial-operand mask is discarded, so trivial "
        "operations flow into the table under EXCLUDE"
    ),
    "wrong_set_index_mask": (
        "the set-index mask loses its top bit, aliasing half the sets"
    ),
    "stale_tag_on_abort": (
        "a miss inserts under the previous probe's tag (a stale tag "
        "latch), corrupting future lookups"
    ),
    "mantissa_tag_keeps_exponent": (
        "mantissa-only tables tag float operands with their full bit "
        "patterns, so operands differing only in sign or exponent miss"
    ),
    "integrated_trivial_as_bypass": (
        "INTEGRATED trivial operations are charged as EXCLUDE bypasses, "
        "dropping trivial_hits and the memoized machine's hit latency"
    ),
    "speculate_guard_false_pass": (
        "the speculative region guard always passes, committing a "
        "trained region plan even when the operand sequence changed"
    ),
    "speculate_abort_drops_stats": (
        "a speculative abort re-executes the region but drops its "
        "in-flight lookup/hit/insert counters on the floor"
    ),
}

assert (
    tuple(KERNEL_FAULTS)
    == execution.KERNEL_FAULTS + execution.SPECULATE_FAULTS
)


@contextlib.contextmanager
def inject(name: str) -> Iterator[None]:
    """Activate one named kernel fault for the duration of the block."""
    if name not in KERNEL_FAULTS:
        raise ValueError(
            f"unknown fault {name!r}; known: {', '.join(KERNEL_FAULTS)}"
        )
    previous = execution.active_fault()
    execution.set_active_fault(name)
    try:
        yield
    finally:
        execution.set_active_fault(previous)
