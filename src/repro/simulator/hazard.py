"""Hazard-aware pipeline model (sections 2.2-2.3 dynamics).

The paper's headline cycle counts deliberately ignore pipelining (see
:mod:`repro.simulator.pipeline`), but its *architecture* discussion is
about hazards: a non-pipelined divider "throws a wrench" into the
pipeline with structural and data hazards, MEMO-TABLE hits cut the
latency dependent instructions wait on, and a table port can stand in
for a duplicated unit to raise the issue rate.

This model executes a dependency-annotated trace (the recorder attaches
``dst``/``srcs`` value ids) on an in-order machine with:

* configurable issue width (1 = scalar, 2+ = superscalar);
* RAW hazards: an instruction issues only when its source values are
  ready;
* structural hazards: iterative units (divide, sqrt, reciprocal,
  log/sin/cos) are busy until they complete; multipliers and adders are
  pipelined with single-cycle initiation;
* loads/stores through the two-level cache hierarchy;
* optionally, a MEMO-TABLE bank -- hits complete in one cycle and
  *release the iterative unit immediately* (the unit "is aborted and
  signals it is free", section 2.2).

A run has two phases.  First every event's latency is resolved in bulk
(:func:`repro.core.backend.event_latencies`): each memo unit sees its
own operand subsequence in one batched probe and the cache hierarchy
its own address sequence, and neither depends on issue timing.  Then
the in-order issue recurrence walks plain per-event columns (latency,
iterative unit, destination, sources), where a hit has already cleared
the event's iterative unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..arch.latency import ProcessorModel
from ..core import backend as execution
from ..core.bank import MemoTableBank
from ..core.operations import Operation
from ..isa.columns import _F_DST, ColumnBatch
from ..isa.opcodes import OPCODE_LIST
from ..isa.trace import TraceEvent
from .cache import MemoryHierarchy, default_hierarchy

__all__ = ["HazardReport", "HazardModel", "NON_PIPELINED"]

#: Operations whose units are iterative (not pipelined): a new operation
#: cannot start until the previous one leaves the unit.  Matches the
#: paper's Table 1 discussion ("none of these processors pipeline their
#: division units").
NON_PIPELINED = frozenset(
    {
        Operation.FP_DIV,
        Operation.INT_DIV,
        Operation.FP_SQRT,
        Operation.FP_RECIP,
        Operation.FP_LOG,
        Operation.FP_SIN,
        Operation.FP_COS,
    }
)

_OPERATIONS = tuple(Operation)

#: Opcode code -> the iterative unit it occupies (an index into
#: ``_OPERATIONS``), or -1 for pipelined and non-arithmetic opcodes.
_ITERATIVE_UNIT = np.array(
    [
        _OPERATIONS.index(opcode.operation)
        if opcode.operation in NON_PIPELINED else -1
        for opcode in OPCODE_LIST
    ],
    dtype=np.int64,
)


@dataclass
class HazardReport:
    """Timing outcome of one hazard-aware run."""

    machine: str = ""
    issue_width: int = 1
    instructions: int = 0
    total_cycles: int = 0
    raw_stall_cycles: int = 0
    structural_stall_cycles: int = 0
    issue_slots_used: int = 0
    hit_ratios: Dict[Operation, float] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        """Instructions per cycle actually achieved."""
        if not self.total_cycles:
            return 0.0
        return self.instructions / self.total_cycles

    @property
    def stall_fraction(self) -> float:
        """Fraction of issue delay attributable to hazards."""
        if not self.total_cycles:
            return 0.0
        return (
            self.raw_stall_cycles + self.structural_stall_cycles
        ) / self.total_cycles


class HazardModel:
    """In-order, multi-issue, hazard-tracking trace executor."""

    def __init__(
        self,
        machine: ProcessorModel,
        bank: Optional[MemoTableBank] = None,
        hierarchy: Optional[MemoryHierarchy] = None,
        issue_width: int = 1,
        fp_add_latency: int = 3,
    ) -> None:
        if issue_width < 1:
            raise ValueError(f"issue width must be >= 1, got {issue_width}")
        self.machine = machine
        self.bank = bank
        self.hierarchy = hierarchy if hierarchy is not None else default_hierarchy()
        self.issue_width = issue_width
        self.fp_add_latency = fp_add_latency
        if bank is not None:
            for op, unit in bank.units.items():
                unit.latency = machine.latency(op)

    def run(self, events: Iterable[TraceEvent]) -> HazardReport:
        """Execute ``events`` (a Trace, a ColumnBatch or any event
        iterable, consumed once) and report its timing."""
        return self.run_widths(events, (self.issue_width,))[0]

    def run_widths(
        self, events: Iterable[TraceEvent], widths: Sequence[int]
    ) -> List[HazardReport]:
        """One report per issue width in ``widths``, as :meth:`run`
        would give for each on a fresh bank and hierarchy.

        Latencies, hits and the cache walk do not depend on the issue
        width, so phase 1 runs once -- the bank and the hierarchy see
        the trace once -- and only the issue recurrence repeats."""
        for width in widths:
            if width < 1:
                raise ValueError(f"issue width must be >= 1, got {width}")
        batch = _columns(events)
        bank = self.bank
        # Phase 1: every event's latency (a hit costs the hit latency)
        # and which events hit, resolved ahead of issue.
        latencies, hits = execution.event_latencies(
            batch,
            bank.units if bank is not None else None,
            self.machine,
            self.hierarchy,
            self.fp_add_latency,
        )
        # A hit aborts the iterative unit: the event does not occupy it.
        units = _ITERATIVE_UNIT[batch.views().opcode]
        units[hits] = -1
        columns = (latencies.tolist(), units.tolist()) + _dependency_slots(
            batch
        )
        hit_ratios = (
            {op: unit.hit_ratio for op, unit in bank.units.items()}
            if bank is not None else {}
        )
        reports = []
        for width in widths:
            # Phase 2: the issue recurrence over plain columns.
            total, raw, structural = _issue(*columns, issue_width=width)
            reports.append(HazardReport(
                machine=self.machine.name,
                issue_width=width,
                instructions=len(batch),
                total_cycles=total,
                raw_stall_cycles=raw,
                structural_stall_cycles=structural,
                issue_slots_used=len(batch),
                hit_ratios=dict(hit_ratios),
            ))
        return reports


def _columns(events) -> ColumnBatch:
    """The columnar view of ``events``, converting an event iterable
    (consumed once) when there is none."""
    batch = execution.as_batch(events)
    if batch is None:
        batch = ColumnBatch.from_events(events)
    return batch


def _dependency_slots(
    batch: ColumnBatch,
) -> Tuple[List[int], List[int], List[int], List[Optional[List[int]]], int]:
    """Each event's destination and sources as dense slot numbers.

    Value ids are renumbered ``0..k-1`` so the recurrence keeps ready
    times in a list.  Slot ``k`` is "no source" (never written, so
    always ready at cycle 0) and slot ``k + 1`` is where events without
    an ``_F_DST`` destination write (never read).  Returns per-event
    ``(dst, first source, second source, further sources or None)``
    lists and the slot count ``k + 2``.
    """
    views = batch.views()
    n = len(batch)
    has_dst = np.bitwise_and(views.flags, _F_DST) != 0
    dst_ids = views.dst[has_dst]
    srcs = np.frombuffer(batch.srcs_col, dtype=np.int64)
    ids, slots = np.unique(
        np.concatenate((dst_ids, srcs)), return_inverse=True
    )
    no_source = len(ids)
    dst = np.full(n, no_source + 1, dtype=np.int64)
    dst[has_dst] = slots[:len(dst_ids)]
    src_slots = slots[len(dst_ids):]
    offsets = np.frombuffer(batch.src_offsets, dtype=np.uint64).astype(np.int64)
    lo = offsets[:-1]
    counts = np.diff(offsets)
    first = np.full(n, no_source, dtype=np.int64)
    second = np.full(n, no_source, dtype=np.int64)
    first[counts >= 1] = src_slots[lo[counts >= 1]]
    second[counts >= 2] = src_slots[lo[counts >= 2] + 1]
    further: List[Optional[List[int]]] = [None] * n
    for i in np.flatnonzero(counts > 2).tolist():
        further[i] = src_slots[lo[i] + 2:offsets[i + 1]].tolist()
    return (
        dst.tolist(), first.tolist(), second.tolist(), further,
        no_source + 2,
    )


def _issue(
    latencies: List[int],
    units: List[int],
    dsts: List[int],
    firsts: List[int],
    seconds: List[int],
    furthers: List[Optional[List[int]]],
    n_slots: int,
    issue_width: int,
) -> Tuple[int, int, int]:
    """The in-order, multi-issue RAW + structural hazard recurrence.

    Per event: its latency, the iterative unit it occupies (-1 for
    none) and its destination and source slots (see
    :func:`_dependency_slots`).  Returns ``(total_cycles,
    raw_stall_cycles, structural_stall_cycles)``.
    """
    ready = [0] * n_slots               # slot -> cycle available
    unit_free = [0] * len(_OPERATIONS)  # iterative unit -> free cycle
    cycle = 0            # cycle of the previous issue (in-order floor)
    slots_left = issue_width
    last_completion = 0
    raw_total = structural_total = 0
    for latency, unit, dst, first, second, further in zip(
        latencies, units, dsts, firsts, seconds, furthers
    ):
        # In-order issue: no earlier than the previous instruction.
        earliest = cycle if slots_left else cycle + 1

        # RAW hazard: wait for source values.
        start = earliest
        when = ready[first]
        if when > start:
            start = when
        when = ready[second]
        if when > start:
            start = when
        if further is not None:
            for slot in further:
                when = ready[slot]
                if when > start:
                    start = when
        raw_total += start - earliest

        # Structural hazard: iterative unit still busy (a memo hit
        # bypassed the unit, so its id is already -1).
        if unit >= 0:
            free_at = unit_free[unit]
            if free_at > start:
                structural_total += free_at - start
                start = free_at
            completion = start + latency
            unit_free[unit] = completion
        else:
            completion = start + latency

        if start > cycle:
            slots_left = issue_width
        slots_left -= 1
        cycle = start
        ready[dst] = completion
        if completion > last_completion:
            last_completion = completion
    return last_completion, raw_total, structural_total


def hazard_speedup(
    machine: ProcessorModel,
    events,
    memoized=(Operation.FP_MUL, Operation.FP_DIV),
    issue_width: int = 1,
) -> Dict[str, float]:
    """Convenience: run a trace with and without MEMO-TABLES.

    Returns baseline/memoized cycle counts and their ratio under the
    hazard-aware model.  ``events`` is converted to columns once and
    both runs read that batch, so a one-shot iterable works too.
    """
    batch = _columns(events)
    baseline = HazardModel(machine, issue_width=issue_width).run(batch)
    bank = MemoTableBank.paper_baseline(
        operations=memoized, latencies=machine.latencies()
    )
    memo = HazardModel(machine, bank=bank, issue_width=issue_width).run(batch)
    return {
        "baseline_cycles": baseline.total_cycles,
        "memo_cycles": memo.total_cycles,
        "speedup": (
            baseline.total_cycles / memo.total_cycles
            if memo.total_cycles
            else 1.0
        ),
        "baseline_ipc": baseline.ipc,
        "memo_ipc": memo.ipc,
    }
