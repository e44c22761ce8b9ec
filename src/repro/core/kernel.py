"""The batched memo-probe kernel: one inner loop for every simulator.

Every paper experiment boils down to "replay an operand stream through a
MEMO-TABLE and count" (sections 2-4).  Historically that probe sequence
was re-implemented as a per-record Python loop in each front-end
(``simulator/shade.py``, ``simulator/cpu.py``, ``simulator/pipeline.py``
and the corpus replay path); this module is the single shared
implementation, in two forms:

* :func:`run_events` / :func:`probe_batch` -- the **batched** path.  A
  columnar :class:`~repro.isa.columns.ColumnBatch` is partitioned by
  opcode with numpy, index/tag columns and trivial-operand masks are
  precomputed per partition, and a tight loop probes the table directly
  (replicating :class:`~repro.core.memo_table.MemoTable` semantics --
  clock, LRU recency, replacement, every counter -- exactly).
* :func:`run_events_scalar` -- the retained **scalar reference** path:
  the classic event-at-a-time loop over ``unit.execute``.  CI asserts
  the two produce bit-identical :class:`~repro.core.stats.MemoStats` on
  every bundled program.

Which form runs is decided by the execution-backend registry
(:mod:`repro.core.backend`): both paths are registered there (as
``scalar`` and ``batched``, next to the LUT-fused ``fused`` kernel of
:mod:`repro.core.fused`), and ``repro <experiment> --backend NAME`` or
the ``REPRO_BACKEND`` environment variable picks one at runtime
(``--scalar``/``REPRO_SCALAR`` remain as deprecated aliases).

Batching by opcode is sound because each operation class owns a private
MEMO-TABLE: per-table outcomes depend only on that operation's
subsequence, which partitioning preserves in order.  The one stateful
resource shared *across* opcodes -- the cache hierarchy -- is walked in
original interleaved order.

This is deliberately the only module allowed to contain a per-record
probe loop; ``repro lint`` rule REPRO006 flags new ones anywhere else.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .. import obs
from ..isa.columns import ColumnBatch
from ..isa.opcodes import OPCODE_INDEX, OPCODE_LIST, Opcode
from .config import OperandKind, TagMode, TrivialPolicy
from .memo_table import InfiniteMemoTable, MemoTable, _Entry
from .operations import Operation, compute_function
from .replacement import LRUPolicy

__all__ = [
    "KERNEL_FAULTS",
    "KernelReport",
    "PartitionOutcomes",
    "event_latencies",
    "run_events",
    "run_events_scalar",
    "probe_batch",
    "probe_one",
    "table_probe_batch",
    "replay_infinite",
    "as_batch",
    "scalar_mode",
    "set_scalar_mode",
    "values_match",
]

# Flag bits mirrored from repro.isa.columns (kept numeric to avoid
# importing private names in the hot path).
_F_INT = 1
_F_ADDRESS = 2
_F_PC = 4
_F_DST = 8
_F_WIDE = 16

_MANT_MASK = (1 << 52) - 1


# -- fault injection seam (mutation smoke) ----------------------------------
#
# ``repro verify smoke`` proves the differential harness can catch real
# kernel regressions: each named fault below perturbs the batched fast
# path the way a plausible bug would, and the harness must flag the
# divergence within its default budget.  The seam is a single module
# global read once per batch; it is only ever set (briefly) by
# ``repro.verify.faults.inject`` and is never active in production runs.

KERNEL_FAULTS = (
    "lru_victim_off_by_one",
    "dropped_trivial_mask",
    "wrong_set_index_mask",
    "stale_tag_on_abort",
    "mantissa_tag_keeps_exponent",
    "integrated_trivial_as_bypass",
)

_active_fault: Optional[str] = None


def scalar_mode() -> bool:
    """True when the selected execution backend is ``scalar``.

    Compatibility shim over :func:`repro.core.backend.selected_name`
    (which also honours the legacy ``REPRO_SCALAR`` toggle)."""
    from . import backend

    return backend.scalar_mode()


def set_scalar_mode(enabled: bool) -> None:
    """Deprecated alias for :func:`repro.core.backend.set_backend`:
    force the ``scalar`` backend (True) or restore the default
    ``batched`` backend (False); either way the choice is mirrored
    into ``REPRO_BACKEND`` so worker pools inherit it."""
    from . import backend

    backend.set_scalar_mode(enabled)


def as_batch(events) -> Optional[ColumnBatch]:
    """The columnar view of ``events`` if one is available.

    :class:`~repro.isa.trace.Trace` converts (and caches) on demand;
    a :class:`ColumnBatch` is returned as-is; plain event sequences
    return None (callers fall back to the scalar path)."""
    if isinstance(events, ColumnBatch):
        return events
    columns = getattr(events, "columns", None)
    if callable(columns):
        return columns()
    return None


def values_match(computed, traced, rel: float = 1e-12) -> bool:
    """Validation comparison: exact, both-NaN, or within ``rel``."""
    if computed == traced:
        return True
    try:
        if computed != computed and traced != traced:  # both NaN
            return True
        return abs(computed - traced) <= rel * max(abs(computed), abs(traced))
    except (TypeError, OverflowError):
        return False


@dataclass
class KernelReport:
    """What one kernel pass over a trace (or slice) produced.

    Front-ends adapt this into their own report types: ``counts`` is
    both the Shade frequency breakdown and the cycle model's per-opcode
    instruction counts; cycle fields are zero when no machine model was
    supplied (pure statistics collection)."""

    instructions: int = 0
    counts: Dict[Opcode, int] = field(default_factory=dict)
    mismatches: int = 0
    base_cycles: int = 0
    memo_cycles: int = 0
    cycles_by_opcode: Dict[Opcode, int] = field(default_factory=dict)
    #: Region-speculation accounting, attached by the ``speculative``
    #: backend (a :class:`repro.core.speculate.SpeculationStats`); None
    #: from every other probe path.
    speculation: Optional[object] = None


# -- single-event adapters --------------------------------------------------


def probe_one(unit, a, b=0.0):
    """Scalar probe of one unit (= ``unit.execute``).

    The event-at-a-time reference the differential driver compares the
    batch paths against.  Models that need per-event outcomes do not
    need it: a unit's outcomes depend only on its own operand
    subsequence, so :func:`event_latencies` resolves them in bulk."""
    return unit.execute(a, b)


def table_probe_batch(
    table,
    a_values: Sequence,
    b_values: Sequence,
    compute: Callable,
) -> Tuple[List, List[bool]]:
    """Batched :meth:`~repro.core.memo_table.BaseMemoTable.access`.

    Probes every operand pair in order, computing and inserting on each
    miss; returns ``(values, hits)`` lists.  Statistics accumulate on
    the table exactly as the scalar protocol would."""
    values = []
    hits = []
    access = table.access
    for a, b in zip(a_values, b_values):
        value, hit = access(a, b, compute)
        values.append(value)
        hits.append(hit)
    return values, hits


class PartitionOutcomes:
    """Per-event outcomes of one partition probe, in partition order.

    Pass an empty instance as ``outcomes=`` to :func:`probe_batch`;
    the probe appends each event's memo-machine cycles (what
    ``unit.execute(a, b).cycles`` would report) to :attr:`cycles` and
    its hit flag (``.hit``) to :attr:`hits`."""

    __slots__ = ("cycles", "hits")

    def __init__(self) -> None:
        self.cycles: List[int] = []
        self.hits: List[bool] = []


# -- the probe kernel -------------------------------------------------------


def _trivial_mask(operation: Operation, a, b):
    """Vectorized trivial-operand detector (matches repro.core.trivial:
    value comparisons, so -0.0 is zero and NaN is never trivial)."""
    if operation is Operation.FP_MUL or operation is Operation.INT_MUL:
        return (a == 0) | (b == 0) | (a == 1) | (b == 1) | (a == -1) | (b == -1)
    if operation is Operation.FP_DIV or operation is Operation.INT_DIV:
        return (b == 1) | (b == -1) | ((a == 0) & (b != 0))
    if operation is Operation.FP_SQRT:
        return (a == 0) | (a == 1)
    if operation is Operation.FP_RECIP:
        return (a == 1) | (a == -1)
    if operation is Operation.FP_LOG:
        return a == 1
    if operation is Operation.FP_SIN or operation is Operation.FP_COS:
        return a == 0
    return np.zeros(len(a), dtype=bool)  # pragma: no cover - exhaustive


def _set_indices(config, np_a, np_b, mask: Optional[int] = None):
    """Vectorized table set index for each operand pair.

    The single source of truth for the set-mapping formula: the probe
    fast path and any analysis layer that models table placement both
    call this, so they can never drift apart.  INT operands xor their
    values; FLOAT operands xor the top bits of their mantissas (the
    exponent is deliberately excluded -- see the table design notes).
    ``mask`` overrides ``config.n_sets - 1`` (the fault-injection seam
    narrows it to model a set-indexing bug).
    """
    if mask is None:
        mask = config.n_sets - 1
    if config.operand_kind is OperandKind.INT:
        return np.bitwise_and(np.bitwise_xor(np_a, np_b), mask)
    shift = np.uint64(52 - mask.bit_length())
    mant_a = np.bitwise_and(np_a.view(np.uint64), np.uint64(_MANT_MASK))
    mant_b = np.bitwise_and(np_b.view(np.uint64), np.uint64(_MANT_MASK))
    return np.bitwise_and(
        np.bitwise_xor(mant_a >> shift, mant_b >> shift),
        np.uint64(mask),
    )


def probe_batch(
    unit,
    a_values: Sequence,
    b_values: Sequence,
    results: Optional[Sequence] = None,
    validate: bool = False,
    _np_a=None,
    _np_b=None,
    _idx=None,
    outcomes: Optional[PartitionOutcomes] = None,
) -> Tuple[int, int, int]:
    """Present a same-operation operand batch to one memoized unit.

    Returns ``(base_cycles, memo_cycles, mismatches)``.  All unit and
    table statistics land exactly where ``unit.execute`` would put them.
    The vectorized fast path engages for every trivial policy and tag
    mode on the stock table types (:class:`MemoTable`,
    :class:`InfiniteMemoTable`) with type-homogeneous operands; only
    validation runs, custom table classes and mixed int/float or wide
    partitions take the generic tier, which loops ``unit.execute`` and
    is therefore correct by construction.

    With ``outcomes`` (a fresh :class:`PartitionOutcomes`), every
    event's memo cycles and hit flag are appended to it as well; the
    return value and the statistics are the same either way.

    With metrics enabled (:func:`repro.obs.enabled`), each partition is
    additionally timed as a ``kernel.partition.<OP>`` span and its
    probe/insert/evict counter deltas stream into the registry --
    one snapshot per *batch*, never per event, and nothing at all when
    the switch is off.
    """
    if not obs.enabled():
        return _probe_batch(
            unit, a_values, b_values, results, validate, _np_a, _np_b,
            outcomes=outcomes,
        )
    return instrument_partition(
        unit,
        lambda: _probe_batch(
            unit, a_values, b_values, results, validate, _np_a, _np_b,
            outcomes=outcomes,
        ),
    )


def instrument_partition(unit, thunk):
    """Time ``thunk()`` as a ``kernel.partition.<OP>`` span and stream
    the unit's counter deltas into the metrics registry.  Shared by
    every backend's partition probe (callers check
    :func:`repro.obs.enabled` first)."""
    stats = unit.stats
    before = stats.counters()
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    out = thunk()
    reg = obs.registry()
    name = unit.operation.name
    reg.record_span(
        f"kernel.partition.{name}",
        time.perf_counter() - wall0,
        time.process_time() - cpu0,
    )
    reg.add_counters(
        f"kernel.{name}",
        {key: value - before.get(key, 0)
         for key, value in stats.counters().items()},
    )
    return out


def _probe_batch(
    unit,
    a_values: Sequence,
    b_values: Sequence,
    results: Optional[Sequence] = None,
    validate: bool = False,
    _np_a=None,
    _np_b=None,
    _idx=None,
    outcomes: Optional[PartitionOutcomes] = None,
) -> Tuple[int, int, int]:
    """The uninstrumented :func:`probe_batch` body (tier dispatch)."""
    n = len(a_values)
    if not n:
        return 0, 0, 0
    table = unit.table
    table_type = type(table)
    if not validate and (
        table_type is MemoTable or table_type is InfiniteMemoTable
    ):
        int_kind = table.config.operand_kind is OperandKind.INT
        if _np_a is None:
            _np_a, _np_b = _coerce_operands(a_values, b_values, int_kind)
        if _np_a is not None and int_kind == (_np_a.dtype.kind == "i"):
            return _probe_fast(
                unit, table, a_values, b_values, _np_a, _np_b, outcomes
            )
    execute = unit.execute
    traced = results if validate and results is not None else None
    base = memo = mismatches = 0
    for k, (a, b) in enumerate(zip(a_values, b_values)):
        outcome = execute(a, b)
        base += outcome.base_cycles
        memo += outcome.cycles
        if outcomes is not None:
            outcomes.cycles.append(outcome.cycles)
            outcomes.hits.append(outcome.hit)
        if traced is not None and not values_match(outcome.value, traced[k]):
            mismatches += 1
    return base, memo, mismatches


def _coerce_operands(a_values, b_values, int_kind):
    """numpy operand arrays when the batch is type-homogeneous and in
    range, else ``(None, None)`` (the generic tier handles the rest).
    Exact type checks: bools must not alias ints, and int-typed floats
    must not be silently truncated."""
    want = int if int_kind else float
    if not (
        all(type(v) is want for v in a_values)
        and all(type(v) is want for v in b_values)
    ):
        return None, None
    dtype = np.int64 if int_kind else np.float64
    try:
        return (
            np.asarray(a_values, dtype=dtype),
            np.asarray(b_values, dtype=dtype),
        )
    except (OverflowError, ValueError):
        return None, None


def _probe_fast(unit, table, a_values, b_values, np_a, np_b, outcomes=None):
    """The vectorized inner loop (every trivial policy and tag mode).

    Replicates the scalar semantics counter for counter: the table clock
    advances once per lookup and once per insert, hit recency and
    replacement decisions are identical, and a miss inserts a fresh
    entry (the exact tag was just probed absent, and reversed
    commutative hits never reach insert).  Trivial operations bypass
    the table under EXCLUDE and INTEGRATED (the latter charging them
    as single-cycle hits) and are probed like any other operation
    under CACHE_ALL.  MANTISSA tables tag float operands with their
    52-bit mantissa fields; the exponent fix-up only shapes the value a
    hit delivers, which this tier never returns.  With ``outcomes``,
    the miss path also records its position; per-event cycles and hit
    flags are derived from those and the trivial mask after the
    loop."""
    operation = unit.operation
    config = table.config
    fault = _active_fault
    policy = unit.trivial_policy
    if (
        fault == "integrated_trivial_as_bypass"
        and policy is TrivialPolicy.INTEGRATED
    ):
        policy = TrivialPolicy.EXCLUDE
    trivial_arr = _trivial_mask(operation, np_a, np_b)
    if fault == "dropped_trivial_mask":
        trivial_arr = np.zeros(len(np_a), dtype=bool)
    n_trivial = int(trivial_arr.sum())
    # Trivial operations that bypass the table (all but CACHE_ALL).
    n_bypass = 0 if policy is TrivialPolicy.CACHE_ALL else n_trivial
    trivial_hit = policy is TrivialPolicy.INTEGRATED
    int_kind = config.operand_kind is OperandKind.INT
    if int_kind:
        tags_a, tags_b = np_a.tolist(), np_b.tolist()
    else:
        bits_a = np_a.view(np.uint64)
        bits_b = np_b.view(np.uint64)
        if (
            config.tag_mode is TagMode.MANTISSA
            and fault != "mantissa_tag_keeps_exponent"
        ):
            bits_a = np.bitwise_and(bits_a, np.uint64(_MANT_MASK))
            bits_b = np.bitwise_and(bits_b, np.uint64(_MANT_MASK))
        tags_a, tags_b = bits_a.tolist(), bits_b.tolist()
    tag_pairs = list(zip(tags_a, tags_b))
    a_list = a_values if isinstance(a_values, list) else list(a_values)
    b_list = b_values if isinstance(b_values, list) else list(b_values)
    latency = unit.latency
    hit_latency = unit.hit_latency
    trivial_cycles = min(unit.trivial_latency, latency)
    commutative = config.commutative
    compute_op = compute_function(operation)
    n = len(a_list)
    # Bypassed trivial events only count cycles, so the probe loop walks
    # just the other positions (order within the opcode is preserved).
    if n_bypass:
        iter_idx = np.nonzero(~trivial_arr)[0].tolist()
    else:
        iter_idx = range(n)
    lookups = hits = commutative_hits = insertions = evictions = 0
    record_misses = outcomes is not None
    misses: List[int] = []

    if type(table) is MemoTable:
        mask = config.n_sets - 1
        if fault == "wrong_set_index_mask":
            mask >>= 1
        index_list = _set_indices(config, np_a, np_b, mask=mask).tolist()
        sets_ = table._sets
        associativity = config.associativity
        policy = table._policy
        # LRU is the paper's (and default) policy; its argmin-by-recency
        # choice is inlined because the dispatch + list building around
        # ``policy.victim`` dominates miss-heavy traces.
        inline_lru = type(policy) is LRUPolicy
        victim_of = policy.victim
        clock = table._clock
        stale_tag = fault == "stale_tag_on_abort"
        prev_tag = None
        for i in iter_idx:
            clock += 1
            lookups += 1
            tag = tag_pairs[i]
            ways = sets_[index_list[i]]
            entry = None
            for way in ways:
                if way.tag == tag:
                    entry = way
                    break
            reversed_match = False
            if entry is None and commutative:
                swapped = (tag[1], tag[0])
                for way in ways:
                    if way.tag == swapped:
                        entry = way
                        reversed_match = True
                        break
            if entry is not None:
                entry.last_used = clock
                hits += 1
                if reversed_match:
                    commutative_hits += 1
                if stale_tag:
                    prev_tag = tag
                continue
            if record_misses:
                misses.append(i)
            a, b = a_list[i], b_list[i]
            value = compute_op(a, b)
            clock += 1
            insertions += 1
            insert_tag = tag
            if stale_tag and prev_tag is not None:
                insert_tag = prev_tag
            entry = _Entry(insert_tag, value, (a, b), clock)
            if len(ways) < associativity:
                ways.append(entry)
            else:
                if inline_lru:
                    victim = 0
                    oldest = ways[0].last_used
                    for way_i in range(1, associativity):
                        used = ways[way_i].last_used
                        if used < oldest:
                            oldest = used
                            victim = way_i
                    if fault == "lru_victim_off_by_one":
                        victim = (victim + 1) % associativity
                else:
                    victim = victim_of(
                        [w.last_used for w in ways],
                        [w.inserted for w in ways],
                    )
                ways[victim] = entry
                evictions += 1
            if stale_tag:
                prev_tag = tag
        table._clock = clock
    else:  # InfiniteMemoTable
        entries = table._entries
        get = entries.get
        for i in iter_idx:
            lookups += 1
            tag = tag_pairs[i]
            found = get(tag)
            if found is None and commutative:
                found = get((tag[1], tag[0]))
                if found is not None:
                    commutative_hits += 1
            if found is not None:
                hits += 1
                continue
            if record_misses:
                misses.append(i)
            a, b = a_list[i], b_list[i]
            value = compute_op(a, b)
            insertions += 1
            entries[tag] = (value, (a, b))

    # Cycle accounting in bulk: hits cost ``latency`` on the base
    # machine and ``hit_latency`` on the memoized one; misses cost
    # ``latency`` on both; bypassed trivial operations cost
    # ``trivial_cycles`` on the base machine and, on the memoized one,
    # ``hit_latency`` under INTEGRATED (the detector's single-cycle
    # "hit") or ``trivial_cycles`` again under EXCLUDE.
    bypass_cycles = hit_latency if trivial_hit else trivial_cycles
    base = n_bypass * trivial_cycles + lookups * latency
    memo = (
        n_bypass * bypass_cycles
        + hits * hit_latency
        + (lookups - hits) * latency
    )
    if outcomes is not None:
        # Probed events hit unless the loop recorded a miss; bypassed
        # trivial events hit only under INTEGRATED.
        hit_arr = np.ones(n, dtype=bool)
        cycles = np.full(n, hit_latency, dtype=np.int64)
        if n_bypass and not trivial_hit:
            hit_arr[trivial_arr] = False
            cycles[trivial_arr] = trivial_cycles
        hit_arr[misses] = False
        cycles[misses] = latency
        outcomes.cycles.extend(cycles.tolist())
        outcomes.hits.extend(hit_arr.tolist())

    table_stats = table.stats
    table_stats.lookups += lookups
    table_stats.hits += hits
    table_stats.commutative_hits += commutative_hits
    table_stats.insertions += insertions
    table_stats.evictions += evictions
    unit_stats = unit.stats
    unit_stats.operations += n
    unit_stats.trivial += n_trivial
    if trivial_hit:
        unit_stats.trivial_hits += n_trivial
    unit_stats.cycles_base += base
    unit_stats.cycles_memo += memo
    return base, memo, 0


# -- whole-trace execution --------------------------------------------------


def run_events(
    events,
    units: Optional[Dict[Operation, object]],
    *,
    machine=None,
    hierarchy=None,
    fp_add_latency: int = 3,
    validate: bool = False,
    scalar: bool = False,
    backend: Optional[str] = None,
    start: int = 0,
    stop: Optional[int] = None,
) -> KernelReport:
    """Run a trace (or an index slice of one) through the kernel.

    With ``machine`` (a :class:`~repro.arch.latency.ProcessorModel`)
    the pass also charges cycles: uncovered memoizable operations cost
    the machine latency, loads/stores go through ``hierarchy``, FADD
    costs ``fp_add_latency`` and everything else one cycle -- the
    section 3.3 accounting.  Without it, only statistics accumulate
    (the Shade-style run).

    Execution strategy is delegated to the backend registry
    (:func:`repro.core.backend.dispatch`): ``backend=`` pins a named
    backend, ``scalar=True`` is the legacy spelling of
    ``backend="scalar"``, and with neither the process-wide selection
    (``REPRO_BACKEND`` / ``--backend``) applies.
    """
    from . import backend as backend_registry

    if backend is None and scalar:
        backend = "scalar"
    return backend_registry.dispatch(
        events, units,
        backend=backend,
        machine=machine, hierarchy=hierarchy,
        fp_add_latency=fp_add_latency, validate=validate,
        start=start, stop=stop,
    )


def run_events_scalar(
    events: Iterable,
    units: Optional[Dict[Operation, object]],
    *,
    machine=None,
    hierarchy=None,
    fp_add_latency: int = 3,
    validate: bool = False,
) -> KernelReport:
    """The scalar reference loop (one ``unit.execute`` per event).

    This is the consolidation of the per-record loops the simulator
    front-ends used to carry; it stays as the ground truth the batched
    path is tested against, and as the fallback for plain event
    iterables."""
    counts: Dict[Opcode, int] = {}
    cycles_by_opcode: Dict[Opcode, int] = {}
    instructions = 0
    mismatches = 0
    base_total = memo_total = 0
    cycle_mode = machine is not None
    for event in events:
        instructions += 1
        opcode = event.opcode
        counts[opcode] = counts.get(opcode, 0) + 1
        operation = opcode.operation  # cached on the enum member
        if operation is not None:
            unit = units.get(operation) if units else None
            if unit is not None:
                outcome = unit.execute(event.a, event.b)
                if validate and not values_match(outcome.value, event.result):
                    mismatches += 1
                if not cycle_mode:
                    continue
                base = outcome.base_cycles
                memo = outcome.cycles
            elif cycle_mode:
                base = memo = machine.latency(operation)
            else:
                continue
        elif cycle_mode:
            if opcode.is_memory:
                address = event.address if event.address is not None else 0
                base = memo = (
                    hierarchy.access(address) if hierarchy is not None else 1
                )
            elif opcode is Opcode.FADD:
                base = memo = fp_add_latency
            else:
                base = memo = 1  # IALU, BRANCH, NOP
        else:
            continue
        base_total += base
        memo_total += memo
        cycles_by_opcode[opcode] = cycles_by_opcode.get(opcode, 0) + base
    return KernelReport(
        instructions=instructions,
        counts=counts,
        mismatches=mismatches,
        base_cycles=base_total,
        memo_cycles=memo_total,
        cycles_by_opcode=cycles_by_opcode,
    )


def _decode_partition(batch, views, idx, want_results):
    """Operand value lists (and numpy arrays when type-homogeneous)
    for the events at ``idx``."""
    flags = views.flags[idx]
    if batch.wide and bool(np.bitwise_and(flags, _F_WIDE).any()):
        triples = [batch.operand_triple(i) for i in idx.tolist()]
        a_values = [t[0] for t in triples]
        b_values = [t[1] for t in triples]
        results = [t[2] for t in triples] if want_results else None
        return a_values, b_values, results, None, None
    int_flags = np.bitwise_and(flags, _F_INT)
    if not int_flags.any():
        np_a, np_b = views.a_f[idx], views.b_f[idx]
        results = views.r_f[idx].tolist() if want_results else None
    elif int_flags.all():
        np_a, np_b = views.a_i[idx], views.b_i[idx]
        results = views.r_i[idx].tolist() if want_results else None
    else:
        is_int = int_flags.tolist()
        a_f, b_f = views.a_f[idx].tolist(), views.b_f[idx].tolist()
        a_i, b_i = views.a_i[idx].tolist(), views.b_i[idx].tolist()
        a_values = [a_i[k] if is_int[k] else a_f[k] for k in range(len(is_int))]
        b_values = [b_i[k] if is_int[k] else b_f[k] for k in range(len(is_int))]
        results = None
        if want_results:
            r_f, r_i = views.r_f[idx].tolist(), views.r_i[idx].tolist()
            results = [
                r_i[k] if is_int[k] else r_f[k] for k in range(len(is_int))
            ]
        return a_values, b_values, results, None, None
    return np_a.tolist(), np_b.tolist(), results, np_a, np_b


def _run_batch(
    batch: ColumnBatch,
    units,
    machine,
    hierarchy,
    fp_add_latency: int,
    validate: bool,
    start: int,
    stop: int,
    probe: Optional[Callable] = None,
) -> KernelReport:
    """Opcode-partitioned batched execution of ``batch[start:stop]``.

    ``probe`` swaps the per-partition probe implementation (signature
    of :func:`probe_batch`); backends reuse the partitioning, memory
    walk and FADD/IALU accounting while supplying their own probe
    loop."""
    if probe is None:
        probe = probe_batch
    views = batch.views()
    opcode_codes = views.opcode[start:stop]
    count_list = np.bincount(opcode_codes, minlength=len(OPCODE_LIST)).tolist()
    counts = {
        OPCODE_LIST[code]: count
        for code, count in enumerate(count_list)
        if count
    }
    cycle_mode = machine is not None
    base_total = memo_total = 0
    mismatches = 0
    cycles_by_opcode: Dict[Opcode, int] = {}

    for opcode, count in counts.items():
        operation = opcode.operation
        if operation is None:
            continue
        unit = units.get(operation) if units else None
        if unit is None:
            if cycle_mode:
                lat = machine.latency(operation) * count
                cycles_by_opcode[opcode] = lat
                base_total += lat
                memo_total += lat
            continue
        relative = np.nonzero(opcode_codes == OPCODE_INDEX[opcode])[0]
        idx = relative + start if start else relative
        a_values, b_values, results, np_a, np_b = _decode_partition(
            batch, views, idx, validate
        )
        base, memo, bad = probe(
            unit, a_values, b_values,
            results=results, validate=validate, _np_a=np_a, _np_b=np_b,
            _idx=idx,
        )
        mismatches += bad
        if cycle_mode:
            base_total += base
            memo_total += memo
            cycles_by_opcode[opcode] = base

    if cycle_mode:
        for opcode in (Opcode.IALU, Opcode.BRANCH, Opcode.NOP):
            count = counts.get(opcode, 0)
            if count:
                cycles_by_opcode[opcode] = count
                base_total += count
                memo_total += count
        count = counts.get(Opcode.FADD, 0)
        if count:
            fadd_cycles = count * fp_add_latency
            cycles_by_opcode[Opcode.FADD] = fadd_cycles
            base_total += fadd_cycles
            memo_total += fadd_cycles
        load_count = counts.get(Opcode.LOAD, 0)
        store_count = counts.get(Opcode.STORE, 0)
        if load_count or store_count:
            load_code = OPCODE_INDEX[Opcode.LOAD]
            store_code = OPCODE_INDEX[Opcode.STORE]
            relative = np.nonzero(
                (opcode_codes == load_code) | (opcode_codes == store_code)
            )[0]
            idx = relative + start if start else relative
            if hierarchy is not None:
                cycles = np.array(
                    _walk_memory(hierarchy, views.address[idx]),
                    dtype=np.int64,
                )
                load_cycles = int(cycles[views.opcode[idx] == load_code].sum())
                store_cycles = int(cycles.sum()) - load_cycles
            else:
                load_cycles, store_cycles = load_count, store_count
            if load_count:
                cycles_by_opcode[Opcode.LOAD] = load_cycles
            if store_count:
                cycles_by_opcode[Opcode.STORE] = store_cycles
            base_total += load_cycles + store_cycles
            memo_total += load_cycles + store_cycles

    return KernelReport(
        instructions=int(stop - start),
        counts=counts,
        mismatches=mismatches,
        base_cycles=base_total,
        memo_cycles=memo_total,
        cycles_by_opcode=cycles_by_opcode,
    )


def _walk_memory(hierarchy, addresses) -> List[int]:
    """The latency of each load/store to ``addresses`` (an int64 array).

    The hierarchy is stateful across BOTH memory opcodes, so the
    accesses walk in original interleaved order."""
    return list(map(hierarchy.access, addresses.tolist()))


def event_latencies(
    batch: ColumnBatch,
    units: Optional[Mapping[Operation, object]],
    machine,
    hierarchy=None,
    fp_add_latency: int = 3,
) -> Tuple[np.ndarray, np.ndarray]:
    """Every event's latency on the memoized machine, and its hit flag.

    The per-event form of :func:`_run_batch`'s section 3.3 cycle
    accounting, so the two sum to the same ``memo_cycles``: memoized
    operations cost what their unit reports (each unit's opcode
    partition goes through :func:`probe_batch` with a
    :class:`PartitionOutcomes`), other operations the ``machine``
    latency, loads/stores their ``hierarchy`` latency (one cycle
    without a hierarchy), FADD ``fp_add_latency`` and everything else
    one cycle.  Resolving all of this ahead of any timing model is
    exact: a unit's outcomes depend only on its own operand
    subsequence and the cache's only on the address sequence.

    Returns ``(latencies, hits)`` as int64 and bool arrays over the
    whole batch; unit and table statistics land as with
    :func:`run_events`.
    """
    views = batch.views()
    codes = views.opcode
    count_list = np.bincount(codes, minlength=len(OPCODE_LIST)).tolist()
    by_opcode = np.ones(len(OPCODE_LIST), dtype=np.int64)
    probed = []
    for code, count in enumerate(count_list):
        if not count:
            continue
        opcode = OPCODE_LIST[code]
        operation = opcode.operation
        if operation is not None:
            unit = units.get(operation) if units else None
            if unit is not None:
                probed.append((code, unit))
            else:
                by_opcode[code] = machine.latency(operation)
        elif opcode is Opcode.FADD:
            by_opcode[code] = fp_add_latency
    latencies = by_opcode[codes]
    hits = np.zeros(len(codes), dtype=bool)
    for code, unit in probed:
        idx = np.flatnonzero(codes == code)
        a_values, b_values, _, np_a, np_b = _decode_partition(
            batch, views, idx, False
        )
        outcomes = PartitionOutcomes()
        probe_batch(
            unit, a_values, b_values, _np_a=np_a, _np_b=np_b,
            outcomes=outcomes,
        )
        latencies[idx] = outcomes.cycles
        hits[idx] = outcomes.hits
    if hierarchy is not None:
        load_code = OPCODE_INDEX[Opcode.LOAD]
        store_code = OPCODE_INDEX[Opcode.STORE]
        if count_list[load_code] or count_list[store_code]:
            idx = np.flatnonzero((codes == load_code) | (codes == store_code))
            latencies[idx] = _walk_memory(hierarchy, views.address[idx])
    return latencies, hits


# -- infinite-table replay (reuse upper bound) ------------------------------


def replay_infinite(events) -> Tuple[Dict[int, int], int, int]:
    """Replay memoizable events through per-class infinite MEMO-TABLES.

    Returns ``(per-pc execution counts, hits, total memoizable ops)`` --
    the reuse upper bound the static analyzer cross-validates against
    (``repro analyze --check``).  Column-backed traces take a batched
    path; anything else replays through real
    :class:`~repro.core.memo_table.InfiniteMemoTable` objects.
    """
    batch = None if scalar_mode() else as_batch(events)
    if batch is None:
        return _replay_infinite_scalar(events)
    views = batch.views()
    counts: Dict[int, int] = {}
    hits = 0
    total = 0
    count_list = np.bincount(views.opcode, minlength=len(OPCODE_LIST)).tolist()
    from ..arch.ieee754 import float64_to_bits

    for code, count in enumerate(count_list):
        if not count:
            continue
        opcode = OPCODE_LIST[code]
        operation = opcode.operation
        if operation is None:
            continue
        total += count
        idx = np.nonzero(views.opcode == code)[0]
        flags = views.flags[idx]
        pc_mask = np.bitwise_and(flags, _F_PC) != 0
        if pc_mask.any():
            pcs, pc_counts = np.unique(
                views.pc[idx][pc_mask], return_counts=True
            )
            for pc, pc_count in zip(pcs.tolist(), pc_counts.tolist()):
                counts[pc] = counts.get(pc, 0) + pc_count
        a_values, b_values, _, np_a, np_b = _decode_partition(
            batch, views, idx, False
        )
        int_kind = operation.operand_kind is OperandKind.INT
        if np_a is not None and int_kind == (np_a.dtype.kind == "i"):
            if int_kind:
                tags_a, tags_b = a_values, b_values
            else:
                tags_a = np_a.view(np.uint64).tolist()
                tags_b = np_b.view(np.uint64).tolist()
        elif int_kind:
            tags_a = [int(a) for a in a_values]
            tags_b = [int(b) for b in b_values]
        else:
            tags_a = [float64_to_bits(float(a)) for a in a_values]
            tags_b = [float64_to_bits(float(b)) for b in b_values]
        seen = set()
        add = seen.add
        if operation.commutative:
            for ta, tb in zip(tags_a, tags_b):
                if (ta, tb) in seen or (tb, ta) in seen:
                    hits += 1
                else:
                    add((ta, tb))
        else:
            for ta, tb in zip(tags_a, tags_b):
                if (ta, tb) in seen:
                    hits += 1
                else:
                    add((ta, tb))
    return counts, hits, total


def _replay_infinite_scalar(events) -> Tuple[Dict[int, int], int, int]:
    """Reference implementation of :func:`replay_infinite`."""
    tables: Dict[Operation, InfiniteMemoTable] = {}
    counts: Dict[int, int] = {}
    hits = 0
    total = 0
    for event in events:
        operation = event.opcode.operation
        if operation is None:
            continue
        table = tables.get(operation)
        if table is None:
            table = InfiniteMemoTable(
                operand_kind=operation.operand_kind,
                tag_mode=TagMode.FULL,
                commutative=operation.commutative,
            )
            tables[operation] = table
        found = table.lookup(event.a, event.b)
        if found.hit:
            hits += 1
        else:
            table.insert(event.a, event.b, event.result)
        if event.pc is not None:
            counts[event.pc] = counts.get(event.pc, 0) + 1
        total += 1
    return counts, hits, total
