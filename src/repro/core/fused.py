"""The LUT-fused probe backend: dedup operand pairs, probe integers.

The batched kernel (:mod:`repro.core.kernel`) already vectorizes tag
and set-index computation, but its inner loop still compares Python
tag *tuples* against entry attributes and allocates an
:class:`~repro.core.memo_table._Entry` per miss.  This backend applies
the pLUTo move (PAPERS.md: "treat the table as a precomputed lookup
structure") one level up:

1. ``np.unique`` over the packed ``(tag_a, tag_b)`` pairs of a
   partition maps every event to a dense **pair id** -- one integer
   per distinct operand pair -- and the per-pair facts (set index,
   commutative twin, representative operands, computed value) are
   precomputed or cached once per id, not once per event.
2. The table's ways are mirrored into parallel integer lists
   (pair id, last-used clock, inserted clock) seeded from the live
   :class:`~repro.core.memo_table.MemoTable`, so the probe loop is
   C-speed ``list.index`` over small int lists -- tag compare, hit
   recency, LRU victim selection (``used.index(min(used))``) all fuse
   into integer operations with **zero** entry allocation while the
   loop runs.
3. One materialization pass writes the surviving ways back as real
   ``_Entry`` objects and advances ``table._clock``, leaving the table
   bit-identical -- tags, values, operands, recency, insertion clocks
   -- to what the scalar protocol would have produced.

Bit-exactness argument: FULL tags are the exact operand bit patterns,
so events sharing a pair id are indistinguishable to the table and to
the (deterministic) compute function; replaying clock/recency/victim
semantics per event over pair ids therefore reproduces the scalar
table state and statistics exactly.  The parity suite and the
four-way differential fuzzer (``repro verify fuzz``) enforce this.

Configurations the dense-id trick does not model (validation runs,
mantissa tags, CACHE_ALL/INTEGRATED trivial policies, shared or
infinite tables, non-LRU replacement, mixed-type partitions) delegate
to :func:`repro.core.kernel.probe_batch`, whose vectorized tier covers
every trivial policy, tag mode and replacement policy on the stock
tables; only validation runs, custom tables and mixed or wide
partitions reach its per-event generic tier.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .. import obs
from . import kernel
from .backend import ExecutionBackend, KernelConfig, KernelResult
from .config import OperandKind, TagMode, TrivialPolicy
from .memo_table import MemoTable, _Entry
from .operations import compute_function
from .replacement import LRUPolicy

__all__ = ["FusedBackend", "fused_probe"]

_MANT_MASK = (1 << 52) - 1

#: Distinct sentinel: a computed value may legitimately be None-adjacent
#: falsy (0, 0.0), so cache slots need an impossible marker.
_UNSET = object()


class FusedBackend(ExecutionBackend):
    """Register-name ``fused``: the unique-pair dense-LUT kernel."""

    name = "fused"
    description = "LUT-fused kernel (np.unique pair dedup + integer probe loop)"

    def availability(self) -> Optional[str]:
        # numpy is a hard dependency of the package, so this backend is
        # always runnable; the hook documents where a compiled backend
        # would report a missing toolchain.
        return None

    def probe_batch(self, batch, units, config: KernelConfig) -> KernelResult:
        columns = kernel.as_batch(batch)
        if columns is None:
            from .backend import get

            return get("batched").probe_batch(batch, units, config)
        stop = len(columns) if config.stop is None else config.stop
        return kernel._run_batch(
            columns,
            units,
            config.machine,
            config.hierarchy,
            config.fp_add_latency,
            config.validate,
            config.start,
            stop,
            probe=fused_probe,
        )


def fused_probe(
    unit,
    a_values,
    b_values,
    results=None,
    validate: bool = False,
    _np_a=None,
    _np_b=None,
    _idx=None,
) -> Tuple[int, int, int]:
    """Drop-in replacement for :func:`repro.core.kernel.probe_batch`
    (same signature, same ``(base, memo, mismatches)`` contract)."""
    n = len(a_values)
    if not n:
        return 0, 0, 0
    table = unit.table
    if (
        validate
        or unit.trivial_policy is not TrivialPolicy.EXCLUDE
        or type(table) is not MemoTable
        or table.config.tag_mode is not TagMode.FULL
        or type(table._policy) is not LRUPolicy
    ):
        return kernel.probe_batch(
            unit, a_values, b_values,
            results=results, validate=validate, _np_a=_np_a, _np_b=_np_b,
        )
    int_kind = table.config.operand_kind is OperandKind.INT
    if _np_a is None:
        _np_a, _np_b = kernel._coerce_operands(a_values, b_values, int_kind)
    if _np_a is None or int_kind != (_np_a.dtype.kind == "i"):
        return kernel.probe_batch(
            unit, a_values, b_values, results=results, validate=validate,
        )
    if not obs.enabled():
        return _probe_fused(unit, table, a_values, b_values, _np_a, _np_b)
    return kernel.instrument_partition(
        unit,
        lambda: _probe_fused(unit, table, a_values, b_values, _np_a, _np_b),
    )


def _pair_ids(np_a, np_b, int_kind: bool):
    """Dense ids over distinct operand-bit pairs.

    Returns ``(key_a, key_b, first, inv, u)``: per-id tag-half arrays
    (bit patterns, identical to the batched kernel's tags), the first
    event index carrying each id, the per-event id array, and the id
    count.  Each operand column is deduplicated separately and the
    pair id is built from the two (small) column ids -- three
    primitive-int sorts, markedly faster than one lexicographic sort
    of packed 128-bit keys."""
    if int_kind:
        keys_a, keys_b = np_a, np_b
    else:
        keys_a = np_a.view(np.uint64)
        keys_b = np_b.view(np.uint64)
    vals_a, inv_a = np.unique(keys_a, return_inverse=True)
    vals_b, inv_b = np.unique(keys_b, return_inverse=True)
    nb = len(vals_b)
    combo = inv_a.ravel().astype(np.int64, copy=False) * nb + inv_b.ravel()
    uniq, first_np, inv_np = np.unique(
        combo, return_index=True, return_inverse=True
    )
    return (
        vals_a[uniq // nb],
        vals_b[uniq % nb],
        first_np,
        inv_np.ravel(),
        len(uniq),
    )


def _probe_fused(unit, table, a_values, b_values, np_a, np_b):
    """The fused inner loop (EXCLUDE policy, FULL tags, stock LRU
    MemoTable); mirrors ``kernel._probe_fast`` counter for counter."""
    operation = unit.operation
    config = table.config
    trivial_arr = kernel._trivial_mask(operation, np_a, np_b)
    n = len(a_values)
    n_trivial = int(trivial_arr.sum())
    int_kind = config.operand_kind is OperandKind.INT

    key_a, key_b, first_np, inv_np, u = _pair_ids(np_a, np_b, int_kind)
    first = first_np.tolist()
    tags_a = key_a.tolist()
    tags_b = key_b.tolist()

    # Per-id set index, by the same formula the scalar table uses.
    mask = config.n_sets - 1
    if int_kind:
        set_np = np.bitwise_and(np.bitwise_xor(key_a, key_b), mask)
    else:
        shift = np.uint64(52 - mask.bit_length())
        mant_a = np.bitwise_and(key_a, np.uint64(_MANT_MASK))
        mant_b = np.bitwise_and(key_b, np.uint64(_MANT_MASK))
        set_np = np.bitwise_and(
            np.bitwise_xor(mant_a >> shift, mant_b >> shift),
            np.uint64(mask),
        )
    set_lut = set_np.tolist()

    pair_uid = {}
    for k in range(u):
        pair_uid[(tags_a[k], tags_b[k])] = k

    # Mirror the live table into flat parallel slot arrays (slot =
    # set * associativity + way) plus one uid -> slot dict, so a probe
    # is a single hash lookup and a hit a single list store.  Entries
    # whose tag is not in this batch still get an id (past ``u``) so
    # exact and commutative probes can hit them; their _Entry objects
    # ride along untouched unless evicted.
    sets_ = table._sets
    n_sets = config.n_sets
    assoc = config.associativity
    size = n_sets * assoc
    uid_flat = [-1] * size
    used_flat = [0] * size
    ins_flat = [0] * size
    ent_flat: List[Optional[_Entry]] = [None] * size
    fill = [0] * n_sets
    where: dict = {}
    next_uid = u
    for s in range(n_sets):
        ways = sets_[s]
        if not ways:
            continue
        fill[s] = len(ways)
        base = s * assoc
        for w, entry in enumerate(ways):
            uid = pair_uid.get(entry.tag)
            if uid is None:
                uid = next_uid
                next_uid += 1
                pair_uid[entry.tag] = uid
            pos = base + w
            uid_flat[pos] = uid
            used_flat[pos] = entry.last_used
            ins_flat[pos] = entry.inserted
            ent_flat[pos] = entry
            where[uid] = pos

    # Commutative twin lookup must come after the mirror pass: a
    # swapped-order tag may only exist as a pre-existing entry.  The
    # set-index formula is symmetric, so a twin always lives in the
    # probing id's own set and ``where`` stays globally consistent.
    commutative = config.commutative
    if commutative:
        swap_lut = [
            pair_uid.get((tags_b[k], tags_a[k]), -1) for k in range(u)
        ]
    else:
        swap_lut = [-1] * u

    a_list = a_values if isinstance(a_values, list) else list(a_values)
    b_list = b_values if isinstance(b_values, list) else list(b_values)
    compute_op = compute_function(operation)
    value_lut: List[object] = [_UNSET] * u

    # Trivial events only count cycles; the probe loop walks the pair
    # ids of the non-trivial positions directly (the event index is
    # not needed -- every per-id fact is precomputed).
    if n_trivial:
        kept = inv_np[~trivial_arr].tolist()
    else:
        kept = inv_np.tolist()

    clock = table._clock
    lookups = hits = commutative_hits = insertions = evictions = 0
    where_get = where.get
    for k in kept:
        clock += 1
        lookups += 1
        pos = where_get(k)
        if pos is None:
            sk = swap_lut[k]
            if sk >= 0:
                pos = where_get(sk)
                if pos is not None:
                    commutative_hits += 1
        if pos is not None:
            used_flat[pos] = clock
            hits += 1
            continue
        value = value_lut[k]
        if value is _UNSET:
            j = first[k]
            value = compute_op(a_list[j], b_list[j])
            value_lut[k] = value
        clock += 1
        insertions += 1
        s = set_lut[k]
        base = s * assoc
        f = fill[s]
        if f < assoc:
            pos = base + f
            fill[s] = f + 1
        else:
            end = base + assoc
            pos = used_flat.index(min(used_flat[base:end]), base, end)
            del where[uid_flat[pos]]
            evictions += 1
        uid_flat[pos] = k
        used_flat[pos] = clock
        ins_flat[pos] = clock
        ent_flat[pos] = None
        where[k] = pos
    table._clock = clock

    # Materialize: fresh inserts (slot entry is None) become real
    # entries -- always a batch id, so tag/operands/value come from the
    # id caches -- and surviving entries get their recency written
    # back.  Slot order is insertion order, matching the scalar table's
    # way order exactly.
    if lookups:
        for s in range(n_sets):
            f = fill[s]
            if not f:
                continue
            base = s * assoc
            new_ways: List[_Entry] = []
            for pos in range(base, base + f):
                entry = ent_flat[pos]
                if entry is None:
                    k = uid_flat[pos]
                    j = first[k]
                    entry = _Entry(
                        (tags_a[k], tags_b[k]),
                        value_lut[k],
                        (a_list[j], b_list[j]),
                        used_flat[pos],
                    )
                    entry.inserted = ins_flat[pos]
                else:
                    entry.last_used = used_flat[pos]
                new_ways.append(entry)
            sets_[s] = new_ways

    trivial_cycles = min(unit.trivial_latency, unit.latency)
    trivial_total = n_trivial * trivial_cycles
    latency = unit.latency
    base = trivial_total + lookups * latency
    memo = (
        trivial_total + hits * unit.hit_latency + (lookups - hits) * latency
    )

    table_stats = table.stats
    table_stats.lookups += lookups
    table_stats.hits += hits
    table_stats.commutative_hits += commutative_hits
    table_stats.insertions += insertions
    table_stats.evictions += evictions
    unit_stats = unit.stats
    unit_stats.operations += n
    unit_stats.trivial += n_trivial
    unit_stats.cycles_base += base
    unit_stats.cycles_memo += memo
    return base, memo, 0
