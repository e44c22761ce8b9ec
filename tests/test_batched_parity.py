"""Backend-vs-scalar parity gate for the columnar probe kernels.

The execution backends (``repro.core.backend``) replace four scalar
probe loops; their one contract is *bit-identical* statistics.  These
tests run every bundled ISA program -- and synthetic edge-value traces
-- through every registered non-scalar backend (``batched``, ``fused``,
and whatever else the registry carries) against the scalar reference,
requiring exactly equal ``MemoStats`` / ``UnitStats`` counters, opcode
breakdowns, cycle totals and final table contents.  NaN-carrying
values are compared by bit pattern, never by ``==``.

CI runs this module once per backend (the backend-matrix job) as the
parity gate required by the columnar-pipeline acceptance criteria.
"""

import math
import struct

import numpy as np
import pytest

from repro.analysis.static.memo import reference_machine
from repro.arch.latency import FAST_DESIGN
from repro.core import backend as execution
from repro.core import kernel
from repro.core.bank import MemoTableBank
from repro.core.config import (
    MemoTableConfig,
    OperandKind,
    ReplacementKind,
    TagMode,
    TrivialPolicy,
)
from repro.core.memo_table import InfiniteMemoTable
from repro.core.operations import Operation
from repro.core.unit import MemoizedUnit
from repro.isa.columns import ColumnBatch
from repro.isa.opcodes import OPCODE_LIST, Opcode
from repro.isa.programs import PROGRAMS
from repro.isa.trace import Trace, TraceEvent
from repro.simulator.cache import MemoryHierarchy
from repro.simulator.pipeline import CycleModel
from repro.simulator.sampling import SamplingPlan, estimate_hit_ratios
from repro.simulator.shade import ShadeSimulator

ALL_OPERATIONS = tuple(Operation)

#: Every registered backend that must match the scalar reference.
NON_SCALAR_BACKENDS = tuple(
    name for name in execution.names() if name != "scalar"
)


def _bits(value):
    """Bit-exact comparison key (NaN payloads and -0.0 must survive)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return ("i", value)
    if value is None:
        return ("n",)
    return ("f", struct.unpack("<Q", struct.pack("<d", float(value)))[0])


def _memo_key(stats):
    return (
        stats.lookups,
        stats.hits,
        stats.insertions,
        stats.evictions,
        stats.commutative_hits,
    )


def _unit_key(stats):
    return (
        stats.operations,
        stats.trivial,
        stats.trivial_hits,
        stats.cycles_base,
        stats.cycles_memo,
    ) + _memo_key(stats.table)


def _bank_fingerprint(bank):
    return {op: _unit_key(unit.stats) for op, unit in bank.units.items()}


def _table_entries(bank):
    """Full table contents, bit-exact -- tags, values, stored operands."""
    contents = {}
    for op, unit in bank.units.items():
        table = unit.table
        if hasattr(table, "_sets"):
            contents[op] = [
                [
                    (e.tag, _bits(e.value), tuple(map(_bits, e.operands)),
                     e.last_used)
                    for e in ways
                ]
                for ways in table._sets
            ]
        else:  # InfiniteMemoTable
            contents[op] = {
                tag: (_bits(value), tuple(map(_bits, operands)))
                for tag, (value, operands) in table._entries.items()
            }
    return contents


@pytest.fixture(scope="module")
def traces():
    """One trace per bundled program, executed once and shared."""
    out = {}
    for name in PROGRAMS:
        machine = reference_machine(name)
        machine.run(max_steps=2_000_000)
        out[name] = machine.trace
    return out


def _run_both(events, make_bank, backend="batched", **kwargs):
    backend_bank = make_bank()
    scalar_bank = make_bank()
    report = ShadeSimulator(
        bank=backend_bank, backend=backend, **kwargs
    ).run(events)
    scalar = ShadeSimulator(bank=scalar_bank, scalar=True, **kwargs).run(
        events
    )
    return report, scalar, backend_bank, scalar_bank


class TestProgramParity:
    """Every bundled ISA program: identical stats AND table contents."""

    @pytest.mark.parametrize("backend", NON_SCALAR_BACKENDS)
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_shade_stats_identical(self, traces, name, backend):
        events = traces[name]
        report, scalar, b_bank, s_bank = _run_both(
            events, lambda: MemoTableBank.paper_baseline(
                operations=ALL_OPERATIONS
            ),
            backend=backend,
        )
        assert report.instructions == scalar.instructions
        assert report.breakdown == scalar.breakdown
        assert _bank_fingerprint(b_bank) == _bank_fingerprint(s_bank)
        assert _table_entries(b_bank) == _table_entries(s_bank)

    @pytest.mark.parametrize("backend", NON_SCALAR_BACKENDS)
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_cycle_model_identical(self, traces, name, backend):
        events = traces[name]
        reports = []
        for chosen in (backend, "scalar"):
            bank = MemoTableBank.paper_baseline(
                operations=ALL_OPERATIONS,
                latencies=FAST_DESIGN.latencies(),
            )
            model = CycleModel(
                FAST_DESIGN,
                bank=bank,
                hierarchy=MemoryHierarchy(),
                backend=chosen,
            )
            reports.append(model.run(events))
        report, scalar_report = reports
        assert report.base_cycles == scalar_report.base_cycles
        assert report.memo_cycles == scalar_report.memo_cycles
        assert report.cycles_by_opcode == scalar_report.cycles_by_opcode
        assert report.counts_by_opcode == scalar_report.counts_by_opcode
        assert report.hit_ratios == scalar_report.hit_ratios

    @pytest.mark.parametrize("backend", NON_SCALAR_BACKENDS)
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_infinite_bank_identical(self, traces, name, backend):
        events = traces[name]
        report, scalar, b_bank, s_bank = _run_both(
            events, lambda: MemoTableBank.infinite(operations=ALL_OPERATIONS),
            backend=backend,
        )
        assert _bank_fingerprint(b_bank) == _bank_fingerprint(s_bank)
        assert _table_entries(b_bank) == _table_entries(s_bank)


def _edge_trace():
    """Synthetic trace hammering trivial-operand and NaN edge cases."""
    nan = float("nan")
    inf = float("inf")
    tiny = 5e-324  # smallest subnormal
    events = []
    fp_pool = [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, nan, inf, -inf, tiny, 0.5]
    for op, ok in (
        (Opcode.FMUL, lambda a, b: True),
        (Opcode.FDIV, lambda a, b: True),
        (Opcode.FRECIP, lambda a, b: True),
    ):
        for i, a in enumerate(fp_pool):
            for b in fp_pool[i:]:
                events.append(TraceEvent(op, a, b, 0.25))
    # Domain-limited unary ops: operands their compute function accepts.
    for a in (0.0, 1.0, 4.0, 2.25, 0.5):
        events.append(TraceEvent(Opcode.FSQRT, a, 0.0, math.sqrt(a)))
        events.append(TraceEvent(Opcode.FSIN, a, 0.0, math.sin(a)))
        events.append(TraceEvent(Opcode.FCOS, a, 0.0, math.cos(a)))
    for a in (1.0, 2.0, 0.5, 8.0):
        events.append(TraceEvent(Opcode.FLOG, a, 0.0, math.log(a)))
    int_pool = [0, 1, -1, 2, -7, 2**62, -(2**62), 13]
    for op in (Opcode.IMUL, Opcode.IDIV):
        for i, a in enumerate(int_pool):
            for b in int_pool[i:]:
                if op is Opcode.IDIV and b == 0:
                    continue
                events.append(TraceEvent(op, a, b, 3))
    # Repeat everything so the second pass exercises hits and LRU state.
    return events + events


class TestEdgeValueParity:
    @pytest.mark.parametrize("backend", NON_SCALAR_BACKENDS)
    @pytest.mark.parametrize(
        "policy",
        [TrivialPolicy.EXCLUDE, TrivialPolicy.INTEGRATED,
         TrivialPolicy.CACHE_ALL],
    )
    def test_trivial_policies(self, policy, backend):
        events = _edge_trace()
        report, scalar, b_bank, s_bank = _run_both(
            events,
            lambda: MemoTableBank.paper_baseline(
                operations=ALL_OPERATIONS, trivial_policy=policy
            ),
            backend=backend,
        )
        assert _bank_fingerprint(b_bank) == _bank_fingerprint(s_bank)
        assert _table_entries(b_bank) == _table_entries(s_bank)

    @pytest.mark.parametrize("backend", NON_SCALAR_BACKENDS)
    def test_mantissa_tag_mode(self, backend):
        events = _edge_trace()
        config = MemoTableConfig(tag_mode=TagMode.MANTISSA)
        report, scalar, b_bank, s_bank = _run_both(
            events,
            lambda: MemoTableBank.paper_baseline(
                config=config, operations=ALL_OPERATIONS
            ),
            backend=backend,
        )
        assert _bank_fingerprint(b_bank) == _bank_fingerprint(s_bank)

    @pytest.mark.parametrize("backend", NON_SCALAR_BACKENDS)
    def test_tiny_geometry_evictions(self, backend):
        # A 4-entry direct-mapped table forces constant evictions; the
        # victim choice (hence final contents) must match exactly.
        events = _edge_trace()
        config = MemoTableConfig(entries=4, associativity=1)
        report, scalar, b_bank, s_bank = _run_both(
            events,
            lambda: MemoTableBank.paper_baseline(
                config=config, operations=ALL_OPERATIONS
            ),
            backend=backend,
        )
        assert _bank_fingerprint(b_bank) == _bank_fingerprint(s_bank)
        assert _table_entries(b_bank) == _table_entries(s_bank)

    @pytest.mark.parametrize("backend", NON_SCALAR_BACKENDS)
    def test_validation_mismatch_counts(self, backend):
        # Traced results are wrong on purpose: both tiers must flag the
        # same number of mismatches.
        events = [
            TraceEvent(Opcode.FMUL, 2.0, 3.0, 999.0),
            TraceEvent(Opcode.FMUL, 2.0, 3.0, 999.0),
            TraceEvent(Opcode.FMUL, 4.0, 5.0, 20.0),
        ]
        report, scalar, _, _ = _run_both(
            events,
            lambda: MemoTableBank.paper_baseline(operations=ALL_OPERATIONS),
            validate=True,
            backend=backend,
        )
        assert report.mismatches == scalar.mismatches > 0


class TestSliceParity:
    """``run_events(start=, stop=)`` is the sampling front-end's path."""

    @pytest.mark.parametrize("backend", NON_SCALAR_BACKENDS)
    @pytest.mark.parametrize("window", [(0, 7), (3, 60), (100, 101),
                                        (40, None)])
    def test_arbitrary_windows(self, traces, window, backend):
        events = traces["memo_showcase"]
        start, stop = window
        results = []
        for chosen in (backend, "scalar"):
            bank = MemoTableBank.paper_baseline(operations=ALL_OPERATIONS)
            report = execution.dispatch(
                events, bank.units, start=start, stop=stop, backend=chosen
            )
            results.append((report.instructions, dict(report.counts),
                            _bank_fingerprint(bank)))
        assert results[0] == results[1]

    @pytest.mark.parametrize("backend", NON_SCALAR_BACKENDS)
    def test_sampling_estimator(self, traces, backend):
        events = traces["memo_showcase"]
        plan = SamplingPlan(window=40, interval=150, warmup=10)
        estimates = []
        for chosen in (backend, "scalar"):
            with execution.use_backend(chosen):
                bank = MemoTableBank.paper_baseline(
                    operations=ALL_OPERATIONS
                )
                estimates.append(
                    estimate_hit_ratios(events, bank=bank, plan=plan)
                )
        assert estimates[0].hit_ratios == estimates[1].hit_ratios
        assert estimates[0].events_measured == estimates[1].events_measured


class TestCorpusRoundTripParity:
    def test_v3_roundtrip_preserves_stats(self, traces, tmp_path):
        from repro.corpus.store import TraceCorpus, TraceKey

        corpus = TraceCorpus(tmp_path / "corpus")
        key = TraceKey(suite="parity", name="memo_showcase")
        original = traces["memo_showcase"]
        corpus.put(key, Trace(list(original)))
        corpus.clear_memory()  # force the on-disk (columnar) path
        restored = corpus.get(key)
        assert restored is not None

        fingerprints = []
        for events in (original, restored):
            bank = MemoTableBank.paper_baseline(operations=ALL_OPERATIONS)
            ShadeSimulator(bank=bank).run(events)
            fingerprints.append(_bank_fingerprint(bank))
        assert fingerprints[0] == fingerprints[1]


class TestReplayInfiniteParity:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_matches_scalar_reference(self, traces, name):
        events = traces[name]
        assert kernel.replay_infinite(events) == (
            kernel._replay_infinite_scalar(events)
        )


def _partitions(events):
    """Per memoizable opcode: the operand lists (and numpy arrays when
    type-homogeneous) exactly as the kernel decodes them from columns."""
    batch = ColumnBatch.from_events(events)
    views = batch.views()
    for code, opcode in enumerate(OPCODE_LIST):
        idx = np.flatnonzero(views.opcode == code)
        if opcode.operation is None or not len(idx):
            continue
        yield (opcode.operation,) + kernel._decode_partition(
            batch, views, idx, True
        )


def _mixed_and_wide_trace():
    """An FMUL partition mixing int-flagged and float rows, and IMUL /
    IDIV partitions carrying operands outside int64 (wide rows)."""
    events = []
    for a, b in ((2, 3), (2.0, 3.0), (2, 3), (7, 1), (0.5, 4), (2.0, 3.0)):
        result = a * b
        events.append(TraceEvent(Opcode.FMUL, a, b, result))
    for a, b in ((1 << 70, 3), (5, 6), (1 << 70, 3), (5, 6), (-7, 1)):
        events.append(TraceEvent(Opcode.IMUL, a, b, a * b))
        events.append(TraceEvent(Opcode.IDIV, a, b, a // b))
    return events + events


@pytest.mark.parametrize("opcode", [Opcode.FMUL, Opcode.IMUL, Opcode.IDIV])
def test_partition_operands_decode_like_events(opcode):
    batch = ColumnBatch.from_events(_mixed_and_wide_trace())
    a_values, b_values = execution.partition_operands(batch, opcode)
    expected = [
        (event.a, event.b) for event in batch.to_events()
        if event.opcode is opcode
    ]
    got = list(zip(a_values, b_values))
    assert [tuple(map(_bits, pair)) for pair in got] == [
        tuple(map(_bits, pair)) for pair in expected
    ]


def _paper_bank(policy=TrivialPolicy.EXCLUDE, **config):
    """A bank of every operation over one small finite table config."""
    return lambda: MemoTableBank.paper_baseline(
        config=MemoTableConfig(**config), operations=ALL_OPERATIONS,
        trivial_policy=policy,
    )


def _infinite_bank(tag_mode):
    """Infinite tables for every operation; integer units keep full tags
    (as :class:`MemoizedUnit` forces for table configs)."""
    def make():
        return MemoTableBank({
            op: MemoizedUnit(op, table=InfiniteMemoTable(
                operand_kind=op.operand_kind,
                tag_mode=(tag_mode if op.operand_kind is OperandKind.FLOAT
                          else TagMode.FULL),
                commutative=op.commutative,
            ))
            for op in ALL_OPERATIONS
        })
    return make


#: name -> bank factory.  Every one of these configurations must take
#: the vectorized fast tier for each type-homogeneous partition.
OUTCOME_TIERS = {
    "lru": _paper_bank(entries=8, associativity=2),
    "fifo": _paper_bank(entries=8, associativity=4,
                        replacement=ReplacementKind.FIFO),
    "random": _paper_bank(entries=8, associativity=2,
                          replacement=ReplacementKind.RANDOM, seed=3),
    "infinite": lambda: MemoTableBank.infinite(operations=ALL_OPERATIONS),
    "mantissa": _paper_bank(entries=8, associativity=2,
                            tag_mode=TagMode.MANTISSA),
    "cache-all": _paper_bank(TrivialPolicy.CACHE_ALL,
                             entries=8, associativity=2),
    "integrated": _paper_bank(TrivialPolicy.INTEGRATED,
                              entries=8, associativity=2),
    "infinite-mantissa": _infinite_bank(TagMode.MANTISSA),
    "fifo-cache-all": _paper_bank(TrivialPolicy.CACHE_ALL,
                                  entries=8, associativity=4,
                                  replacement=ReplacementKind.FIFO),
    "random-integrated": _paper_bank(TrivialPolicy.INTEGRATED,
                                     entries=8, associativity=2,
                                     replacement=ReplacementKind.RANDOM,
                                     seed=1),
    "mantissa-integrated": _paper_bank(TrivialPolicy.INTEGRATED,
                                       entries=8, associativity=2,
                                       tag_mode=TagMode.MANTISSA),
    "mantissa-cache-all": _paper_bank(TrivialPolicy.CACHE_ALL,
                                      entries=8, associativity=2,
                                      tag_mode=TagMode.MANTISSA),
}


def _sign_exponent_trace():
    """FMUL/FDIV pairs whose operands share mantissas but differ in sign
    and exponent -- including commutative reversed matches that only
    mantissa tags see -- plus +-0.0 and NaN operands, which are trivial
    (zeros) or never trivial (NaN) and so reach the table under
    CACHE_ALL."""
    nan = float("nan")
    pairs = [
        (1.25, 1.75), (-3.5, 2.5), (7.0, -0.625), (1.75, 1.25),
        (0.0, 2.0), (-0.0, 2.0), (2.0, -0.0), (-0.0, 0.0), (0.0, -8.0),
        (nan, 2.0), (2.0, nan), (-nan, 4.0), (nan, nan), (1.5, 2.0),
        (3.0, -1.0), (-6.0, 0.5), (1.0, 1.0), (-1.0, 0.0),
    ]
    events = []
    for op in (Opcode.FMUL, Opcode.FDIV):
        for a, b in pairs:
            events.append(TraceEvent(op, a, b, 0.0))
    return events + events[::-1]


def _fast_probes(events):
    """The fast-tier calls :meth:`TestPerEventOutcomes._check` makes
    when every partition of ``events`` is vectorized: two per partition
    (with and without ``outcomes``)."""
    return [
        operation
        for operation, *_ in _partitions(events)
        for _ in range(2)
    ]


class TestPerEventOutcomes:
    """``probe_batch(..., outcomes=)``: every event's memo cycles and hit
    flag equal what a ``unit.execute`` loop reports, in every tier, and
    the probe's return value and side effects do not depend on whether
    the output was requested."""

    def _check(self, events, make_bank, validate=False, monkeypatch=None):
        fast_calls = []
        if monkeypatch is not None:
            fast = kernel._probe_fast

            def counting(*args):
                fast_calls.append(args[0].operation)
                return fast(*args)

            monkeypatch.setattr(kernel, "_probe_fast", counting)
        with_output, without, scalar = make_bank(), make_bank(), make_bank()
        for operation, a, b, results, np_a, np_b in _partitions(events):
            outcomes = kernel.PartitionOutcomes()
            got = kernel.probe_batch(
                with_output.units[operation], a, b, results=results,
                validate=validate, _np_a=np_a, _np_b=np_b, outcomes=outcomes,
            )
            plain = kernel.probe_batch(
                without.units[operation], a, b, results=results,
                validate=validate, _np_a=np_a, _np_b=np_b,
            )
            runs = [
                scalar.units[operation].execute(x, y) for x, y in zip(a, b)
            ]
            assert got == plain
            assert plain[:2] == (
                sum(run.base_cycles for run in runs),
                sum(run.cycles for run in runs),
            )
            assert outcomes.cycles == [run.cycles for run in runs]
            assert outcomes.hits == [run.hit for run in runs]
        for bank in (with_output, without):
            assert _bank_fingerprint(bank) == _bank_fingerprint(scalar)
            assert _table_entries(bank) == _table_entries(scalar)
        return fast_calls

    @pytest.mark.parametrize("tier", list(OUTCOME_TIERS))
    def test_edge_trace(self, tier, monkeypatch):
        events = _edge_trace()
        fast_calls = self._check(events, OUTCOME_TIERS[tier],
                                 monkeypatch=monkeypatch)
        assert fast_calls == _fast_probes(events)

    @pytest.mark.parametrize("tier", list(OUTCOME_TIERS))
    def test_sign_exponent_trace(self, tier, monkeypatch):
        events = _sign_exponent_trace()
        fast_calls = self._check(events, OUTCOME_TIERS[tier],
                                 monkeypatch=monkeypatch)
        assert fast_calls == _fast_probes(events)

    def test_mantissa_tags_see_reversed_sign_exponent_hits(self):
        bank = OUTCOME_TIERS["mantissa-cache-all"]()
        for operation, a, b, _, np_a, np_b in _partitions(
            _sign_exponent_trace()
        ):
            kernel.probe_batch(bank.units[operation], a, b,
                               _np_a=np_a, _np_b=np_b)
        fmul = bank.units[Operation.FP_MUL].stats
        assert fmul.trivial > 0
        assert fmul.table.lookups == fmul.operations
        assert fmul.table.commutative_hits > 0

    @pytest.mark.parametrize("tier", list(OUTCOME_TIERS))
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_bundled_programs(self, traces, name, tier):
        self._check(traces[name].events, OUTCOME_TIERS[tier])

    def test_validate_run(self):
        events = _edge_trace() + [
            TraceEvent(Opcode.FMUL, 2.0, 3.0, 999.0),
            TraceEvent(Opcode.FMUL, 2.0, 3.0, 999.0),
        ]
        self._check(events, OUTCOME_TIERS["lru"], validate=True)

    @pytest.mark.parametrize("tier", ["lru", "infinite", "integrated"])
    def test_mixed_and_wide_partitions(self, tier, monkeypatch):
        fast_calls = self._check(
            _mixed_and_wide_trace(), OUTCOME_TIERS[tier],
            monkeypatch=monkeypatch,
        )
        # Mixed and wide partitions cannot take the vectorized tier.
        assert fast_calls == []

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_event_latencies_sum_to_the_cycle_model(self, traces, name):
        events = traces[name]
        bank = MemoTableBank.paper_baseline(operations=ALL_OPERATIONS)
        latencies, hits = kernel.event_latencies(
            events.columns(), bank.units, FAST_DESIGN, MemoryHierarchy()
        )
        cycle_bank = MemoTableBank.paper_baseline(operations=ALL_OPERATIONS)
        report = kernel.run_events(
            events, cycle_bank.units, machine=FAST_DESIGN,
            hierarchy=MemoryHierarchy(), backend="batched",
        )
        assert len(latencies) == len(hits) == report.instructions
        assert int(latencies.sum()) == report.memo_cycles
        assert int(hits.sum()) == sum(
            unit.stats.table.hits + unit.stats.trivial_hits
            for unit in bank.units.values()
        )
        assert _bank_fingerprint(bank) == _bank_fingerprint(cycle_bank)


@pytest.mark.parametrize("backend", NON_SCALAR_BACKENDS)
@pytest.mark.parametrize("experiment", ["table9", "table10"])
def test_policy_and_tag_tables_never_loop_unit_execute(
    experiment, backend, monkeypatch
):
    """Table 9's trivial policies and Table 10's mantissa tags take the
    vectorized tier: no event reaches the per-event ``unit.execute``
    loop, so a silent fallback cannot hide behind equal results."""
    from repro.experiments import common, table9, table10

    calls = []
    execute = MemoizedUnit.execute

    def counting(self, a, b=0.0):
        calls.append(self.operation)
        return execute(self, a, b)

    monkeypatch.setattr(MemoizedUnit, "execute", counting)
    image = common.DEFAULT_IMAGE_SET[:1]
    with execution.use_backend(backend):
        if experiment == "table9":
            result = table9.run(scale=0.02, images=image,
                                apps=table9.TABLE9_APPS[:1])
        else:
            result = table10.run(scale=0.02, images=image,
                                 mm_kernels=table10.TABLE7_ORDER[:1])
    assert result.rows
    assert calls == []
