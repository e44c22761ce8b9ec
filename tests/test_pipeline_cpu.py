"""Tests for cycle accounting and the whole-machine speedup model."""

import pytest

from repro.arch.latency import FAST_DESIGN, SLOW_DESIGN, ProcessorModel
from repro.core.bank import MemoTableBank
from repro.core.operations import Operation
from repro.isa.opcodes import Opcode
from repro.isa.trace import TraceEvent
from repro.simulator.cache import Cache, MemoryHierarchy
from repro.simulator.cpu import MemoizedCPU
from repro.simulator.pipeline import CycleModel


def _div(a, b):
    return TraceEvent(Opcode.FDIV, a, b, a / b)


def _hierarchy():
    return MemoryHierarchy(
        Cache("L1", 1024, 32, 1, 1), Cache("L2", 8192, 32, 4, 6), 30
    )


class TestBaselineCycleCharging:
    def test_plain_instruction_latencies(self):
        model = CycleModel(FAST_DESIGN, hierarchy=_hierarchy())
        trace = [
            TraceEvent(Opcode.IALU),
            TraceEvent(Opcode.BRANCH),
            TraceEvent(Opcode.NOP),
            TraceEvent(Opcode.FADD),
        ]
        report = model.run(trace)
        assert report.base_cycles == 1 + 1 + 1 + 3
        assert report.memo_cycles == report.base_cycles

    def test_memory_through_hierarchy(self):
        model = CycleModel(FAST_DESIGN, hierarchy=_hierarchy())
        trace = [
            TraceEvent(Opcode.LOAD, address=0x100),
            TraceEvent(Opcode.LOAD, address=0x100),
        ]
        report = model.run(trace)
        assert report.base_cycles == 30 + 1  # cold miss then L1 hit

    def test_fp_ops_charged_machine_latency(self):
        model = CycleModel(SLOW_DESIGN, hierarchy=_hierarchy())
        report = model.run([_div(9.0, 7.0)])
        assert report.base_cycles == 39

    def test_counts_by_opcode(self):
        model = CycleModel(FAST_DESIGN, hierarchy=_hierarchy())
        report = model.run([_div(9.0, 7.0), TraceEvent(Opcode.IALU)])
        assert report.counts_by_opcode[Opcode.FDIV] == 1
        assert report.cycles_by_opcode[Opcode.FDIV] == 13

    def test_cpi(self):
        model = CycleModel(FAST_DESIGN, hierarchy=_hierarchy())
        report = model.run([TraceEvent(Opcode.IALU)] * 10)
        assert report.cpi_base == 1.0


class TestMemoizedCycles:
    def test_hits_reduce_memo_cycles_only(self):
        bank = MemoTableBank.paper_baseline(operations=(Operation.FP_DIV,))
        model = CycleModel(FAST_DESIGN, bank=bank, hierarchy=_hierarchy())
        report = model.run([_div(9.0, 7.0)] * 4)
        assert report.base_cycles == 4 * 13
        assert report.memo_cycles == 13 + 3 * 1
        assert report.speedup == pytest.approx(52 / 16)

    def test_bank_latency_retuned_to_machine(self):
        bank = MemoTableBank.paper_baseline(operations=(Operation.FP_DIV,))
        CycleModel(SLOW_DESIGN, bank=bank, hierarchy=_hierarchy())
        assert bank.units[Operation.FP_DIV].latency == 39

    def test_fraction_enhanced(self):
        model = CycleModel(FAST_DESIGN, hierarchy=_hierarchy())
        trace = [_div(9.0, 7.0)] + [TraceEvent(Opcode.IALU)] * 13
        report = model.run(trace)
        assert report.fraction_enhanced(Opcode.FDIV) == pytest.approx(0.5)

    def test_no_bank_means_no_speedup(self):
        model = CycleModel(FAST_DESIGN, hierarchy=_hierarchy())
        report = model.run([_div(9.0, 7.0)] * 4)
        assert report.speedup == 1.0


class TestMemoizedCPU:
    def _trace(self):
        events = []
        for _ in range(50):
            events.append(TraceEvent(Opcode.LOAD, address=0x40))
            events.append(_div(10.0, 4.0))
            events.append(TraceEvent(Opcode.FMUL, 2.5, 1.5, 3.75))
            events.append(TraceEvent(Opcode.IALU))
        return events

    def test_speedup_row_fields(self):
        cpu = MemoizedCPU(FAST_DESIGN, memoized=(Operation.FP_DIV,))
        row, report = cpu.speedup_row("toy", self._trace())
        assert 0.0 < row.fraction_enhanced < 1.0
        assert row.speedup_enhanced > 1.0
        assert row.speedup > 1.0
        assert row.hit_ratio > 0.9  # one distinct division pair
        assert report.instructions == 200

    def test_amdahl_consistency(self):
        from repro.analysis.amdahl import amdahl_speedup
        cpu = MemoizedCPU(FAST_DESIGN, memoized=(Operation.FP_DIV,))
        row, _ = cpu.speedup_row("toy", self._trace())
        assert row.speedup == pytest.approx(
            amdahl_speedup(row.fraction_enhanced, row.speedup_enhanced)
        )

    def test_overhead_dilutes_fe(self):
        cpu1 = MemoizedCPU(FAST_DESIGN, memoized=(Operation.FP_DIV,))
        row1, _ = cpu1.speedup_row("toy", self._trace())
        cpu2 = MemoizedCPU(FAST_DESIGN, memoized=(Operation.FP_DIV,))
        row2, _ = cpu2.speedup_row("toy", self._trace(), overhead_factor=1.0)
        assert row2.fraction_enhanced == pytest.approx(
            row1.fraction_enhanced / 2, rel=1e-9
        )
        assert row2.speedup < row1.speedup

    def test_measured_and_amdahl_agree_roughly(self):
        cpu = MemoizedCPU(SLOW_DESIGN, memoized=(Operation.FP_DIV, Operation.FP_MUL))
        row, _ = cpu.speedup_row("toy", self._trace())
        assert row.measured_speedup == pytest.approx(row.speedup, rel=0.15)

    def test_se_at_least_one_when_nothing_hits(self):
        """venhance x nature at scale 0.1 on the slow machine: no FDIV
        hits, and 2935 FDIV cycles / latency 39 * 39 rounds above 2935,
        which used to give SE = 0.9999999999999999 and a ValueError."""
        from repro.experiments.common import record_mm_trace

        trace = record_mm_trace("venhance", "nature", scale=0.1, cache=False)
        cpu = MemoizedCPU(SLOW_DESIGN, memoized=(Operation.FP_DIV,))
        row, report = cpu.speedup_row("venhance", trace, overhead_factor=1.0)
        assert report.hit_ratios[Operation.FP_DIV] == 0.0
        assert row.speedup_enhanced == 1.0
        assert row.speedup == 1.0

    def test_slow_machine_gains_more(self):
        fast_row, _ = MemoizedCPU(
            FAST_DESIGN, memoized=(Operation.FP_DIV,)
        ).speedup_row("toy", self._trace())
        slow_row, _ = MemoizedCPU(
            SLOW_DESIGN, memoized=(Operation.FP_DIV,)
        ).speedup_row("toy", self._trace())
        assert slow_row.speedup > fast_row.speedup
