"""Extension experiment: memoing under a hazard-aware pipeline.

The paper's cycle counts deliberately exclude pipelining; its prose
argues the real machine benefits further, because a non-pipelined
divider injects structural hazards and long-latency results stall
dependents.  This experiment quantifies that: per application, the
speedup from fmul+fdiv MEMO-TABLES under the in-order hazard model at
issue widths 1 and 2, with the stall breakdown.
"""

from __future__ import annotations

from typing import Sequence

from ..arch.latency import SLOW_DESIGN, ProcessorModel
from ..core.bank import MemoTableBank
from ..core.operations import Operation
from ..simulator.hazard import HazardModel
from ..workloads.khoros import SPEEDUP_APPS
from .base import ExperimentResult
from .common import DEFAULT_IMAGE_SET, record_mm_trace

__all__ = ["run"]

_MEMOIZED = (Operation.FP_MUL, Operation.FP_DIV)


_WIDTHS = (1, 2)


def _run_widths(machine: ProcessorModel, trace):
    """Baseline and memoized reports plus the speedup, per issue width
    in ``_WIDTHS`` (each model resolves the trace's latencies once)."""
    baselines = HazardModel(machine).run_widths(trace, _WIDTHS)
    bank = MemoTableBank.paper_baseline(
        operations=_MEMOIZED, latencies=machine.latencies()
    )
    memos = HazardModel(machine, bank=bank).run_widths(trace, _WIDTHS)
    return [
        (
            baseline,
            memo,
            baseline.total_cycles / memo.total_cycles
            if memo.total_cycles else 1.0,
        )
        for baseline, memo in zip(baselines, memos)
    ]


def run(
    scale: float = 0.12,
    images: Sequence[str] = DEFAULT_IMAGE_SET[:3],
    apps: Sequence[str] = SPEEDUP_APPS,
    machine: ProcessorModel = SLOW_DESIGN,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="ext-hazard",
        title=(
            "Extension: memoing under a hazard-aware pipeline "
            f"({machine.name}, fmul+fdiv memoized)"
        ),
        headers=[
            "app",
            "speedup.1w", "speedup.2w",
            "raw stalls cut", "structural stalls cut",
        ],
        notes="(stall columns: fraction of baseline stall cycles removed, 1-wide)",
    )
    per_app = {}
    for app in apps:
        speedups_1w = []
        speedups_2w = []
        raw_cut = []
        structural_cut = []
        for image in images:
            trace = record_mm_trace(app, image, scale=scale)
            (baseline, memo, speedup_1w), (_, _, speedup_2w) = _run_widths(
                machine, trace
            )
            speedups_1w.append(speedup_1w)
            speedups_2w.append(speedup_2w)
            if baseline.raw_stall_cycles:
                raw_cut.append(
                    1 - memo.raw_stall_cycles / baseline.raw_stall_cycles
                )
            if baseline.structural_stall_cycles:
                structural_cut.append(
                    1
                    - memo.structural_stall_cycles
                    / baseline.structural_stall_cycles
                )
        mean = lambda xs: sum(xs) / len(xs) if xs else 0.0  # noqa: E731
        per_app[app] = {
            "speedup_1w": mean(speedups_1w),
            "speedup_2w": mean(speedups_2w),
            "raw_stall_cut": mean(raw_cut),
            "structural_stall_cut": mean(structural_cut),
        }
        result.rows.append(
            [
                app,
                f"{per_app[app]['speedup_1w']:.2f}",
                f"{per_app[app]['speedup_2w']:.2f}",
                f"{per_app[app]['raw_stall_cut']:.0%}",
                f"{per_app[app]['structural_stall_cut']:.0%}",
            ]
        )
    averages = {
        key: sum(v[key] for v in per_app.values()) / len(per_app)
        for key in ("speedup_1w", "speedup_2w")
    }
    result.rows.append(
        ["average", f"{averages['speedup_1w']:.2f}",
         f"{averages['speedup_2w']:.2f}", "", ""]
    )
    result.extras["per_app"] = per_app
    result.extras["averages"] = averages
    return result
