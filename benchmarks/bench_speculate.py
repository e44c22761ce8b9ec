"""Hot-loop throughput of the ``speculative`` backend.

Times a hot-loop trace -- the workload shape the speculation layer
exists for: a short body of non-trivial multiply/divide operations
replayed under recurring pcs -- through the ``batched``, ``fused`` and
``speculative`` backends, and writes ``BENCH_speculate.json`` with
records/sec, speedups, and the run's commit/abort accounting.

CI's perf-smoke job runs this as a script and fails the build (exit 1)
if either gate breaks:

* ``speculative`` must be at least ``TARGET``x (1.2x) faster than
  ``fused`` on the hot-loop trace -- guarded bulk commits have to beat
  re-probing the loop body event by event, or the layer is dead weight;
* at a 100% commit rate ``speculative`` must not be slower than
  ``batched`` -- if fully-successful speculation loses to the general
  batched tier, the guard overhead has regressed.

Best-of-N timing on fresh banks, same discipline as
``bench_backends.py``.  Also runnable under pytest-benchmark
(``make bench``).
"""

import json
import sys
import time
from pathlib import Path

from repro.core import backend as execution
from repro.core.bank import MemoTableBank
from repro.core.operations import Operation
from repro.isa.columns import ColumnBatch
from repro.isa.opcodes import Opcode
from repro.isa.trace import Trace, TraceEvent

#: Where the perf-smoke numbers land (repo root, next to CHANGES.md).
REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_speculate.json"

#: Minimum events for a stable records/sec figure.
MIN_EVENTS = 200_000

#: Timed rounds per backend (best one counts; more rounds than the
#: backend sweep because two of the three gates are ratios of noisy
#: single-dispatch timings).
ROUNDS = 5

#: Speedup floor for speculative over fused on the hot-loop trace.
TARGET = 1.2

#: The loop body: distinct non-trivial pairs under recurring pcs.
_BODY = [
    (Opcode.FMUL, 2.5, 3.0),
    (Opcode.FDIV, 9.0, 2.0),
    (Opcode.FMUL, 1.5, 7.0),
    (Opcode.FDIV, 27.0, 4.0),
    (Opcode.FMUL, 6.5, 1.5),
    (Opcode.FMUL, 3.5, 5.0),
    (Opcode.FDIV, 33.0, 8.0),
    (Opcode.FMUL, 9.5, 2.5),
]


def _bench_trace():
    """One hot loop tiled to ``MIN_EVENTS``: every iteration replays the
    same operand pairs at the same pcs, so a healthy detector commits
    essentially the whole trace after training."""
    iters = -(-MIN_EVENTS // len(_BODY))  # ceil
    pc_base = 0x4000
    batch = ColumnBatch.from_events(
        TraceEvent(
            opcode, a, b, a * b if opcode is Opcode.FMUL else a / b,
            pc=pc_base + 4 * slot,
        )
        for _ in range(iters)
        for slot, (opcode, a, b) in enumerate(_BODY)
    )
    trace = Trace(columns=batch)
    trace.events  # materialize both views before anything is timed
    return trace


def _one_round(events, backend):
    bank = MemoTableBank.paper_baseline(
        operations=tuple(Operation), latencies=None
    )
    started = time.perf_counter()
    report = execution.dispatch(events, bank.units, backend=backend)
    elapsed = time.perf_counter() - started
    return report.instructions / elapsed, report


def measure(events=None):
    """Measure the three columnar tiers; returns the JSON result dict.

    Rounds are interleaved across backends (round-robin, best round
    counts) so a noisy stretch of machine time degrades every
    contender's draw, not just whichever one it landed on."""
    if events is None:
        events = _bench_trace()
    contenders = ("batched", "fused", "speculative")
    # Full-size warmup dispatch per backend: the first run of each
    # kernel pays page-cache and allocator growth that would otherwise
    # land inside somebody's timed rounds.
    for name in contenders:
        _one_round(events, name)
    rates = {name: 0.0 for name in contenders}
    speculation = None
    for _ in range(ROUNDS):
        for name in contenders:
            rate, report = _one_round(events, name)
            if rate > rates[name]:
                rates[name] = rate
            if name == "speculative":
                speculation = report.speculation.as_dict()
    return {
        "events": len(events),
        "loop_body": len(_BODY),
        "backends": {
            name: {
                "records_per_sec": round(rate, 1),
                "speedup_vs_fused": round(rate / rates["fused"], 3),
            }
            for name, rate in rates.items()
        },
        "speculation": speculation,
        "speculative_vs_fused": round(
            rates["speculative"] / rates["fused"], 3
        ),
        "speculative_vs_batched": round(
            rates["speculative"] / rates["batched"], 3
        ),
        "target": TARGET,
    }


def _gate(result):
    """Both perf gates; returns a list of failure messages."""
    failures = []
    if result["speculative_vs_fused"] < result["target"]:
        failures.append(
            f"speculative only {result['speculative_vs_fused']}x over fused "
            f"on the hot-loop trace (floor {result['target']}x)"
        )
    commit_rate = result["speculation"]["commit_rate"]
    if commit_rate >= 1.0 and result["speculative_vs_batched"] < 1.0:
        failures.append(
            f"speculative at 100% commit rate is slower than batched "
            f"({result['speculative_vs_batched']}x)"
        )
    return failures


def test_speculative_beats_fused_on_hot_loops(benchmark):
    """pytest-benchmark entry: hot-loop throughput, both gates."""
    events = _bench_trace()
    result = benchmark.pedantic(
        lambda: measure(events), rounds=1, iterations=1
    )
    benchmark.extra_info.update(result)
    assert not _gate(result), f"perf gates failed: {_gate(result)}\n{result}"


def main():
    result = measure()
    REPORT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    failures = _gate(result)
    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    if failures:
        return 1
    print(
        f"speculative/fused speedup {result['speculative_vs_fused']}x "
        f"(floor {result['target']}x), commit rate "
        f"{result['speculation']['commit_rate']:.3f} -> {REPORT_PATH.name}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
