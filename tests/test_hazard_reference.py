"""Differential test: the hazard model vs. the oracle's reference executor.

:class:`repro.simulator.hazard.HazardModel` resolves every event's
latency and hit flag in bulk (per-unit batched probes, one cache walk)
and only then runs the in-order issue recurrence over plain columns.
:func:`repro.verify.oracle.reference_hazard` is the event-at-a-time
loop it replaced, probing golden-oracle units instead of production
ones.  Every :class:`HazardReport` field and the final bank statistics
and table contents must agree bit for bit, for every table shape,
trivial policy, machine, issue width and input form, with metrics on
or off.
"""

import dataclasses
import hashlib
import json
import random

import pytest

from repro import obs
from repro.arch.latency import FAST_DESIGN, SLOW_DESIGN
from repro.core.bank import MemoTableBank
from repro.core.config import (
    MemoTableConfig,
    ReplacementKind,
    TagMode,
    TrivialPolicy,
)
from repro.experiments import ext_hazard
from repro.isa.columns import ColumnBatch
from repro.isa.opcodes import Opcode
from repro.isa.trace import Trace, TraceEvent
from repro.simulator.hazard import HazardModel
from repro.verify.differential import (
    ALL_OPERATIONS,
    _bank_contents,
    _bank_fingerprint,
    _oracle_contents,
    canonicalize,
)
from repro.verify.fuzz import TraceFuzzer
from repro.verify.oracle import OracleBank, reference_hazard

#: name -> (table config, trivial policy, infinite); None = no bank.
BANKS = {
    "no-bank": None,
    "lru": (MemoTableConfig(entries=16, associativity=4),
            TrivialPolicy.EXCLUDE, False),
    "fifo": (MemoTableConfig(entries=8, associativity=8,
                             replacement=ReplacementKind.FIFO),
             TrivialPolicy.EXCLUDE, False),
    "random": (MemoTableConfig(entries=8, associativity=2,
                               replacement=ReplacementKind.RANDOM, seed=7),
               TrivialPolicy.EXCLUDE, False),
    "mantissa": (MemoTableConfig(entries=8, associativity=2,
                                 tag_mode=TagMode.MANTISSA),
                 TrivialPolicy.EXCLUDE, False),
    "infinite": (None, TrivialPolicy.EXCLUDE, True),
    "cache-all": (MemoTableConfig(entries=8, associativity=2),
                  TrivialPolicy.CACHE_ALL, False),
    "integrated": (MemoTableConfig(entries=8, associativity=2),
                   TrivialPolicy.INTEGRATED, False),
}

#: sha256 of the sorted-key JSON of ``ext_hazard.run(scale=0.05,
#: images=("lablabel",), apps=("venhance", "vbrf")).extras``, generated
#: with the event-at-a-time hazard loop.
EXT_HAZARD_EXTRAS_SHA256 = (
    "5e4a5b3ea06be2ff598306542c6386136df53024b12802681a3528498cd475b6"
)


def _with_dependencies(events, seed):
    """Give fuzzed events value ids: most write a destination (ids are
    drawn from a small range that includes 0, so ids repeat and 0 is a
    real id) and read up to three recently written ones."""
    rng = random.Random(seed)
    written = []
    out = []
    for event in events:
        dst = rng.randrange(0, 24) if rng.random() < 0.8 else None
        k = min(len(written), rng.choice((0, 1, 1, 2, 3)))
        srcs = tuple(rng.sample(written[-6:], min(k, len(written[-6:]))))
        out.append(event._replace(dst=dst, srcs=srcs))
        if dst is not None:
            written.append(dst)
    return out


def _fuzzed_trace(seed, n_cases=5):
    fuzzer = TraceFuzzer(seed=seed, max_events=96)
    merged = []
    for _ in range(n_cases):
        merged.extend(fuzzer.next_case().events)
    # A wide integer multiply (operands outside int64) rides along.
    merged.append(TraceEvent(Opcode.IMUL, 1 << 70, 3, 3 << 70))
    merged.append(TraceEvent(Opcode.LOAD, address=64))
    merged.append(TraceEvent(Opcode.STORE, address=0))
    merged.append(TraceEvent(Opcode.FADD))
    return list(canonicalize(_with_dependencies(merged, seed)))


def _banks(name, machine):
    spec = BANKS[name]
    if spec is None:
        return None, None
    config, policy, infinite = spec
    if infinite:
        production = MemoTableBank.infinite(
            operations=ALL_OPERATIONS, trivial_policy=policy
        )
    else:
        production = MemoTableBank.paper_baseline(
            config=config,
            operations=ALL_OPERATIONS,
            trivial_policy=policy,
            latencies=machine.latencies(),
        )
    oracle = OracleBank(
        config=config,
        trivial_policy=policy,
        operations=ALL_OPERATIONS,
        infinite=infinite,
    )
    return production, oracle


@pytest.fixture(scope="module")
def fuzzed():
    return {seed: _fuzzed_trace(seed) for seed in (2, 13)}


@pytest.fixture
def metrics(request):
    obs.set_enabled(request.param)
    obs.registry().clear()
    yield request.param
    obs.set_enabled(None)
    obs.registry().clear()


@pytest.mark.parametrize("metrics", [False, True], indirect=True,
                         ids=["metrics-off", "metrics-on"])
@pytest.mark.parametrize("form", ["list", "columns"])
@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("machine", [FAST_DESIGN, SLOW_DESIGN],
                         ids=lambda m: m.name)
@pytest.mark.parametrize("bank_name", list(BANKS))
def test_hazard_model_matches_reference(
    fuzzed, bank_name, machine, width, form, metrics
):
    for seed, events in fuzzed.items():
        production, oracle = _banks(bank_name, machine)
        trace = events if form == "list" else Trace(
            columns=ColumnBatch.from_events(events)
        )
        model = HazardModel(machine, bank=production, issue_width=width)
        report = model.run(trace)
        expected = reference_hazard(
            events, machine, bank=oracle, issue_width=width
        )

        assert dataclasses.asdict(report) == dataclasses.asdict(expected)
        assert report.raw_stall_cycles and report.total_cycles
        if production is not None:
            assert _bank_fingerprint(production) == oracle.fingerprint()
            assert _bank_contents(production) == _oracle_contents(oracle)


def test_recorded_kernel_trace_matches_reference(small_image):
    from repro.workloads.khoros import run_kernel
    from repro.workloads.recorder import OperationRecorder

    recorder = OperationRecorder()
    run_kernel("vgauss", recorder, small_image)
    events = recorder.trace.events
    for width in (1, 2):
        production, oracle = _banks("lru", SLOW_DESIGN)
        report = HazardModel(
            SLOW_DESIGN, bank=production, issue_width=width
        ).run(recorder.trace)
        expected = reference_hazard(
            events, SLOW_DESIGN, bank=oracle, issue_width=width
        )
        assert dataclasses.asdict(report) == dataclasses.asdict(expected)
        assert _bank_fingerprint(production) == oracle.fingerprint()


def test_ext_hazard_extras_pinned():
    result = ext_hazard.run(
        scale=0.05, images=("lablabel",), apps=("venhance", "vbrf")
    )
    digest = hashlib.sha256(
        json.dumps(result.extras, sort_keys=True).encode()
    ).hexdigest()
    assert digest == EXT_HAZARD_EXTRAS_SHA256
