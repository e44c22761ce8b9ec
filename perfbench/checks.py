"""Output checks of the benchmark (run in the benchmark process).

* ``digest``: the result documents of a batch run, canonicalised and
  hashed; the default seed's digests are stored in ``golden.json``.
* ``oracle_mismatches``: one sampled (trace, MEMO-TABLE configuration)
  pair through :func:`repro.verify.differential.run_case`, which
  replays it through every production backend and the independent
  golden model :class:`repro.verify.oracle.OracleBank` and compares
  per-unit counters exactly.
* ``cell_mismatches``: the hit-ratio cells of one result document per
  batch workload, re-derived from the stored traces with ``OracleBank``
  alone.  It holds on every seed, not only the one with a golden digest.
* ``paper_errors``: |paper - measured| over every comparable cell of
  :func:`repro.experiments.reference.compare_to_paper`.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

#: Events replayed per sampled pair: ``run_case`` steps the oracle and
#: the scalar path one Python object per event, so the sample is bounded
#: to keep the check a few seconds.
ORACLE_EVENTS = 20000

#: Experiment whose cells each batch workload re-derives with the oracle.
CELL_CHECKED = {
    "cold-tables": "table7",
    "warm-sweep": "table9",
    "warm-cycles": "table11",
}


def digest(documents: Sequence[dict]) -> str:
    canonical = json.dumps(documents, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def golden_digests() -> dict:
    with GOLDEN_PATH.open(encoding="utf-8") as stream:
        return json.load(stream)


def sample_configs(rng: random.Random, count: int) -> list:
    """``count`` seeded (MemoTableConfig, TrivialPolicy) pairs."""
    from repro.core.config import MemoTableConfig, TagMode, TrivialPolicy

    configs = []
    for _ in range(count):
        entries = rng.choice((8, 32, 128))
        configs.append((
            MemoTableConfig(
                entries=entries,
                associativity=rng.choice([w for w in (1, 2, 4) if w <= entries]),
                tag_mode=rng.choice((TagMode.FULL, TagMode.MANTISSA)),
            ),
            rng.choice(tuple(TrivialPolicy)),
        ))
    return configs


def oracle_mismatches(events, config, policy) -> List[str]:
    """Divergences of the production backends from the oracle on the
    first :data:`ORACLE_EVENTS` of ``events`` (empty when they agree)."""
    from repro.verify.differential import FuzzCase, canonicalize, run_case

    case = FuzzCase(canonicalize(list(events)[:ORACLE_EVENTS]), config, policy)
    return run_case(case).divergences


def program_oracle_mismatches(spec: dict) -> List[str]:
    """Oracle check of one program job's trace under the job's table."""
    from repro.analysis.static.memo import reference_machine
    from repro.core.config import MemoTableConfig, TagMode, TrivialPolicy

    machine = reference_machine(spec["program"], spec["n"])
    machine.run(max_steps=2_000_000)
    config = MemoTableConfig(
        entries=spec["entries"], associativity=spec["ways"],
        tag_mode=TagMode.MANTISSA if spec["mantissa"] else TagMode.FULL,
    )
    return oracle_mismatches(machine.trace.events, config, TrivialPolicy.EXCLUDE)


# -- hit-ratio cells re-derived with the oracle --------------------------------


def _oracle_ratios(trace, operations, policy, infinite=False) -> list:
    """Per-operation hit ratio of a fresh 32/4 (or infinite) oracle bank
    over the whole trace; None where the operation never reached the
    table, as the drivers print '-'."""
    from repro.verify.oracle import OracleBank

    bank = OracleBank(trivial_policy=policy, operations=operations,
                      infinite=infinite)
    for event in trace.events:
        operation = event.opcode.operation
        if operation in bank.units:
            bank.step(operation, event.a, event.b)
    ratios = []
    for key in (bank.units[op].stats_key() for op in operations):
        trivial, trivial_hits, lookups, hits = key[1], key[2], key[5], key[6]
        if lookups == 0 and trivial == 0:
            ratios.append(None)
        else:
            eligible = lookups + trivial_hits
            ratios.append((hits + trivial_hits) / eligible if eligible else 0.0)
    return ratios


def _mean(values) -> Optional[float]:
    present = [value for value in values if value is not None]
    return sum(present) / len(present) if present else None


def _expected_cells(name: str, kwargs: dict, get_trace: Callable) -> Dict[str, list]:
    """Row label -> the raw values the driver must have reported."""
    from repro.core.config import TrivialPolicy
    from repro.core.operations import Operation

    ops = (Operation.INT_MUL, Operation.FP_MUL, Operation.FP_DIV)
    scale, images = kwargs["scale"], kwargs["images"]
    expected = {}
    if name == "table7":  # [32/4 x ops, infinite x ops], averaged over images
        for kernel in kwargs["kernels"]:
            per_image = [
                _oracle_ratios(trace, ops, TrivialPolicy.EXCLUDE)
                + _oracle_ratios(trace, ops, TrivialPolicy.EXCLUDE, infinite=True)
                for trace in (get_trace(kernel, image, scale) for image in images)
            ]
            expected[kernel] = [_mean(column) for column in zip(*per_image)]
    elif name == "table9":  # per op: [trivial share, all, non, intgr]
        policies = (TrivialPolicy.CACHE_ALL, TrivialPolicy.EXCLUDE,
                    TrivialPolicy.INTEGRATED)
        for app in kwargs["apps"]:
            per_image = []
            for image in images:
                trace = get_trace(app, image, scale)
                by_policy = [_oracle_ratios(trace, ops, p) for p in policies]
                per_image.append([by_policy[p][o] for o in range(len(ops))
                                  for p in range(len(policies))])
            # Skip the trivial-share cell: it is not a hit ratio.
            expected[app] = [_mean(column) for column in zip(*per_image)]
    elif name == "table11":  # fdiv hit ratio of a 32/4 bank, over images
        for app in kwargs["apps"]:
            expected[app] = [_mean(
                _oracle_ratios(get_trace(app, image, scale), (Operation.FP_DIV,),
                               TrivialPolicy.EXCLUDE)[0] or 0.0
                for image in images
            )]
    else:
        raise ValueError(f"no oracle cell check for {name}")
    return expected


def _reported_cells(document: dict) -> Dict[str, list]:
    extras = document["extras"]
    if document["experiment"] == "table7":
        return extras["ratios"]
    if document["experiment"] == "table9":
        return {app: [v for i, v in enumerate(values) if i % 4]
                for app, values in extras["values"].items()}
    return {app: [rows[0]["hit_ratio"]] for app, rows in extras["rows"].items()}


def cell_mismatches(workload: str, experiments, documents: Sequence[dict],
                    corpus) -> List[str]:
    """Cells of the workload's :data:`CELL_CHECKED` document that differ
    from the oracle's hit ratios over the traces stored in ``corpus``."""
    from repro.corpus.store import TraceKey

    name = CELL_CHECKED[workload]
    kwargs = next(kw for experiment, kw in experiments if experiment == name)
    document = next(doc for doc in documents if doc["experiment"] == name)

    def get_trace(app, image, scale):
        trace = corpus.get(TraceKey("mm", app, image, scale))
        if trace is None:
            raise LookupError(f"{app}({image})@{scale} missing from the corpus")
        return trace

    reported = _reported_cells(document)
    problems = []
    for label, want in _expected_cells(name, kwargs, get_trace).items():
        got = reported.get(label)
        if got is None or len(got) != len(want) or not all(
            (w is None and g is None)
            or (w is not None and g is not None and math.isclose(w, g, rel_tol=1e-9))
            for w, g in zip(want, got)
        ):
            problems.append(f"{name} row {label}: reported {got}, oracle {want}")
    return problems


def paper_errors(document: dict) -> List[float]:
    """|paper - measured| of every comparable cell of one result document."""
    from repro.experiments.base import ExperimentResult
    from repro.experiments.reference import compare_to_paper

    result = ExperimentResult(
        experiment=document["experiment"],
        title=document["title"],
        headers=list(document["headers"]),
        rows=[list(row) for row in document["rows"]],
        notes=document["notes"],
    )
    result.extras.update(document["extras"])
    comparison = compare_to_paper(result)
    if comparison is None:
        return []
    if "within_quarter" in comparison.extras:  # suite: paper/ours pairs
        pairs = ((1, 2), (3, 4))
    else:  # speedup and figure2 rows: label, paper, measured[, delta]
        pairs = ((1, 2),)
    errors = []
    for row in comparison.rows:
        for paper, ours in pairs:
            try:
                errors.append(abs(_number(row[paper]) - _number(row[ours])))
            except ValueError:
                continue  # a '-' cell: nothing to compare
    return errors


def _number(cell) -> float:
    text = str(cell)
    if text.endswith("%"):  # figure2's slope, in percent per bit
        return float(text[:-1]) / 100.0
    return float(text)
