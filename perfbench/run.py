"""Reproduction benchmark: host time of reproducing the paper, cold and
warm, and of serving its jobs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Workloads (``plan.py`` picks
their inputs from the seed):

* ``cold-tables``  hit-ratio tables into a fresh empty corpus each run;
* ``warm-sweep``   design-space sweeps replayed from a corpus filled in set-up;
* ``warm-cycles``  cycle-level speedup tables replayed the same way;
* ``serve-mix``    an open-loop bundled-program job stream to ``repro serve``.

Every measured process runs the default configuration: the default
backend, serially, with no ``REPRO_*`` variable inherited.  Times of
measured processes and set-ups are reported in reference seconds: wall
seconds scaled by a host-speed reference (``reference.py``) sampled
right before and right after each of them.  Corpora and
queues live in a scratch directory inside the checkout
(``.perfbench/``), removed at exit.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer breakdown with ``--trace 1``.  Lines
before it stamp the environment and print every metric with its unit.
The exit status is non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Measured repetitions per batch run, at least (more while time lasts).
MIN_REPS = 3
#: Seed whose result documents are pinned in ``golden.json``.
DEFAULT_SEED = 0
#: A measured process that runs longer than this has hung.
CHILD_TIMEOUT_S = 150.0
#: (trace, config) pairs checked against the oracle per run.
ORACLE_PAIRS = 2
#: Serve results re-run in-process per run.
SERVE_SAMPLES = 4
#: Time of one run of the reference task on a host at full speed:
#: 0.040 s on a 2-vCPU Intel Xeon guest (Python 3.11, numpy 2.4) in
#: its fast phases.  A reference second is the time in which the host
#: runs the task ``1 / REFERENCE_S`` times.
REFERENCE_S = 0.040

#: End-to-end metric -> unit (``--trace 0``).
END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

#: Per-layer metric -> unit (``--trace 1``).  ``*_s`` are self times in
#: seconds per measured process (per job on serve-mix).
PER_LAYER = {
    "cli.import_s": "s",
    "experiments.self_s": "s",
    "images.generate_s": "s",
    "images.calls": "count",
    "workloads.record_s": "s",
    "workloads.events": "count",
    "workloads.ns_per_event": "ns",
    "isa.to_columns_s": "s",
    "isa.to_columns_events": "count",
    "isa.to_events_s": "s",
    "isa.to_events_events": "count",
    "isa.encode_s": "s",
    "isa.decode_s": "s",
    "corpus.put_s": "s",
    "corpus.get_s": "s",
    "corpus.bytes_written": "bytes",
    "corpus.bytes_read": "bytes",
    "corpus.hit_ratio": "ratio",
    "core.dispatch_s": "s",
    "core.dispatches": "count",
    "core.events": "count",
    "core.ns_per_event": "ns",
    "simulator.shade_s": "s",
    "simulator.cycle_s": "s",
    "simulator.cache_accesses": "count",
    "simulator.hazard_s": "s",
    "simulator.hazard_events": "count",
    "serve.p99_s": "s",
    "serve.max_jobs_per_s": "1/s",
    "serve.submit_s": "s",
    "serve.queue_wait_p99_s": "s",
    "serve.run_s": "s",
    "serve.dedup_ratio": "ratio",
    "serve.requeues": "count",
    "loadgen.lag_p99_s": "s",
    "paper_abs_err": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}

#: Span name -> self-time metric.  ``core.dispatch`` under
#: ``simulator.cycle`` is the cycle and cache accounting of the cycle
#: model and is billed to it, events included (see ``layer_metrics``).
SPAN_METRIC = {
    "cli.import": "cli.import_s",
    "images.generate": "images.generate_s",
    "workloads.record": "workloads.record_s",
    "isa.to_columns": "isa.to_columns_s",
    "isa.to_events": "isa.to_events_s",
    "isa.encode": "isa.encode_s",
    "isa.decode": "isa.decode_s",
    "corpus.put": "corpus.put_s",
    "corpus.get": "corpus.get_s",
    "core.dispatch": "core.dispatch_s",
    "simulator.shade": "simulator.shade_s",
    "simulator.cycle": "simulator.cycle_s",
    "simulator.hazard": "simulator.hazard_s",
}


def child_env() -> Dict[str, str]:
    """The caller's environment without ``REPRO_*``, importing ``src``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_cpu() -> set:
    """The CPU that every measured reproduction and the reference task
    run on.  The vCPUs of a shared host change speed independently, so
    the reference only tracks the speed a reproduction ran at when both
    run on one CPU."""
    return {max(os.sched_getaffinity(0))}


def run_process(argv: List[str], env: Dict[str, str]) -> dict:
    """Run one process on :func:`measure_cpu` to completion; wall
    seconds, peak RSS, status."""
    started = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    os.sched_setaffinity(proc.pid, measure_cpu())
    try:
        deadline = started + CHILD_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                raise TimeoutError(f"{argv[1]} ran over {CHILD_TIMEOUT_S:.0f}s")
            time.sleep(0.005)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": time.perf_counter() - started,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "ok": proc.returncode == 0,
    }


class Reference:
    """The host-speed reference process (``reference.py``), on
    :func:`measure_cpu`.

    It runs with no path to the program, so no program code can move
    it.  :meth:`scaled` turns wall seconds into reference seconds.
    """

    def __init__(self, env: Dict[str, str]) -> None:
        env = {k: v for k, v in env.items() if k != "PYTHONPATH"}
        self.samples: List[float] = []
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "reference.py")], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        os.sched_setaffinity(self._proc.pid, measure_cpu())

    def sample(self) -> float:
        """Seconds of one run of the task now (median of a few)."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the reference process exited")
        self.samples.append(float(line))
        return self.samples[-1]

    def scaled(self, wall: float, before: float, after: float) -> float:
        """``wall`` seconds timed between samples ``before`` and
        ``after``, in reference seconds."""
        return wall * REFERENCE_S / ((before + after) / 2.0)

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_child(experiments, corpus: Path, trace: bool, work: Path, env) -> dict:
    """One fresh reproduction process (``child.py``) and its output."""
    plan_path = work / "plan.json"
    out_path = work / "out.json"
    out_path.unlink(missing_ok=True)
    plan_path.write_text(json.dumps(
        {"experiments": experiments, "corpus_dir": str(corpus), "trace": trace}
    ))
    rep = run_process(
        [sys.executable, str(HERE / "child.py"), str(plan_path), str(out_path)], env
    )
    rep["traced"] = trace
    if rep["ok"]:
        rep["out"] = json.loads(out_path.read_text())
    return rep


# -- batch workloads ---------------------------------------------------------


def layer_metrics(reps: List[dict]) -> Dict[str, float]:
    """Per-process means of the span breakdown of the traced reps."""
    from spans import covered, self_times

    totals: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    unattributed = []
    for rep in reps:
        spans = rep["out"]["spans"]
        own = self_times(spans)
        by_id = {span["id"]: span for span in spans}
        for span in spans:
            name = span["name"]
            parent = by_id.get(span["parent"])
            metric = SPAN_METRIC.get(name, "experiments.self_s")
            if name == "core.dispatch" and parent and parent["name"] == "simulator.cycle":
                metric = "simulator.cycle_s"
            totals[metric] += own[span["id"]]
            counts = span["counts"]
            if name == "images.generate":
                totals["images.calls"] += 1
            elif name == "workloads.record":
                totals["workloads.events"] += counts["events"]
            elif name == "isa.to_columns":
                totals["isa.to_columns_events"] += counts["events"]
            elif name == "isa.to_events":
                totals["isa.to_events_events"] += counts["events"]
            elif metric == "core.dispatch_s":
                totals["core.dispatches"] += 1
                totals["core.events"] += counts["events"]
            elif name == "simulator.cycle":
                totals["simulator.cache_accesses"] += counts["cache_accesses"]
            elif name == "simulator.hazard":
                totals["simulator.hazard_events"] += counts["events"]
                totals["simulator.cache_accesses"] += counts["cache_accesses"]
        stats = rep["out"]["corpus"]
        totals["corpus.bytes_written"] += stats["bytes_written"]
        totals["corpus.bytes_read"] += stats["bytes_read"]
        hits = stats["disk_hits"] + stats["memory_hits"]
        totals["corpus.hit_ratio"] += hits / max(1, hits + stats["misses"])
        unattributed.append((rep["wall"] - covered(spans)) / rep["wall"])
    metrics = {name: value / len(reps) for name, value in totals.items()}
    metrics["workloads.ns_per_event"] = _ns_per(
        metrics["workloads.record_s"], metrics["workloads.events"])
    metrics["core.ns_per_event"] = _ns_per(
        metrics["core.dispatch_s"], metrics["core.events"])
    metrics["trace.unattributed_frac"] = statistics.mean(unattributed)
    return metrics


def _ns_per(seconds: float, events: float) -> float:
    return seconds * 1e9 / events if events else 0.0


def measure_batch(workload: str, seed: int, seconds: float, trace: bool,
                  tiny: bool, work: Path, env) -> dict:
    import checks
    from plan import FILL, batch_plan

    experiments = batch_plan(workload, seed, tiny=tiny)
    fill = [entry for entry in experiments if entry[0] in FILL.get(workload, ())]
    attempted = failed = 0
    problems: List[str] = []

    setups = []
    reps: List[dict] = []
    with Reference(env) as reference:
        before = reference.sample()
        for index in range(SETUPS):
            started = time.perf_counter()
            corpus = work / f"corpus-{index}"
            corpus.mkdir()
            if fill:
                probe = run_child(fill, corpus, False, work, env)
            else:  # a cold corpus starts empty; check the program imports
                probe = run_process(
                    [sys.executable, "-c", "import repro.cli"], env)
            wall = time.perf_counter() - started
            if not probe["ok"]:
                raise RuntimeError(f"set-up failed: {workload}")
            after = reference.sample()
            setups.append({"wall": wall,
                           "scaled": reference.scaled(wall, before, after)})
            before = after

        # Warm reps replay the last set-up's corpus; cold reps each get
        # a fresh empty one.
        deadline = time.perf_counter() + seconds
        while len(reps) < MIN_REPS or time.perf_counter() < deadline:
            traced = trace and len(reps) % 2 == 1
            if not fill:
                corpus = work / f"cold-{len(reps)}"
            rep = run_child(experiments, corpus, traced, work, env)
            after = reference.sample()
            rep["scaled"] = reference.scaled(rep["wall"], before, after)
            before = after
            reps.append(rep)
        reference_s = statistics.median(reference.samples)

    golden = None
    if seed == DEFAULT_SEED:
        golden = checks.golden_digests()[workload]["tiny" if tiny else "full"]
    first_digest = None
    for rep in reps:
        attempted += 1
        if not rep["ok"]:
            failed += 1
            problems.append("a measured process failed")
            continue
        out = rep["out"]
        rep["digest"] = checks.digest(out["documents"])
        first_digest = first_digest or rep["digest"]
        stats = out["corpus"]
        bad = []
        if rep["digest"] != first_digest:
            bad.append("results differ between identical runs")
        if golden is not None and rep["digest"] != golden:
            bad.append(f"results differ from golden digest ({rep['digest'][:12]})")
        if fill and stats["recorded"]:
            bad.append("warm run recorded traces: set-up left the corpus incomplete")
        if not fill and (stats["disk_hits"] or stats["memory_hits"]):
            bad.append("cold run hit the corpus")
        if bad:
            failed += 1
            problems.extend(bad)

    # Oracle checks over the traces of the last run's corpus: a seeded
    # sample of (trace, configuration) pairs through every backend, and
    # the hit-ratio cells of one document of every good rep.
    from repro.corpus.store import TraceCorpus

    rng = random.Random(f"oracle:{workload}:{seed}")
    store = TraceCorpus(corpus)
    entries = sorted(store.entries(), key=lambda entry: entry.key.digest)
    for entry, (config, policy) in zip(
        rng.sample(entries, min(ORACLE_PAIRS, len(entries))),
        checks.sample_configs(rng, ORACLE_PAIRS),
    ):
        attempted += 1
        mismatched = checks.oracle_mismatches(
            store.get(entry.key).events, config, policy)
        if mismatched:
            failed += 1
            problems.append(
                f"oracle mismatch on {entry.key.describe()}: {mismatched}")
    checked = {}
    for rep in reps:
        if not rep["ok"]:
            continue
        attempted += 1
        if rep["digest"] not in checked:
            checked[rep["digest"]] = checks.cell_mismatches(
                workload, experiments, rep["out"]["documents"], store)
            problems.extend(checked[rep["digest"]])
        if checked[rep["digest"]]:
            failed += 1

    good = [rep for rep in reps if rep["ok"]]
    untraced = [rep for rep in good if not rep["traced"]]
    errors: List[float] = []
    if good:
        for document in good[0]["out"]["documents"]:
            errors.extend(checks.paper_errors(document))
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "samples": len(untraced),
        "digest": first_digest,
        "backend": good[0]["out"]["backend"] if good else None,
        "inputs": {"experiments": experiments},
        "paper_abs_err": statistics.mean(errors) if errors else 0.0,
        "reference_s": reference_s,
        "raw": {
            "wall_s": statistics.median(rep["wall"] for rep in untraced),
            "setup_s": statistics.median(setup["wall"] for setup in setups),
        },
        "metrics": {
            "wall_s": statistics.median(rep["scaled"] for rep in untraced),
            "peak_rss_mb": statistics.median(rep["rss_mb"] for rep in untraced),
            "setup_s": statistics.median(setup["scaled"] for setup in setups),
        },
    }
    if trace:
        traced = [rep for rep in good if rep["traced"]]
        layers = layer_metrics(traced)
        layers["paper_abs_err"] = result["paper_abs_err"]
        layers["trace.overhead_frac"] = (
            statistics.median(rep["scaled"] for rep in traced)
            / result["metrics"]["wall_s"] - 1.0
        )
        result["layers"] = layers
    return result


# -- serve-mix ---------------------------------------------------------------


def measure_serve(seed: int, seconds: float, trace: bool, work: Path, env) -> dict:
    import checks
    import serve_mix
    from plan import SpecStream
    from repro.core import backend
    from repro.serve.jobs import run_job

    workers = os.cpu_count() or 1
    attempted = failed = 0
    problems: List[str] = []
    setups = []
    service: Optional[serve_mix.Service] = None
    try:
        with Reference(env) as reference:
            before = reference.sample()
            for index in range(SETUPS):
                if service is not None:
                    service.close()
                    service = None
                started = time.perf_counter()
                service = serve_mix.Service(work / f"serve-{index}", env, workers)
                wall = time.perf_counter() - started
                after = reference.sample()
                setups.append({"wall": wall,
                               "scaled": reference.scaled(wall, before, after)})
                before = after

            stream = SpecStream(seed)
            outcome = serve_mix.offer(
                service, stream, serve_mix.FIXED_RATE, seconds, workers)
            after = reference.sample()
            speed = reference.scaled(1.0, before, after)
            reference_s = statistics.median(reference.samples)
        attempted += outcome["attempted"]
        failed += outcome["failed"]
        if outcome["failed"]:
            problems.append(f"{outcome['failed']} jobs failed or went unanswered")

        # Seeded sample of served results, re-run in-process and then
        # submitted again, which must return the existing job.
        rng = random.Random(f"serve-check:{seed}")
        done = [
            (spec, row["id"])
            for spec, row in zip(outcome["jobs"], outcome["rows"])
            if "latency" in row
        ]
        sample = rng.sample(done, min(SERVE_SAMPLES, len(done)))
        for spec, job_id in sample:
            attempted += 1
            served = service.client.result(job_id)
            if json.loads(json.dumps(run_job(spec))) != served:
                failed += 1
                problems.append(f"served result of {job_id} differs from run_job")
        deduped = serve_mix.resubmit(service, sample)
        attempted += len(sample)
        if deduped != len(sample):
            failed += len(sample) - deduped
            problems.append(f"{len(sample) - deduped} re-submissions made new jobs")
        for spec, _ in rng.sample(done, min(ORACLE_PAIRS, len(done))):
            attempted += 1
            mismatched = checks.program_oracle_mismatches(spec)
            if mismatched:
                failed += 1
                problems.append(f"oracle mismatch on {spec}: {mismatched}")

        summary = serve_mix.summarize(outcome, speed)
        ladder = []
        if trace:
            for rate in serve_mix.LADDER:
                rung = serve_mix.offer(
                    service, stream, rate, serve_mix.RUNG_SECONDS, workers)
                ok = serve_mix.rung_ok(rung)
                ladder.append({"rate": rate, "ok": ok})
                if not ok:
                    break
    finally:
        if service is not None:
            service.close()

    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "samples": summary["samples"],
        "backend": backend.selected_name(),
        "inputs": {"rate": serve_mix.FIXED_RATE, "jobs": outcome["attempted"]},
        "reference_s": reference_s,
        "raw": {
            "wall_s": summary["p50_s"],
            "setup_s": statistics.median(setup["wall"] for setup in setups),
        },
        "metrics": {
            "wall_s": summary["p50_ref_s"],
            "peak_rss_mb": service.peak_rss_mb,
            "setup_s": statistics.median(setup["scaled"] for setup in setups),
        },
    }
    if trace:
        layers = {name: 0.0 for name in PER_LAYER}
        passed = [rung["rate"] for rung in ladder if rung["ok"]]
        layers.update({
            "serve.p99_s": summary["p99_s"],
            "serve.max_jobs_per_s": passed[-1] if passed else 0.0,
            "serve.submit_s": summary["submit_s"],
            "serve.queue_wait_p99_s": summary["queue_wait_p99_s"],
            "serve.run_s": summary["run_s"],
            "serve.dedup_ratio": deduped / len(sample) if sample else 0.0,
            "serve.requeues": outcome["requeues"],
            "loadgen.lag_p99_s": summary["lag_p99_s"],
            "trace.unattributed_frac": summary["unattributed_frac"],
        })
        result["layers"] = layers
        result["ladder"] = ladder
    return result


# -- entry point ---------------------------------------------------------------


def stamp(args, result: dict) -> dict:
    import numpy

    git_rev = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
        git_rev = probe.stdout.strip() or git_rev
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode())
        source.update(path.read_bytes())
    return {
        "git_rev": git_rev,
        "src_sha256": source.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "backend": result["backend"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "inputs": result["inputs"],
    }


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    from plan import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="smallest batch inputs, for the benchmark's own smoke tests",
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(SRC))
    # Turn a caller's SIGTERM into an exception, so the finally blocks
    # stop the measured process or the server before exiting.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = child_env()
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        if args.workload == "serve-mix":
            result = measure_serve(
                args.seed, args.seconds, bool(args.trace), work, env)
        else:
            result = measure_batch(
                args.workload, args.seed, args.seconds, bool(args.trace),
                args.tiny, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("stamp: " + json.dumps(stamp(args, result), sort_keys=True))
    for problem in result["problems"]:
        print(f"FAILED: {problem}")
    print(f"reference task: median {result['reference_s']:.6f} s over the run "
          f"(REFERENCE_S {REFERENCE_S} s); unscaled seconds: "
          + json.dumps(result["raw"], sort_keys=True))
    if "ladder" in result:
        print("rate ladder: " + json.dumps(result["ladder"]))
    fail_frac = result["failed"] / result["attempted"]
    print(f"fail_frac {fail_frac:.4f} ({result['failed']}/{result['attempted']}); "
          f"{result['samples']} timed samples; paper_abs_err "
          f"{result.get('paper_abs_err', 0.0):.4f}; digest {result.get('digest')}")
    if args.trace:
        chosen, units = result["layers"], PER_LAYER
    else:
        chosen, units = result["metrics"], END_TO_END
    metrics = {name: {"value": chosen[name], "unit": units[name]} for name in units}
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
