"""The serve-mix workload: an open-loop job stream against ``repro serve``.

One generator (this process) sends bundled-program jobs on a fixed
schedule from at most ``nproc`` connections; the server runs ``nproc``
workers.  A job's latency runs from the time its submission was due to
the ``finished`` stamp of its durable record, so a stalled generator or
server is charged to every job it delays.  Every spec in the stream
is distinct; deduplication is checked afterwards by re-submitting a
sample of finished specs (:func:`resubmit`).
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from plan import SpecStream

#: Offered rate of the measured phase (jobs/s): well under what
#: two workers complete, so the phase measures latency, not backlog.
FIXED_RATE = 40.0

#: Rate ladder of the traced run, and the p99 limit a rung must meet.
LADDER = (20.0, 40.0, 80.0, 120.0, 160.0, 200.0, 250.0, 300.0)
RUNG_SECONDS = 2.5
LATENCY_LIMIT_S = 0.5

#: Seconds a job may take after its due time before it counts as
#: unfinished.
SETTLE_S = 30.0


def percentile(values: List[float], fraction: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


class Service:
    """One ``repro serve`` process group on an ephemeral port.

    The server runs in its own session, so :meth:`close` can stop it and
    every worker it forked, and wait until none is left.
    """

    def __init__(self, root: Path, env: Dict[str, str], workers: int) -> None:
        from repro.serve.client import ServeClient, ServeError
        from repro.serve.server import endpoint_for

        root.mkdir()
        self.queue_dir = root / "queue"
        self._log = (root / "serve.log").open("wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--queue-dir", str(self.queue_dir), "--port", "0",
             "--workers", str(workers)],
            stdout=self._log, stderr=subprocess.STDOUT, env=env,
            start_new_session=True,
        )
        self.peak_rss_mb: Optional[float] = None
        deadline = time.monotonic() + 60.0
        while True:
            endpoint = endpoint_for(str(self.queue_dir))
            if endpoint:
                self.client = ServeClient(
                    f"http://{endpoint['host']}:{endpoint['port']}", timeout=30.0
                )
                try:
                    self.client.healthz()
                    return
                except ServeError:
                    pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.close()
                raise RuntimeError("repro serve did not come up")
            time.sleep(0.02)

    def close(self) -> None:
        from repro.serve.client import ServeError

        if self.proc.poll() is None and hasattr(self, "client"):
            try:
                self.client.stop()
            except ServeError:
                pass
        try:
            _, _, usage = _wait4(self.proc, 20.0)
        except TimeoutError:
            os.killpg(self.proc.pid, signal.SIGKILL)
            _, _, usage = _wait4(self.proc, None)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        # Workers the server failed to reap would be orphaned: kill the
        # session and wait until it is empty.
        deadline = time.monotonic() + 10.0
        while True:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                break
            if time.monotonic() > deadline:
                raise RuntimeError("serve workers survived teardown")
            time.sleep(0.05)
        self._log.close()


def _wait4(proc: subprocess.Popen, timeout: Optional[float]):
    """``os.wait4`` with a timeout; returns (pid, status, rusage)."""
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, 0 if deadline is None else os.WNOHANG)
        if pid:
            proc.returncode = status
            return pid, status, usage
        if time.monotonic() > deadline:
            raise TimeoutError(proc.pid)
        time.sleep(0.05)


def offer(service: Service, stream: SpecStream, rate: float, seconds: float,
          connections: int) -> dict:
    """Send ``rate * seconds`` jobs on schedule; wait until they settle.

    Returns per-job rows and counts; ``failed`` counts jobs that failed,
    were cancelled, stayed unfinished or were not created as new jobs.
    """
    from repro.serve.client import ServeError

    jobs = stream.take(max(1, int(rate * seconds)))
    rows: List[dict] = [{} for _ in jobs]
    lock = threading.Lock()
    cursor = [0]
    start_perf = time.perf_counter() + 0.05
    start_epoch = time.time() + (start_perf - time.perf_counter())

    def sender() -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(jobs):
                return
            due = start_perf + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            row = rows[index]
            row.update(due_epoch=start_epoch + index / rate, lag=sent - due)
            try:
                reply = service.client.submit(jobs[index])
            except ServeError as exc:
                row["error"] = str(exc)
                continue
            row["submit_s"] = time.perf_counter() - sent
            row["id"] = reply["id"]
            row["created"] = reply.get("created")

    threads = [threading.Thread(target=sender) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    pending = {row["id"] for row in rows if "id" in row}
    records: Dict[str, dict] = {}
    deadline = time.monotonic() + SETTLE_S
    while pending and time.monotonic() < deadline:
        for state in ("done", "failed", "cancelled"):
            for summary in service.client.jobs(state=state):
                if summary["id"] in pending:
                    pending.discard(summary["id"])
                    records[summary["id"]] = service.client.job(summary["id"])
        if pending:
            time.sleep(0.1)

    failed = requeues = 0
    for row in rows:
        if "id" not in row or row["created"] is not True:
            failed += 1
        elif records.get(row["id"], {}).get("state") != "done":
            failed += 1
        else:
            record = records[row["id"]]
            row["latency"] = record["finished"] - row["due_epoch"]
            row["queue_wait"] = record["queue_latency"]
            row["run"] = record["wall"]
            requeues += record["requeues"]
    return {
        "jobs": jobs, "rows": rows, "attempted": len(rows), "failed": failed,
        "latencies": [row["latency"] for row in rows if "latency" in row],
        "requeues": requeues,
    }


def resubmit(service: Service, done: List[tuple]) -> int:
    """Submit each finished (spec, id) again; the number the service
    answered with the existing id instead of creating a job."""
    deduped = 0
    for spec, job_id in done:
        reply = service.client.submit(spec)
        if reply["id"] == job_id and reply.get("created") is False:
            deduped += 1
    return deduped


def rung_ok(outcome: dict) -> bool:
    """The rate is sustained: nothing failed or stayed unfinished, and
    p99 latency is within :data:`LATENCY_LIMIT_S`."""
    return (
        outcome["failed"] == 0
        and bool(outcome["latencies"])
        and percentile(outcome["latencies"], 0.99) <= LATENCY_LIMIT_S
    )


def summarize(outcome: dict, speed: float) -> dict:
    """Latency percentiles and the per-layer split of one offered phase.

    ``p50_ref_s`` is the median job latency with its CPU-bound parts,
    the submit round trip and the worker's run time, multiplied by
    ``speed`` (reference seconds per wall second over the phase).  Its
    waiting parts, generator lag and queue wait, are set by the
    schedule and the workers' idle poll, not by host speed, and stay
    in wall seconds.
    """
    sent = [row for row in outcome["rows"] if "submit_s" in row]
    done = [row for row in sent if "latency" in row]
    latencies = outcome["latencies"]
    attributed = sum(
        row["lag"] + row["submit_s"] + row["queue_wait"] + row["run"]
        for row in done
    )
    return {
        "p50_s": statistics.median(latencies),
        "p50_ref_s": statistics.median(
            row["latency"] + (row["submit_s"] + row["run"]) * (speed - 1.0)
            for row in done
        ),
        "p99_s": percentile(latencies, 0.99),
        "samples": len(latencies),
        "submit_s": statistics.median(row["submit_s"] for row in sent),
        "lag_p99_s": percentile([row["lag"] for row in sent], 0.99),
        "queue_wait_p99_s": percentile([row["queue_wait"] for row in done], 0.99),
        "run_s": statistics.median(row["run"] for row in done),
        "unattributed_frac": max(0.0, 1.0 - attributed / sum(latencies)),
    }
