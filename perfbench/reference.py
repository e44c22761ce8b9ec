"""Host-speed reference: a fixed task that loads no program code.

    python perfbench/reference.py

For every line read from standard input the process runs the task
:data:`REPEATS` times and answers with one line: the median of their
wall times in seconds.  It exits at end of input.

The task mixes what the measured reproductions spend their time on:
interpreted Python (dict updates and integer arithmetic) and numpy
sorting and counting over a fixed array.  ``run.py`` samples it
between measured processes and divides their wall times by it, so a
slow phase of a shared host slows both sides and cancels.  The task
depends only on the interpreter and numpy, never on the program under
test, so a change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

#: Runs of the task per sample.
REPEATS = 5

_VALUES = np.random.default_rng(12345).integers(0, 1 << 20, size=200_000)


def task() -> int:
    counts: dict = {}
    total = 0
    for index in range(30_000):
        key = (index * 2654435761) & 1023
        counts[key] = counts.get(key, 0) + 1
        total += key % 7
    _, inverse = np.unique(_VALUES, return_inverse=True)
    total += int(np.bincount(inverse).max())
    total += int(np.argsort(_VALUES, kind="stable")[0])
    return total


def sample() -> float:
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        task()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def main() -> int:
    task()  # first-call costs (page faults, numpy dispatch) stay out of samples
    for _ in sys.stdin:
        print(repr(sample()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
