"""Seeded inputs for the benchmark's workloads.

The seed is an argument of the benchmark; the program only ever sees
the experiment keyword arguments built here.  Two runs with one seed
get identical plans.

Different seeds must cost about the same, or the run-to-run spread of
``wall_s`` would measure the seed instead of the program.

* cold-tables draws its inputs from the seed.  Its time is mostly
  recording, which follows the event count, so every seeded choice is
  made between inputs of (nearly) equal length: images one per entropy
  stratum, where every candidate has the same pixel count at
  :data:`SCALE`, and applications one from each of :data:`COST_PAIRS`.
* The warm workloads replay fixed inputs (:data:`WARM_IMAGES`,
  :data:`SWEEP_APPS`, :data:`CYCLE_APPS`) in a seeded order.  Replay
  time depends on each trace's content, not only its length: two
  subsets drawn as above differed by about 20% in warm-sweep wall time
  on one host, more than a regression bound can absorb.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

#: Workload scale handed to every driver (image side x scale, suite
#: loop counts x scale).  Small enough that one reproduction takes a
#: few seconds, so a run holds several of them.
SCALE = 0.05

#: Scale of the warm workloads.  A replay there is cheap next to CLI
#: start-up, so they use larger traces to put most of a run in the
#: layers they measure.
LARGE_SCALE = 0.1

#: Scale of the smoke tests' ``--tiny`` runs.
TINY_SCALE = 0.02

#: Table 8 images by entropy stratum.  At :data:`SCALE` every image of
#: a stratum has the same pixel count; at :data:`LARGE_SCALE` the mid
#: stratum's differ by under 5% of a run's pixels.  The low stratum has
#: one member: fractal, the other low-entropy image, is 1.5x lablabel.
#: nature (7.38 bits) is left out: table11 raises on venhance x nature
#: at scale 0.1 (Amdahl "SE must be >= 1, got 0.9999999999999999"),
#: an open defect of the program, so no workload is given it.
HIGH_ENTROPY = ("mandrill", "Muppet1")  # 7.0-7.3 bits
MID_ENTROPY = ("guya", "star", "chroms")  # 4.8-7.0 bits
LOW_ENTROPY = ("lablabel",)  # 3.4 bits

#: Khoros applications paired by near-equal trace length (events over
#: the whole catalogue at :data:`SCALE`, within 5% inside a pair),
#: cheapest pair first.  Recording and replay cost follow the event
#: count, so swapping one member for the other keeps a run's work.
COST_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("vrect2pol", "vmpp"),  # 41k, 44k events
    ("vspatial", "venhpatch"),  # 64k, 66k
    ("vdetilt", "vcost"),  # 72k, 74k
    ("venhance", "vslope"),  # 85k, 88k
    ("vsurf", "vdiff"),  # 109k, 113k
    ("vbpf", "vbrf"),  # 128k, 128k
    ("vwarp", "vgef"),  # 130k, 131k
)

#: Bundled programs of the serve-mix job stream.
SERVE_PROGRAMS = ("saxpy", "dot_product", "gamma_lut", "sobel_gx")

BATCH_WORKLOADS = ("cold-tables", "warm-sweep", "warm-cycles")
WORKLOADS = BATCH_WORKLOADS + ("serve-mix",)


def pick_images(rng: random.Random) -> List[str]:
    """One image per entropy stratum, high to low."""
    return [rng.choice(HIGH_ENTROPY), rng.choice(MID_ENTROPY), *LOW_ENTROPY]


def pick_apps(rng: random.Random, names: Sequence[str], pairs: int) -> List[str]:
    """One application from each of the ``pairs`` cheapest
    :data:`COST_PAIRS` that lie inside ``names``, in ``names`` order."""
    usable = [pair for pair in COST_PAIRS if set(pair) <= set(names)]
    if pairs > len(usable):
        raise ValueError(f"{pairs} pairs asked, {len(usable)} lie inside {names}")
    chosen = {rng.choice(pair) for pair in usable[:pairs]}
    return [name for name in names if name in chosen]


#: Inputs of the warm workloads: one image per entropy stratum, and
#: the applications each replays.
WARM_IMAGES = ("mandrill", "star", "lablabel")
SWEEP_APPS = ("vcost", "vspatial", "vrect2pol")
CYCLE_APPS = ("venhance", "vbrf")


def shuffled(rng: random.Random, names: Sequence[str]) -> List[str]:
    order = list(names)
    rng.shuffle(order)
    return order


Experiment = Tuple[str, Dict[str, object]]

#: Experiments whose run records every trace a warm workload replays,
#: at the least replay cost: set-up runs only these into the corpus.
FILL = {
    "warm-sweep": ("table10",),
    "warm-cycles": ("table11",),
}


def batch_plan(workload: str, seed: int, tiny: bool = False) -> List[Experiment]:
    """The (experiment id, driver kwargs) list of one batch workload.

    ``tiny`` shrinks every input to :data:`TINY_SCALE` (smoke tests)."""
    from repro.workloads.khoros import TABLE7_ORDER, TABLE9_APPS

    rng = random.Random(f"{workload}:{seed}")
    scale = {"scale": TINY_SCALE if tiny else SCALE}
    if workload == "cold-tables":
        images = pick_images(rng)
        kernels = pick_apps(rng, TABLE7_ORDER, 4)
        profile = pick_apps(rng, TABLE7_ORDER, 2)
        return [
            ("table5", dict(scale)),
            ("table6", dict(scale)),
            ("table7", {**scale, "images": images, "kernels": kernels}),
            ("table8", {**scale, "kernels": profile}),
            ("table9", {**scale, "images": images, "apps": pick_apps(rng, TABLE9_APPS, 2)}),
            ("table10", {**scale, "images": images[:2], "mm_kernels": kernels[:2]}),
            ("figure2", {**scale, "kernels": profile}),
        ]
    if workload == "warm-sweep":
        # One app set for every sweep, so each stored trace is replayed
        # through ~20 MEMO-TABLE configurations per recording.
        images = shuffled(rng, WARM_IMAGES)
        apps = shuffled(rng, SWEEP_APPS)
        sweep = {"scale": TINY_SCALE if tiny else LARGE_SCALE}
        return [
            ("figure3", {**sweep, "images": images, "apps": apps}),
            ("figure4", {**sweep, "images": images, "apps": apps}),
            ("table9", {**sweep, "images": images, "apps": apps}),
            ("table10", {**sweep, "images": images, "mm_kernels": apps}),
            ("ext-matrix", {**sweep, "images": images, "kernels": apps}),
        ]
    if workload == "warm-cycles":
        cycles = {"scale": TINY_SCALE if tiny else LARGE_SCALE}
        images = shuffled(rng, WARM_IMAGES)
        apps = shuffled(rng, CYCLE_APPS)
        return [
            (name, {**cycles, "images": images, "apps": apps})
            for name in ("table11", "table12", "table13", "ext-hazard", "ext-dual-issue")
        ]
    raise ValueError(f"unknown batch workload {workload!r}")


class SpecStream:
    """Seeded stream of distinct bundled-program job specs.

    Every spec is new within the stream, so every submission is a job
    the service runs.  ``n`` stays small so each job runs in
    milliseconds and the stream measures the service, not the simulator.
    """

    def __init__(self, seed: int) -> None:
        self._fresh = [
            {"type": "program", "program": program, "n": n,
             "entries": entries, "ways": ways, "mantissa": mantissa}
            for program in SERVE_PROGRAMS
            for n in range(8, 72)
            for entries in (8, 16, 32, 64, 128)
            for ways in (1, 2, 4)
            for mantissa in (False, True)
        ]
        random.Random(f"serve-mix:{seed}").shuffle(self._fresh)

    def take(self, count: int) -> List[dict]:
        """The next ``count`` specs."""
        if count > len(self._fresh):
            raise ValueError("spec stream exhausted")
        taken, self._fresh = self._fresh[-count:], self._fresh[:-count]
        return taken[::-1]
