"""Seeded generation of the benchmark's workloads.

A workload is a round: the list of job lines one fresh `bopsim
--serve` process answers, plus the set-up probes and the serve
settings. The seed makes the inputs: every design point's simulation
seed (the synthetic trace streams, virtual memory and replacement
randomness), the job order, and for serve-reuse the whole line stream.
The program sees only the generated job lines. README.md says why
each workload is built the way it is.
"""

import json
import os
import random
from typing import NamedTuple, Optional

# Memory-intensive generators where BO keeps learning (paper Fig. 6).
MEMORY_BOUND = ("462.libquantum", "470.lbm", "433.milc", "459.GemsFDTD",
                "429.mcf", "410.bwaves")


class Point(NamedTuple):
    """One job line: a design point plus how the server may answer it."""
    workload: str
    prefetcher: str  # "bo" or "nl"
    cores: int
    page: str  # "4k" or "4m"
    seed: int
    warmup: int
    instr: int
    checkpoint: Optional[str] = None  # None, "share" or "cold"

    def line(self):
        job = {"workload": self.workload, "prefetcher": self.prefetcher,
               "cores": self.cores, "page": self.page, "seed": self.seed,
               "warmup": self.warmup, "instr": self.instr}
        if self.checkpoint:
            job["checkpoint"] = self.checkpoint
        return json.dumps(job)

    def key(self):
        """The design point: what the simulated statistics depend on."""
        return self[:7]

    def prefix(self):
        """What a shared warm-up prefix depends on."""
        return self[:6]

    def describe(self):
        return "%s/%s/%dc/%s/seed%d/%d+%d" % (
            self.workload, self.prefetcher, self.cores, self.page,
            self.seed, self.warmup, self.instr)


class Workload(NamedTuple):
    name: str
    round: list  # Points one serve process answers, in order
    probes: list  # set-up probes: Points with a 1-instruction window
    workers: int  # serve --jobs, and lines kept outstanding
    journal: bool  # serve with --journal


def workers():
    """sweep-grid farm workers: one CPU stays free for the client and
    the OS."""
    return max(1, min(3, (os.cpu_count() or 1) - 1))


def _seed(rng):
    return rng.randrange(1, 2 ** 31)


def solo_mem(seed):
    """Serial BO jobs on the memory-intensive generators, one core.

    Two input streams per generator: the host cost of one generator
    varies with its stream, and two of them halve that variance.
    """
    rng = random.Random("solo-mem:%d" % seed)
    points = [Point(w, "bo", 1, "4k", _seed(rng), 1_000_000, 1_000_000)
              for w in MEMORY_BOUND for _ in range(2)]
    rng.shuffle(points)
    first = {p.workload: p for p in reversed(points)}
    probes = [first[w]._replace(instr=1) for w in MEMORY_BOUND]
    return Workload("solo-mem", points, probes, 1, False)


# Two memory-bound generators, and two compute-bound ones whose core
# model runs while BO idles.
SWEEP_GENERATORS = ("462.libquantum", "429.mcf", "453.povray", "444.namd")


def sweep_grid(seed):
    """Next-line vs BO x 1/2/4 cores x 4KB/4MB pages, every point cold.

    A next-line/BO pair shares its simulation seed, so the pair is a
    paired comparison (paper Fig. 6). Jobs go out costliest first (more
    active cores first, seeded order within a core count) so the
    makespan does not hinge on where the seed puts a 4-core job.
    """
    rng = random.Random("sweep-grid:%d" % seed)
    points = []
    for w in SWEEP_GENERATORS:
        for cores in (1, 2, 4):
            for page in ("4k", "4m"):
                s = _seed(rng)
                for pf in ("nl", "bo"):
                    points.append(Point(w, pf, cores, page, s,
                                        500_000, 200_000))
    rng.shuffle(points)
    points.sort(key=lambda p: -p.cores)
    probes = [p._replace(instr=1) for p in points
              if p.cores == 2 and p.page == "4k" and p.prefetcher == "bo"]
    return Workload("sweep-grid", points, probes, workers(), False)


REUSE_SHARED = ("433.milc", "459.GemsFDTD")
REUSE_BUDGETS = tuple(range(2_000, 26_000, 2_000))
REUSE_LINES = 800


def serve_reuse(seed):
    """A serve stream that mostly repeats a few design points.

    Two warm-up prefixes, each asked for with twelve short measure
    budgets ("checkpoint": "share"). The stream opens with one line per
    prefix, which warms up, then the other budgets in seeded order, each
    of which restores the warm state instead of warming up. The other
    776 lines repeat these in seeded order and are answered from the
    memo. One line is outstanding at a time: with several, the round
    was bound by pipe round trips and thread wake-ups, whose cost the
    host-speed calibration does not follow.
    """
    rng = random.Random("serve-reuse:%d" % seed)
    prefixes = [Point(w, "bo", 1, "4k", _seed(rng), 500_000, 0, "share")
                for w in REUSE_SHARED]
    producers = [p._replace(instr=REUSE_BUDGETS[0]) for p in prefixes]
    restorers = [p._replace(instr=b) for p in prefixes
                 for b in REUSE_BUDGETS[1:]]
    rng.shuffle(restorers)
    distinct = producers + restorers
    repeats = [rng.choice(distinct)
               for _ in range(REUSE_LINES - len(distinct))]
    probes = [p._replace(instr=1) for p in prefixes] * 10
    return Workload("serve-reuse", distinct + repeats, probes, 1, True)


WORKLOADS = {"solo-mem": solo_mem, "sweep-grid": sweep_grid,
             "serve-reuse": serve_reuse}


def make(name, seed):
    return WORKLOADS[name](seed)
