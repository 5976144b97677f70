"""Metric arithmetic and correctness checks of the benchmark.

Everything here is a pure function of records, samples and job lines,
so test_metrics.py can drive it without building the simulator.
"""

import math
import statistics

# Simulated fields of a run record that must repeat exactly for one
# design point. Named positively: fields a later record format adds
# are ignored, fields it drops are skipped.
STAT_FIELDS = (
    "ipc", "cycles", "instructions", "l2_mpki", "prefetch_coverage",
    "prefetch_accuracy", "prefetch_timeliness", "dram_reads",
    "dram_writes", "dram_per_1k_instr", "l3_channel_stalls",
    "bo_final_offset",
)

# The core retires up to 12 micro-ops per cycle (Table 1), so a
# measured window stops between 0 and 11 instructions past its budget.
RETIRE_WIDTH = 12

# How SystemConfig::describe() names the L2 prefetchers the
# workloads use.
PREFETCHER_LABEL = {"bo": "L2 best-offset", "nl": "L2 next-line"}

# A percentile is reported only with at least this many samples
# beyond it.
TAIL_SAMPLES = 10


def is_terminal(obj):
    """True for the one answer a job line gets: a run or error record.

    Other objects on the response stream (interval lines, a final
    metrics record, anything with a "type" other than "run") are
    ignored, so later record types do not break the benchmark.
    """
    if not isinstance(obj, dict) or "job_index" not in obj:
        return False
    if obj.get("type", "run") != "run":
        return False
    return "error" in obj or "instructions" in obj


def is_error(record):
    return "error" in record


def percentile(values, p):
    """Nearest-rank percentile (p in (0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def p90_or_none(values):
    """p90, only when at least TAIL_SAMPLES samples lie beyond it."""
    if len(values) * 0.1 < TAIL_SAMPLES:
        return None
    return percentile(values, 90)


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def bo_speedup(ipc_by_key):
    """Geomean IPC of BO over next-line on paired design points.

    Keys are workloads.Point.key() tuples; a BO point pairs with the
    next-line point that differs from it only in the prefetcher.
    Returns (geomean, pairs), or None when nothing pairs.
    """
    ratios = [ipc / ipc_by_key[(key[0], "nl") + key[2:]]
              for key, ipc in ipc_by_key.items()
              if key[1] == "bo" and (key[0], "nl") + key[2:] in ipc_by_key]
    if not ratios:
        return None
    return geomean(ratios), len(ratios)


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


# How the server answered a line (answer_kinds).
MEMO, RESTORE, SIMULATE, ERROR = "memo", "restore", "simulate", "error"


def answer_kinds(answers):
    """How the server answered each line, read from the records alone.

    @p answers is a list of (point, record) in submission order. A
    memo answer is a copy of the record that simulated the same line:
    it carries the same wall_seconds as the line's first answer. A
    "warm-shared" answer that simulated, for a prefix an earlier
    "warm-shared" answer already warmed in the same process, restored
    the warm state. Every other run record simulated in full.
    """
    first_wall = {}
    warmed = set()
    kinds = []
    for point, record in answers:
        if is_error(record):
            kinds.append(ERROR)
            continue
        memo = (point.key(), point.checkpoint == "share")
        wall = record.get("wall_seconds")
        if wall is not None and first_wall.get(memo) == wall:
            kinds.append(MEMO)
            continue
        first_wall.setdefault(memo, wall)
        shared = record.get("checkpoint") == "warm-shared"
        kinds.append(RESTORE if shared and point.prefix() in warmed
                     else SIMULATE)
        if shared:
            warmed.add(point.prefix())
    return kinds


def simulated_instructions(point, kind):
    """Core-0 instructions an answer of @p kind made the server
    simulate: warm-up and window, only the window for a restore,
    nothing for a memo answer or an error."""
    if kind == SIMULATE:
        return point.warmup + point.instr
    if kind == RESTORE:
        return point.instr
    return 0


def minstr_per_s(jobs):
    """Simulated core-0 Minstr per host second over the jobs that ran
    a simulation. Each job is a dict with "simulated_instr" (0 for a
    memo hit) and "latency_s"."""
    sims = [j for j in jobs if j["simulated_instr"] > 0]
    seconds = sum(j["latency_s"] for j in sims)
    return sum(j["simulated_instr"] for j in sims) / seconds / 1e6


def failed_frac(attempted, failed):
    return failed / attempted


def stat_tuple(record):
    return tuple((f, record[f]) for f in STAT_FIELDS if f in record)


def record_problems(record, job):
    """Checks on one answer that hold for every correct run.

    @p job is the submitted design point (a workloads.Point). Returns
    a list of problem strings, empty when the record passes.
    """
    if is_error(record):
        return ["error record: %s" % record.get("detail",
                                                 record.get("error"))]
    problems = []
    for field in ("instructions", "cycles", "ipc"):
        if field not in record:
            problems.append("missing %s" % field)
    if problems:
        return problems
    if record.get("workload") != job.workload:
        problems.append("workload %r, submitted %r"
                        % (record.get("workload"), job.workload))
    over = record["instructions"] - job.instr
    if not 0 <= over < RETIRE_WIDTH:
        problems.append("instructions %d for a budget of %d"
                        % (record["instructions"], job.instr))
    if record["cycles"] <= 0 or record["ipc"] <= 0:
        problems.append("non-positive cycles or ipc")
    for field in ("prefetch_coverage", "prefetch_accuracy",
                  "prefetch_timeliness"):
        if field in record and not 0.0 <= record[field] <= 1.0:
            problems.append("%s %r outside [0, 1]" % (field, record[field]))
    if "dram_per_1k_instr" in record and "dram_reads" in record:
        want = 1000.0 * (record["dram_reads"] + record["dram_writes"]) \
            / record["instructions"]
        if not math.isclose(record["dram_per_1k_instr"], want,
                            rel_tol=1e-4, abs_tol=1e-4):
            problems.append("dram_per_1k_instr %r, counters give %r"
                            % (record["dram_per_1k_instr"], want))
    config = record.get("config", "")
    if "%d-core" % job.cores not in config:
        problems.append("config %r is not %d-core" % (config, job.cores))
    if ("4MB" if job.page == "4m" else "4KB") not in config:
        problems.append("config %r has the wrong page size" % config)
    if PREFETCHER_LABEL[job.prefetcher] not in config:
        problems.append("config %r is not %s" % (config, job.prefetcher))
    return problems


class Gate:
    """Collects the correctness verdict of one benchmark run.

    Every answered job passes through check(); answers for one design
    point must be identical to the first answer seen for it, which
    covers repeats across rounds, memo hits and warm restores alike.
    A job that fails any check counts once toward `failed`.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = {}

    def check(self, job, record):
        """Check one answer against the record checks and against the
        first answer for the same design point."""
        problems = record_problems(record, job)
        if not problems:
            stats = stat_tuple(record)
            if self.reference.setdefault(job.key(), stats) != stats:
                problems.append("stats differ from an earlier answer "
                                "for the same design point")
        return self.verdict(job.describe(), problems)

    def verdict(self, what, problems):
        """Count one attempted job; it failed when problems is non-empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append("%s: %s" % (what, "; ".join(problems)))
        return not problems

    def fail(self, what):
        """A job that never answered, or a check outside any record."""
        return self.verdict("run", [what])

    @property
    def correct(self):
        return self.failed == 0 and self.attempted > 0
