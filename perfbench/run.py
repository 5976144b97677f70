#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload solo-mem --seed 1 --seconds 30 \
        --trace 0

Run from the root of a checkout. Builds the simulator into
.bench_build/ (perfbench/CMakeLists.txt), generates the workload from
the seed, measures it for the given seconds and prints, as the last
line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 makes the separate
traced run and reports the per-layer metrics. README.md defines every
metric and says why each workload exists.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import time
from pathlib import Path

import client
import layers
import metrics
import workloads

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BOPSIM = BUILD / "bop" / "tools" / "bopsim"
LAYERS = BUILD / "perfbench_layers"
CAL = BUILD / "perfbench_cal"

# Host-speed reference: seconds the calibration kernel takes per
# thread for CAL_ITERATIONS iterations on a nominal host. Host times
# are reported scaled by CAL_REF_S / (measured kernel time), that is
# in seconds of the nominal host (README.md, "Host drift").
CAL_ITERATIONS = 2_000_000
CAL_REF_S = 0.15
# Least time between two samples taken between the lines of a round.
CAL_GAP_S = 1.0

# Whole-run safety limits, well inside the 180 s a run may take.
ROUND_TIMEOUT_S = 90.0
PROCESS_EXIT_S = 30.0


def build():
    """Configure once, then let the build tool bring the three
    benchmark binaries up to date (a no-op when nothing changed)."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit("perfbench: no simulator sources at %s" % ROOT)
    BUILD.mkdir(exist_ok=True)
    env = dict(os.environ, CCACHE_DISABLE="1")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                  "bopsim", "perfbench_layers", "perfbench_cal"])
    with open(BUILD / "build.log", "ab") as out:
        for step in steps:
            if subprocess.call(step, stdout=out, stderr=out, env=env):
                raise SystemExit("perfbench: build failed, see %s"
                                 % (BUILD / "build.log"))


def calibrate(threads):
    out = subprocess.run([str(CAL), str(threads), str(CAL_ITERATIONS)],
                         capture_output=True, text=True, check=True,
                         timeout=60, env=client.simulator_env())
    return float(out.stdout.split()[0])


def pin_serial(wl):
    """Run a serial workload on one CPU: this client, every process it
    starts and the calibration kernel. The client and the server's
    reader and worker threads then hand each line over on one CPU
    instead of waking idle ones, whose wake-up cost on a loaded
    virtual machine grows faster than its compute slows down; and the
    kernel measures the very CPU the work ran on. The highest CPU
    allowed is used, since CPU 0 takes more interrupts."""
    if wl.workers == 1:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def serve_round(wl, scratch, stderr_log, gate, deadline, idle=None):
    """One sample: a fresh serve process answers the whole round.

    Returns (makespan_s, peak_rss_mb, jobs) with one job dict
    (latency_s, kind, simulated_instr, point, record) per line. Time spent in
    `idle` between lines (client.closed_loop) is not part of the
    makespan.
    """
    ckpt = fresh_dir(scratch / "ckpt")
    journal = str(fresh_dir(scratch / "journal") / "journal.ndjson") \
        if wl.journal else None
    serve = client.Serve(str(BOPSIM), wl.workers, stderr_log,
                         journal=journal, ckpt_dir=str(ckpt))
    try:
        t0 = time.perf_counter()
        answers, idle_s = client.closed_loop(serve, wl.round, wl.workers,
                                             deadline, idle)
        makespan = time.perf_counter() - t0 - idle_s
        rss = serve.peak_rss_mb()
        rc = serve.close(PROCESS_EXIT_S)
    finally:
        serve.kill()
    if rc != 0:
        gate.fail("serve round exited with status %d" % rc)
    kinds = metrics.answer_kinds([(p, r) for p, _, r in answers])
    jobs = []
    for (point, latency, record), kind in zip(answers, kinds):
        gate.check(point, record)
        jobs.append({"latency_s": latency, "kind": kind,
                     "simulated_instr": metrics.simulated_instructions(
                         point, kind),
                     "point": point, "record": record})
    return makespan, rss, jobs


def setup_probe(point, scratch, stderr_log, gate, deadline):
    """Launch to first answer of a fresh serve process whose only job
    has a one-instruction window: process start, System and trace
    construction, and the warm-up (or warm-state restore)."""
    serve = client.Serve(str(BOPSIM), 1, stderr_log,
                         ckpt_dir=str(scratch / "probe-ckpt"))
    try:
        serve.send(client.encode(point))
        record, received = serve.answer(deadline)
        setup = received - serve.started
        rc = serve.close(PROCESS_EXIT_S)
    finally:
        serve.kill()
    gate.check(point, record)
    if rc != 0:
        gate.fail("set-up probe exited with status %d" % rc)
    return setup


def prewarm_probes(wl, scratch, stderr_log, deadline):
    """Warm the shared prefixes that probes restore into the probes'
    checkpoint directory (not measured)."""
    fresh_dir(scratch / "probe-ckpt")
    shared = list(dict.fromkeys(p for p in wl.probes
                                if p.checkpoint == "share"))
    if not shared:
        return
    serve = client.Serve(str(BOPSIM), wl.workers, stderr_log,
                         ckpt_dir=str(scratch / "probe-ckpt"))
    try:
        client.closed_loop(serve, shared, wl.workers, deadline)
        serve.close(PROCESS_EXIT_S)
    finally:
        serve.kill()


def cold_reference(wl, scratch, stderr_log, gate, deadline):
    """Answer every shared-prefix design point again with a cold
    warm-up in a fresh process: the gate holds the warm-restored and
    memo answers of the rounds to these (not measured)."""
    cold = list(dict.fromkeys(p._replace(checkpoint="cold")
                              for p in wl.round if p.checkpoint == "share"))
    if not cold:
        return
    serve = client.Serve(str(BOPSIM), wl.workers, stderr_log)
    try:
        answers, _ = client.closed_loop(serve, cold, wl.workers, deadline)
        rc = serve.close(PROCESS_EXIT_S)
    finally:
        serve.kill()
    for point, _, record in answers:
        gate.check(point, record)
    if rc != 0:
        gate.fail("cold reference exited with status %d" % rc)


def measure(wl, seconds, scratch):
    """The untraced run: set-up probes, then rounds until `seconds`
    have passed, calibrating host speed between them."""
    gate = metrics.Gate()
    stderr_log = open(scratch / "serve.log", "ab")
    start = time.perf_counter()
    deadline = start + ROUND_TIMEOUT_S
    cal = []
    last_cal = 0.0

    def recalibrate(min_gap_s=0.0):
        """Sample host speed, at most once per min_gap_s seconds."""
        nonlocal last_cal
        if time.perf_counter() - last_cal >= min_gap_s:
            cal.append(calibrate(wl.workers))
            last_cal = time.perf_counter()

    # Serial workloads also sample between lines, so the samples spread
    # over the run instead of bunching at round ends.
    between_lines = (lambda: recalibrate(CAL_GAP_S)) \
        if wl.workers == 1 else None
    try:
        recalibrate()
        prewarm_probes(wl, scratch, stderr_log, deadline)
        setups = []
        for point in wl.probes:
            setups.append(setup_probe(point, scratch, stderr_log, gate,
                                      deadline))
        recalibrate()
        makespans, rss, rates, jobs = [], [], [], []
        while not makespans or time.perf_counter() - start < seconds:
            deadline = time.perf_counter() + ROUND_TIMEOUT_S
            span, peak, round_jobs = serve_round(wl, scratch, stderr_log,
                                                 gate, deadline,
                                                 between_lines)
            makespans.append(span)
            rss.append(peak)
            rates.append(metrics.minstr_per_s(round_jobs))
            jobs += round_jobs
            recalibrate()
        cold_reference(wl, scratch, stderr_log,
                       gate, time.perf_counter() + ROUND_TIMEOUT_S)
    finally:
        stderr_log.close()

    # Host seconds -> seconds of the nominal host.
    scale = CAL_REF_S / statistics.median(cal)
    latencies = [j["latency_s"] for j in jobs]
    distinct = {j["point"].key(): j["record"] for j in jobs
                if not metrics.is_error(j["record"])}
    raw = {
        "minstr_per_s": statistics.median(rates),
        "jobs_per_s": statistics.median(len(wl.round) / m
                                        for m in makespans),
        "wall_s": statistics.median(makespans),
        "job_latency_p50_s": statistics.median(latencies),
        "setup_s": statistics.median(setups),
    }
    values = {
        "minstr_per_s": raw["minstr_per_s"] / scale,
        "jobs_per_s": raw["jobs_per_s"] / scale,
        "wall_s": raw["wall_s"] * scale,
        "job_latency_p50_s": raw["job_latency_p50_s"] * scale,
        "setup_s": raw["setup_s"] * scale,
        "peak_rss_mb": max(rss),
        "sim_ipc_gm": metrics.geomean([r["ipc"] for r in distinct.values()]),
    }
    counts = {
        "minstr_per_s": len(rates), "jobs_per_s": len(makespans),
        "wall_s": len(makespans),
        "job_latency_p50_s": len(latencies), "setup_s": len(setups),
        "peak_rss_mb": len(rss), "sim_ipc_gm": len(distinct),
    }
    report = [("host speed scale", "%.4f" % scale,
               "calibrations", len(cal))]
    for name in raw:
        report.append((name + " (raw)", "%.6g" % raw[name], "n",
                       counts[name]))
    p90 = metrics.p90_or_none(latencies)
    report.append(("job_latency_p90_s", "n/a" if p90 is None
                   else "%.6g" % (p90 * scale), "n", len(latencies)))
    speedup = metrics.bo_speedup({k: r["ipc"] for k, r in distinct.items()})
    if speedup is not None:
        report.append(("bo_speedup_gm", "%.6f" % speedup[0], "pairs",
                       speedup[1]))
    report.append(("failed_frac", "%.6f" % metrics.failed_frac(
        gate.attempted, gate.failed), "attempted", gate.attempted))
    return gate, values, counts, report


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    wl = workloads.make(args.workload, args.seed)
    pin_serial(wl)
    scratch = fresh_dir(BUILD / "run" / args.workload)
    if args.trace:
        gate, values, report = layers.traced_run(wl, scratch, str(LAYERS),
                                                 serve_round)
        counts = {}
    else:
        gate, values, counts, report = measure(wl, args.seconds, scratch)

    units = metrics_units(args.trace)
    if set(values) != set(units):
        raise SystemExit("perfbench: metrics %s do not match BENCHMARK.json"
                         % sorted(set(values) ^ set(units)))
    print("perfbench %s seed %d%s" % (wl.name, args.seed,
                                      " (traced)" if args.trace else ""))
    for name, value in values.items():
        n = counts.get(name)
        print("  %-28s %14.6g %-12s%s" % (name, value, units[name],
                                           "" if n is None else " n=%d" % n))
    for row in report:
        print("  %-28s %14s %s=%s" % row)
    for problem in gate.problems[:20]:
        print("  FAILED " + problem)
    print(json.dumps({
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))


def metrics_units(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if traced else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


if __name__ == "__main__":
    main()
