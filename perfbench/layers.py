"""The traced run: per-layer metrics from spans and RunStats counts.

One untraced serve round of the workload supplies the records the
harness metrics are read from. Then perfbench_layers (layers.cc) runs
every distinct design point of the round traced, untraced, and from a
warm-state restore, replays the point's L2-access and L3-miss line
streams into the cache, DRAM and BO layers alone, and times journal
appends. The simulated counts it reports must equal the round's
records: the tracing changes nothing that is simulated.
"""

import concurrent.futures
import json
import statistics
import subprocess
import time

import client
import metrics

LAYERS_TIMEOUT_S = 150.0

# Record fields compared between perfbench_layers and the serve round.
EXACT = ("cycles", "instructions", "dram_reads", "dram_writes",
         "l3_channel_stalls", "bo_final_offset")


def layer_input(points):
    """Every distinct design point in full, plus the next-line
    counterpart of each BO point (statistics only) for bo.speedup_gm.
    One input row per point."""
    full = list(dict.fromkeys(p.key() for p in points))
    extra = [(k[0], "nl") + k[2:] for k in full if k[1] == "bo"]
    extra = list(dict.fromkeys(k for k in extra if k not in full))
    return (["full %s %s %d %s %d %d %d\n" % k for k in full]
            + ["stats %s %s %d %s %d %d %d\n" % k for k in extra])


def run_layers(layers_exe, rows, scratch, workers):
    """Run the rows on as many perfbench_layers processes as the
    workload has workers, so the traced run sees the workload's own
    parallelism. Returns (results, spans); span ids become
    (process, id) pairs so they stay unique."""
    chunks = [rows[k::workers] for k in range(workers) if rows[k::workers]]

    def one(k):
        cmd = [layers_exe, "--spans", str(scratch / ("spans-%d.ndjson" % k))]
        if k == 0:
            cmd += ["--journal", str(scratch / "layers-journal.ndjson")]
        proc = subprocess.run(cmd, input="".join(chunks[k]),
                              capture_output=True, text=True,
                              timeout=LAYERS_TIMEOUT_S,
                              env=client.simulator_env())
        if proc.returncode != 0:
            raise SystemExit("perfbench_layers failed: " + proc.stderr)
        return proc.stdout

    with concurrent.futures.ThreadPoolExecutor(len(chunks)) as pool:
        outputs = list(pool.map(one, range(len(chunks))))
    results = [json.loads(row) for out in outputs
               for row in out.splitlines()]
    spans = []
    for k in range(len(chunks)):
        for row in (scratch / ("spans-%d.ndjson" % k)).read_text().split(
                "\n"):
            if row:
                span = json.loads(row)
                span["id"] = (k, span["id"])
                span["parent"] = (k, span["parent"]) \
                    if span["parent"] >= 0 else None
                spans.append(span)
    return results, spans


def key_of(result):
    return (result["workload"], result["prefetcher"], result["cores"],
            result["page"], result["seed"], result["warmup"],
            result["instr"])


def per_kinstr(results, field):
    return 1000.0 * sum(r["stats"][field] for r in results) \
        / sum(r["stats"]["instructions"] for r in results)


def ratio(num, den):
    return num / den if den else 0.0


def traced_run(wl, scratch, layers_exe, serve_round):
    """The traced run; serve_round is run.serve_round."""
    gate = metrics.Gate()
    with open(scratch / "serve.log", "ab") as log:
        _, _, jobs = serve_round(wl, scratch, log, gate,
                                 time.perf_counter() + 90.0)
    by_key = {j["point"].key(): j["record"] for j in jobs
              if not metrics.is_error(j["record"])}

    results, spans = run_layers(
        layers_exe, layer_input(j["point"] for j in jobs), scratch,
        wl.workers)

    full = [r for r in results if r["mode"] == "full"]
    for r in full:
        problems = [flag for flag in ("untraced_equal", "restore_equal",
                                      "dram_replay_complete") if not r[flag]]
        record = by_key.get(key_of(r))
        if record is None:
            problems.append("no serve record for the point")
        else:
            problems += ["%s %r vs %r" % (f, r["stats"][f], record[f])
                         for f in EXACT
                         if f in record and r["stats"][f] != record[f]]
        gate.verdict("traced %s" % (key_of(r),), problems)

    values = span_metrics(spans, full)
    values.update(record_metrics(jobs))
    values.update(count_metrics(full, results))
    report = [("design points traced", str(len(full)), "spans", len(spans))]
    return gate, values, report


def span_metrics(spans, full):
    def named(name):
        return [s for s in spans if s["name"] == name]

    def median_s(name):
        return statistics.median(s["dur_ns"] for s in named(name)) / 1e9

    def ns_per(name):
        chosen = named(name)
        return ratio(sum(s["dur_ns"] for s in chosen),
                     sum(s["count"] for s in chosen))

    child_ns = {}
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + s["dur_ns"]
    measure = named("sim.measure")
    measure_self = sum(s["dur_ns"] - child_ns.get(s["id"], 0)
                       for s in measure)
    traced = sum(s["dur_ns"] for s in spans
                 if s["name"] in ("sim.construct", "sim.warmup",
                                  "sim.measure"))
    untraced = sum(s["dur_ns"] for s in named("untraced.run"))
    cycles = sum(r["stats"]["cycles"] for r in full)
    return {
        "trace.ns_per_instr": ns_per("trace.next"),
        "sim.construct_s": median_s("sim.construct"),
        "sim.warmup_s": median_s("sim.warmup"),
        "sim.measure_ns_per_instr": ratio(
            measure_self, sum(s["count"] for s in measure)),
        "sim.mcycles_per_s": ratio(cycles * 1e3,
                                   sum(s["dur_ns"] for s in measure)),
        "cache.l2_ns_per_access": ns_per("cache.l2_replay"),
        "dram.ns_per_request": ns_per("dram.replay"),
        "bo.ns_per_event": ns_per("bo.replay"),
        "harness.ckpt_save_s": median_s("harness.ckpt_save"),
        "harness.ckpt_restore_s": median_s("harness.ckpt_restore"),
        "harness.ckpt_mb": statistics.median(
            s["count"] for s in named("harness.ckpt_save")) / 2 ** 20,
        "harness.journal_append_ms": median_s(
            "harness.journal_append") * 1e3,
        "trace_overhead_frac": ratio(traced - untraced, untraced),
    }


def record_metrics(jobs):
    """Harness behaviour read from the serve round's records; each
    job's kind comes from metrics.answer_kinds."""
    waits = [j["record"]["queue_wait_seconds"] for j in jobs
             if "queue_wait_seconds" in j["record"]]
    kinds = [j["kind"] for j in jobs]
    return {
        "harness.queue_wait_p50_s": statistics.median(waits),
        "harness.memo_hit_frac": kinds.count(metrics.MEMO) / len(jobs),
        "harness.prefix_restore_frac":
            kinds.count(metrics.RESTORE) / len(jobs),
    }


def count_metrics(full, results):
    """Modelled counts, pooled over the traced design points (BO
    metrics over the BO points). Exact: a speed-only change leaves
    every one of them identical."""
    bo = [r for r in full if r["prefetcher"] == "bo"] or full

    def s(rs, field):
        return sum(r["stats"][field] for r in rs)

    useful = s(bo, "l2_prefetched_hits") + s(bo, "l2_late_promotions")
    full_misses = s(bo, "l2_misses") - s(bo, "l2_late_promotions")
    speedup = metrics.bo_speedup(
        {key_of(r): r["stats"]["instructions"] / r["stats"]["cycles"]
         for r in results})
    return {
        "cache.dl1_mpki": per_kinstr(full, "dl1_misses"),
        "cache.l2_mpki": per_kinstr(full, "l2_misses"),
        "cache.l3_mpki": per_kinstr(full, "l3_misses"),
        "bo.triggers_per_kinstr": 1000.0 * (
            s(bo, "l2_misses") + s(bo, "l2_prefetched_hits"))
        / s(bo, "instructions"),
        "bo.pref_issued_per_kinstr": per_kinstr(bo, "l2_pref_issued"),
        "bo.accuracy": ratio(useful,
                             useful + s(bo, "l2_pref_useless_evicted")),
        "bo.coverage": ratio(useful, useful + full_misses),
        "bo.timeliness": ratio(s(bo, "l2_prefetched_hits"), useful),
        "bo.learning_phases": s(bo, "bo_learning_phases"),
        "bo.off_phases": s(bo, "bo_off_phases"),
        "bo.speedup_gm": speedup[0] if speedup else 1.0,
        "dram.per_kinstr": 1000.0 * (s(full, "dram_reads")
                                     + s(full, "dram_writes"))
        / s(full, "instructions"),
        "dram.row_hit_frac": ratio(
            s(full, "dram_row_hits"),
            s(full, "dram_row_hits") + s(full, "dram_row_misses")),
        "dram.l3_channel_stalls": s(full, "l3_channel_stalls"),
        "sim.branch_mpki": per_kinstr(full, "branch_mispredicts"),
    }
