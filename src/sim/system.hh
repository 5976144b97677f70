/**
 * @file
 * Top-level simulated system: N active cores (the paper evaluates 1, 2
 * and 4, Sec. 5.1; the topology is runtime configuration), each driven
 * by its own trace source, sharing the uncore. All reported numbers are
 * for core 0; the other active cores run the cache-thrashing
 * micro-benchmark, as in the paper. The SystemConfig topology is
 * validated at construction (std::invalid_argument on inconsistency).
 */

#ifndef BOP_SIM_SYSTEM_HH
#define BOP_SIM_SYSTEM_HH

#include <chrono>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "sim/config.hh"
#include "sim/core_model.hh"
#include "sim/mem_hierarchy.hh"
#include "trace/trace.hh"

namespace bop
{

/**
 * Counter delta helper: subtract the cumulative counters in @p begin
 * from @p end (non-cumulative fields are copied from @p end).
 */
RunStats deltaStats(const RunStats &end, const RunStats &begin);

/** The simulated chip. */
class System
{
  public:
    /**
     * @param cfg     system configuration
     * @param traces  one trace source per active core (core 0 first)
     */
    System(const SystemConfig &cfg,
           std::vector<std::unique_ptr<TraceSource>> traces);

    /**
     * Warm up for @p warmup_instr core-0 instructions, then measure
     * @p measure_instr instructions and return the window's statistics.
     * Equivalent to warmup() followed by measure().
     */
    RunStats run(std::uint64_t warmup_instr, std::uint64_t measure_instr);

    /** Advance core 0 by @p warmup_instr retired instructions. */
    void warmup(std::uint64_t warmup_instr);

    /**
     * Measure the next @p measure_instr core-0 instructions. The
     * baseline counters are sampled at call time, so measuring after a
     * checkpoint restore yields the same deltas as an uninterrupted
     * warmup+measure run.
     */
    RunStats measure(std::uint64_t measure_instr);

    /**
     * Arm a wall-clock deadline @p seconds from now for the
     * run()/warmup()/measure() windows that follow: a window still
     * running past the deadline throws JobTimeout (common/fault.hh),
     * which the harness layers convert into a per-job error record
     * instead of letting one wedged simulation stall a whole batch.
     * Complements the per-core retire watchdog, which catches cores
     * that stop making progress but not runs that progress too slowly
     * to ever finish. seconds <= 0 disarms. The deadline is host-side
     * only: simulated statistics of runs that finish are unaffected.
     */
    void setJobDeadline(double seconds);

    /**
     * Write the complete warm microarchitectural state to @p path in
     * the BOPCKPT1 format (docs/CHECKPOINT_FORMAT.md). Defined in
     * src/harness/checkpoint.cc; link bop_harness to use.
     */
    void saveCheckpoint(const std::string &path);

    /** saveCheckpoint() into a byte buffer (tests, in-memory sharing). */
    std::vector<std::uint8_t> saveCheckpointBytes();

    /**
     * Restore state saved by saveCheckpoint(). The System must have
     * been constructed with the same topology/config fingerprint and
     * the same traces; throws CheckpointError (with the offending byte
     * offset) on any mismatch, truncation or corruption. The container
     * (header, section framing, CRCs) is checked before any section
     * applies, so those refusals leave the System untouched; a payload
     * that a loader refuses can leave earlier sections applied, and
     * such a System must be discarded.
     */
    void restoreCheckpoint(const std::string &path);

    /** restoreCheckpoint() from a byte buffer. */
    void restoreCheckpointBytes(const std::vector<std::uint8_t> &bytes);

    /**
     * Advance the whole system to the next cycle in which anything can
     * happen. With fast-forward enabled (the default) that is the
     * event-horizon minimum over all components — the clock may jump
     * by more than one cycle over provably idle stretches, with
     * bit-identical simulated statistics; with it disabled (config or
     * BOP_DISABLE_FASTFORWARD) exactly one cycle.
     */
    void step();

    /**
     * The cycle the next step() will tick at: the minimum over every
     * component's nextEventAt horizon, clamped to at most
     * watchdogCycles + 1 ahead so a dead system still reaches the
     * deadlock trap. Refreshes the stale entries of the horizon cache
     * (hence not const). Exposed for the fast-forward soundness tests.
     */
    Cycle nextEventCycle();

    /** True when event-horizon fast-forward is active for this run. */
    bool fastForwardEnabled() const { return fastForward; }

    /** Progress window of the per-core deadlock watchdog. */
    static constexpr Cycle watchdogCycles = 1000000;

    Cycle currentCycle() const { return now; }
    MemHierarchy &hierarchy() { return hier; }
    CoreModel &core(CoreId id)
    {
        return *cores.at(static_cast<std::size_t>(id));
    }
    /** Trace source driving core @p id (checkpoint fingerprinting). */
    TraceSource &traceSource(CoreId id)
    {
        return *traces.at(static_cast<std::size_t>(id));
    }
    int coreCount() const { return static_cast<int>(cores.size()); }
    const SystemConfig &config() const { return cfg; }

  private:
    /** Run until core 0 has retired @p target instructions in total. */
    void runUntilRetired(std::uint64_t target);

    SystemConfig cfg;
    std::vector<std::unique_ptr<TraceSource>> traces;
    MemHierarchy hier;
    std::vector<std::unique_ptr<CoreModel>> cores;
    Cycle now = 0;
    bool fastForward = true; ///< cfg.fastForward minus the env override

    /**
     * Cached per-component horizons (fast-forward only). A component's
     * cached value stays valid until its horizonStale() flag reports a
     * state change: its own tick, or a cross-component callback
     * (loadCompleted/storeCompleted into a core, coreLoad/coreStore
     * into the uncore), or a checkpoint restore, whose component
     * loaders set the flags. nextEventCycle() refreshes stale entries;
     * step() then ticks only the components whose horizon is due —
     * skipping a tick before a component's horizon is exactly the
     * no-op the horizon contract guarantees it would have been.
     */
    std::vector<Cycle> coreHorizon;
    Cycle hierHorizon = 0;

    /** Wall-clock deadline armed by setJobDeadline() (unarmed: zero). */
    std::chrono::steady_clock::time_point jobDeadline{};
    double jobDeadlineSeconds = 0.0; ///< for the timeout message
};

} // namespace bop

#endif // BOP_SIM_SYSTEM_HH
