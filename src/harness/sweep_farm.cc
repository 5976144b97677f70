#include "harness/sweep_farm.hh"

namespace bop
{

SweepFarm::~SweepFarm()
{
    drain();
}

void
SweepFarm::submit(const std::string &benchmark, const SystemConfig &cfg)
{
    const JobSpec job = runner_.jobFor(benchmark, cfg);
    const std::string key = ExperimentRunner::runKey(job);
    if (!submitted.insert(key).second)
        return;

    // A journal replay claims this submission slot before the memo is
    // even consulted (replayed success records ARE memoised): the
    // journaled record — error records included — is committed
    // verbatim, and the job index still advances so the rest of the
    // sweep keeps the indices an uninterrupted run would produce.
    RunRecord replayedRecord;
    if (runner_.consumeReplayed(key, replayedRecord)) {
        runner_.reserveJobIndex();
        runner_.commit(key, std::move(replayedRecord));
        return;
    }
    if (runner_.memoised(key))
        return;

    const long jobIndex = runner_.reserveJobIndex();
    const auto now = std::chrono::steady_clock::now();
    const RunnerOptions &opts = runner_.options();
    if (opts.jobs == 1) {
        // Inline serial path: identical to the pre-farm sweep, and the
        // memo is warm immediately (later duplicate submissions of the
        // same point short-circuit above).
        runner_.commit(key, runner_.runJob(job, jobIndex, now, false));
        return;
    }
    // Workers start with the first pooled job, so a farm that is
    // never given one (ext_scaling, table1_config) starts none.
    if (!pool)
        pool = std::make_unique<TaskPool>(static_cast<unsigned>(opts.jobs),
                                          opts.backlog);

    // Containment: runJob() turns a failure into an error record in
    // this job's submission-order slot, so drain() commits it (and
    // every surviving record) exactly where a fault-free run would.
    slots.push_back(Slot{key, job, jobIndex, now, RunRecord{}});
    Slot *slot = &slots.back();
    pool->submit([this, slot] {
        slot->record = runner_.runJob(slot->job, slot->jobIndex,
                                      slot->submitted, false);
    });
}

void
SweepFarm::drain()
{
    if (!pool)
        return; // inline jobs committed at submit time, or none yet
    pool->drain();
    for (Slot &slot : slots)
        runner_.commit(slot.key, std::move(slot.record));
    slots.clear();
}

} // namespace bop
