/**
 * @file
 * Coarse-grain task executor for whole simulations (sweep farm,
 * --serve), and the JobError record that surfaces a task that escaped
 * with an exception. One simulation always runs on one thread; sweeps
 * get their parallelism by running independent jobs here.
 */

#ifndef BOP_SIM_PARALLEL_HH
#define BOP_SIM_PARALLEL_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace bop
{

/**
 * A task that escaped its worker with an exception, surfaced at
 * drain() instead of terminating the process or wedging the pool.
 * `index` is the task's submission ordinal (0-based), which the
 * harness layers arrange to equal the job_index of their error
 * records; `kind` is faultKindOf() of the escaped exception.
 */
struct JobError
{
    std::size_t index;
    std::string kind;
    std::string what;
};

/**
 * Dynamic task executor for coarse-grain jobs (whole simulations). N
 * dedicated worker threads pull tasks from a FIFO queue; the caller
 * does NOT participate — it keeps submitting while workers run, which
 * is what lets a sweep overlap job generation with simulation.
 *
 * submit() applies backpressure: it blocks while the queue already
 * holds maxBacklog tasks, bounding memory for arbitrarily long job
 * streams (the --serve front end feeds thousands of jobs through a
 * pool of a few workers). drain() is the shutdown-side barrier: it
 * returns once the queue is empty and every in-flight task finished —
 * but it does NOT stop the workers: submitting after a drain() is an
 * ordinary submit, and the pool drains again. The sweep farm's
 * bounded-retry path relies on this contract to re-enqueue
 * transient-failed jobs after the first drain pass.
 *
 * Tasks must synchronise any shared state themselves; the pool only
 * guarantees each task runs exactly once, on some worker thread.
 *
 * A task that throws does not kill its worker or wedge drain(): the
 * escaped exception is captured as a JobError (indexed by the task's
 * submission ordinal) and the worker moves on to the next task.
 * Callers collect the failures with takeErrors() after drain().
 */
class TaskPool
{
  public:
    /**
     * @param workers  worker thread count (>= 1).
     * @param maxBacklog  queued-task bound submit() blocks on
     *                    (0 means 4 * workers).
     */
    explicit TaskPool(unsigned workers, std::size_t maxBacklog = 0);
    ~TaskPool(); ///< drains, then stops and joins the workers

    TaskPool(const TaskPool &) = delete;
    TaskPool &operator=(const TaskPool &) = delete;

    unsigned workerCount() const { return workers; }
    std::size_t backlogBound() const { return maxBacklog; }

    /** Enqueue a task; blocks while the queue is at the backlog bound. */
    void submit(std::function<void()> task);

    /** Block until the queue is empty and no task is running. */
    void drain();

    /**
     * Remove and return the errors of every task that escaped with an
     * exception since the last call, ordered by submission ordinal.
     * Meaningful after drain(); may be called repeatedly.
     */
    std::vector<JobError> takeErrors();

  private:
    void workerLoop();

    const unsigned workers;
    const std::size_t maxBacklog;
    std::vector<std::thread> threads;

    struct Queued
    {
        std::uint64_t ordinal;
        std::function<void()> task;
    };

    std::mutex m;
    std::condition_variable cvTask;  ///< queue became non-empty
    std::condition_variable cvSpace; ///< queue dropped below the bound
    std::condition_variable cvIdle;  ///< queue empty and nothing running
    std::deque<Queued> queue;
    std::uint64_t nextOrdinal = 0; ///< submission counter, tags tasks
    unsigned running = 0;          ///< tasks currently executing
    bool stopping = false;
    std::vector<JobError> errors; ///< escaped exceptions, per task
};

} // namespace bop

#endif // BOP_SIM_PARALLEL_HH
