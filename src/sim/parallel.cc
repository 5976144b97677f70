#include "sim/parallel.hh"

#include <algorithm>

#include "common/fault.hh"

namespace bop
{

TaskPool::TaskPool(unsigned workers_, std::size_t maxBacklog_)
    : workers(workers_ ? workers_ : 1),
      maxBacklog(maxBacklog_ ? maxBacklog_ : 4 * (workers_ ? workers_ : 1))
{
    threads.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        threads.emplace_back([this] { workerLoop(); });
}

TaskPool::~TaskPool()
{
    drain();
    {
        std::lock_guard<std::mutex> lk(m);
        stopping = true;
    }
    cvTask.notify_all();
    for (std::thread &t : threads)
        t.join();
}

void
TaskPool::submit(std::function<void()> task)
{
    {
        std::unique_lock<std::mutex> lk(m);
        cvSpace.wait(lk, [this] { return queue.size() < maxBacklog; });
        queue.push_back(Queued{nextOrdinal++, std::move(task)});
    }
    cvTask.notify_one();
}

void
TaskPool::drain()
{
    std::unique_lock<std::mutex> lk(m);
    cvIdle.wait(lk, [this] { return queue.empty() && running == 0; });
}

std::vector<JobError>
TaskPool::takeErrors()
{
    std::vector<JobError> out;
    {
        std::lock_guard<std::mutex> lk(m);
        out.swap(errors);
    }
    std::sort(out.begin(), out.end(),
              [](const JobError &a, const JobError &b) {
                  return a.index < b.index;
              });
    return out;
}

void
TaskPool::workerLoop()
{
    for (;;) {
        Queued item;
        {
            std::unique_lock<std::mutex> lk(m);
            cvTask.wait(lk, [this] { return stopping || !queue.empty(); });
            if (queue.empty())
                return; // stopping, and nothing left to run
            item = std::move(queue.front());
            queue.pop_front();
            ++running;
        }
        cvSpace.notify_one();

        // Containment: a task that escapes with an exception becomes
        // a JobError instead of terminating the process, and the
        // --running bookkeeping below must run regardless or drain()
        // would wait forever on a failed task.
        try {
            item.task();
        } catch (const std::exception &e) {
            std::lock_guard<std::mutex> lk(m);
            errors.push_back(JobError{static_cast<std::size_t>(item.ordinal),
                                      faultKindOf(e), e.what()});
        } catch (...) {
            std::lock_guard<std::mutex> lk(m);
            errors.push_back(JobError{static_cast<std::size_t>(item.ordinal),
                                      "simulation", "unknown exception"});
        }

        {
            std::lock_guard<std::mutex> lk(m);
            --running;
            if (queue.empty() && running == 0)
                cvIdle.notify_all();
        }
    }
}

} // namespace bop
