/**
 * @file
 * A pool of parked worker threads shared by the parallel front ends:
 * ExperimentRunner::forEach (sweeps) and InferenceService::drain
 * (serving).
 *
 * A job is a function over the indices [0, count).  The calling
 * thread publishes it, then runs indices alongside up to `helpers`
 * workers, all pulling from one atomic cursor, and returns when every
 * index is done.  Workers start on the first job that needs them and
 * park on a condition variable between jobs, so a job pays a wake-up
 * rather than a thread spawn and join.
 */

#ifndef MOUSE_COMMON_WORKER_POOL_HH
#define MOUSE_COMMON_WORKER_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mouse
{

/** Parked worker threads running one index-parallel job at a time. */
class WorkerPool
{
  public:
    WorkerPool() = default;
    ~WorkerPool();
    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /**
     * Run fn(i) for every i in [0, count) on the caller plus up to
     * @p helpers workers; blocks until all complete.  If fn throws,
     * the remaining indices still run and the first exception is
     * rethrown.  Returns false, having run nothing, when another job
     * holds the pool or no worker thread could be started; the
     * caller then runs the job itself.  A worker that cannot be
     * started leaves the job to the workers already running.
     */
    bool run(std::size_t count, unsigned helpers,
             const std::function<void(std::size_t)> &fn);

  private:
    /** Pull indices until the cursor passes @p count. */
    void drain(const std::function<void(std::size_t)> &fn,
               std::size_t count);

    void work(unsigned id, std::uint64_t seen);

    /** Held by the one job on the pool. */
    std::atomic<bool> busy_{false};
    std::atomic<std::size_t> cursor_{0};
    std::mutex mutex_;
    // The current job and the workers' state; guarded by mutex_.
    const std::function<void(std::size_t)> *fn_ = nullptr;
    std::size_t count_ = 0;
    /** Workers with a smaller id join the job; 0 once closed. */
    unsigned joining_ = 0;
    unsigned running_ = 0;
    std::uint64_t generation_ = 0;
    bool stop_ = false;
    std::exception_ptr error_;
    std::condition_variable wake_;
    std::condition_variable done_;
    std::vector<std::thread> workers_;
};

} // namespace mouse

#endif // MOUSE_COMMON_WORKER_POOL_HH
