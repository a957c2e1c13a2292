#include "worker_pool.hh"

#include <algorithm>
#include <utility>

namespace mouse
{

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &t : workers_) {
        t.join();
    }
}

bool
WorkerPool::run(std::size_t count, unsigned helpers,
                const std::function<void(std::size_t)> &fn)
{
    if (busy_.exchange(true)) {
        return false;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    while (workers_.size() < helpers) {
        try {
            workers_.emplace_back(&WorkerPool::work, this,
                                  static_cast<unsigned>(workers_.size()),
                                  generation_);
        } catch (...) {
            break; // no thread to spare: run with those there are
        }
    }
    if (workers_.empty()) {
        lock.unlock();
        busy_ = false;
        return false;
    }
    helpers = std::min<unsigned>(helpers,
                                 static_cast<unsigned>(workers_.size()));
    fn_ = &fn;
    count_ = count;
    joining_ = helpers;
    cursor_.store(0, std::memory_order_relaxed);
    ++generation_;
    lock.unlock();
    wake_.notify_all();

    drain(fn, count);

    // Every index is taken: a worker that has not woken yet has
    // nothing left to do, so close the job to it instead of waiting
    // for it.
    lock.lock();
    joining_ = 0;
    done_.wait(lock, [&] { return running_ == 0; });
    std::exception_ptr error = std::exchange(error_, nullptr);
    lock.unlock();
    busy_ = false;
    if (error) {
        std::rethrow_exception(error);
    }
    return true;
}

void
WorkerPool::drain(const std::function<void(std::size_t)> &fn,
                  std::size_t count)
{
    while (true) {
        const std::size_t i =
            cursor_.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) {
            return;
        }
        try {
            fn(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!error_) {
                error_ = std::current_exception();
            }
        }
    }
}

void
WorkerPool::work(unsigned id, std::uint64_t seen)
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) {
            return;
        }
        seen = generation_;
        if (id >= joining_) {
            continue;
        }
        ++running_;
        const std::function<void(std::size_t)> &fn = *fn_;
        const std::size_t count = count_;
        lock.unlock();
        drain(fn, count);
        lock.lock();
        if (--running_ == 0) {
            done_.notify_one();
        }
    }
}

} // namespace mouse
