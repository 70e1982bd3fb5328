// Persistent worker pool for the parallel training engine and the verify
// stage's rungs.
//
// A pool owns `size() - 1` background threads and co-opts the calling
// thread as worker 0, so `WorkerPool(1)` degenerates to plain inline
// execution with zero thread traffic.  `run(fn)` invokes `fn(worker)` once
// per worker and returns when all have finished; the pool itself carries no
// work state between runs, which is what keeps it reusable across epochs
// (spawning threads per epoch would dominate small workloads).
//
// Exceptions thrown inside workers are captured and the first one is
// rethrown from run() on the calling thread.
//
// run_jobs() is the claim loop for a list of independent jobs (lint,
// ladder level 3 and prove drain theirs with it): workers take job indices
// from one atomic counter until none is left.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace matador::train {

/// Contiguous slice [first, last) of `total` items for worker `w` of `n` -
/// the standard static partition every pooled loop uses.
inline std::pair<std::size_t, std::size_t> worker_slice(std::size_t total,
                                                        unsigned w, unsigned n) {
    return {total * w / n, total * (w + 1) / n};
}

class WorkerPool {
public:
    /// `threads` = total workers, including the calling thread; 0 and 1
    /// both mean "no background threads".
    explicit WorkerPool(unsigned threads);
    ~WorkerPool();

    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    unsigned size() const { return unsigned(threads_.size()) + 1; }

    /// Run `fn(worker)` for worker in [0, size()); worker 0 executes on the
    /// calling thread.  Blocks until every worker has returned.  Rethrows
    /// the first worker exception.  Not reentrant.
    void run(const std::function<void(unsigned)>& fn);

    /// Pick a worker count: `requested` when nonzero, else all hardware
    /// threads (at least 1).
    static unsigned resolve(unsigned requested);

private:
    void worker_loop(unsigned index);

    std::vector<std::thread> threads_;
    std::mutex mu_;
    std::condition_variable start_cv_, done_cv_;
    const std::function<void(unsigned)>* job_ = nullptr;
    std::uint64_t generation_ = 0;  // bumped once per run()
    unsigned remaining_ = 0;        // background workers still in flight
    bool stop_ = false;
    std::exception_ptr first_error_;
};

/// Run `job(j)` once for each j in [0, jobs).  On `pool`, every worker
/// claims the next unclaimed index from one atomic counter until none is
/// left, so long and short jobs spread over the workers; with no pool the
/// jobs run inline, in order.  Jobs that each write only their own result
/// slot give the same results at any worker count.  Rethrows the first job
/// exception (as WorkerPool::run does).
void run_jobs(WorkerPool* pool, std::size_t jobs,
              const std::function<void(std::size_t)>& job);

}  // namespace matador::train
