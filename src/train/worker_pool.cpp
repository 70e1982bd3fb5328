#include "train/worker_pool.hpp"

#include <algorithm>
#include <atomic>
#include <string>

#include "obs/trace.hpp"

namespace matador::train {

WorkerPool::WorkerPool(unsigned threads) {
    const unsigned background = threads > 1 ? threads - 1 : 0;
    threads_.reserve(background);
    for (unsigned i = 0; i < background; ++i)
        threads_.emplace_back([this, i] { worker_loop(i + 1); });
}

WorkerPool::~WorkerPool() {
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    start_cv_.notify_all();
    for (auto& t : threads_) t.join();
}

unsigned WorkerPool::resolve(unsigned requested) {
    if (requested != 0) return requested;
    return std::max(1u, std::thread::hardware_concurrency());
}

void WorkerPool::worker_loop(unsigned index) {
    obs::set_thread_name("worker-" + std::to_string(index));
    std::uint64_t seen = 0;
    for (;;) {
        const std::function<void(unsigned)>* job = nullptr;
        {
            std::unique_lock<std::mutex> lock(mu_);
            start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
            if (stop_) return;
            seen = generation_;
            job = job_;
        }
        try {
            TRACE_SPAN("task", "pool");
            (*job)(index);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mu_);
            if (!first_error_) first_error_ = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lock(mu_);
            --remaining_;
        }
        done_cv_.notify_all();
    }
}

void WorkerPool::run(const std::function<void(unsigned)>& fn) {
    {
        std::lock_guard<std::mutex> lock(mu_);
        job_ = &fn;
        remaining_ = unsigned(threads_.size());
        ++generation_;
        first_error_ = nullptr;
    }
    start_cv_.notify_all();

    // The calling thread is worker 0.
    try {
        TRACE_SPAN("task", "pool");
        fn(0);
    } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!first_error_) first_error_ = std::current_exception();
    }

    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return remaining_ == 0; });
    job_ = nullptr;
    if (first_error_) {
        const auto err = first_error_;
        first_error_ = nullptr;
        lock.unlock();
        std::rethrow_exception(err);
    }
}

void run_jobs(WorkerPool* pool, std::size_t jobs,
              const std::function<void(std::size_t)>& job) {
    if (!pool) {
        for (std::size_t j = 0; j < jobs; ++j) job(j);
        return;
    }
    std::atomic<std::size_t> next{0};
    pool->run([&](unsigned) {
        for (;;) {
            const std::size_t j = next.fetch_add(1, std::memory_order_relaxed);
            if (j >= jobs) return;
            job(j);
        }
    });
}

}  // namespace matador::train
