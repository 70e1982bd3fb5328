// Admission-control micro-batcher: many concurrent single-example requests
// in, transpose blocks of up to 64 lanes out.
//
// The word-parallel BatchEngine only pays off when all 64 lanes of a block
// carry examples, but an online service receives requests one at a time.
// The batcher closes that gap:
//
//   * submit() enqueues one request (model handle + example + optional
//     label) onto a BOUNDED queue and returns a future.  A full queue is
//     overload: the request is shed immediately with a typed
//     ServeError(kOverloaded) - latency stays bounded because queueing is,
//     and the client learns to back off instead of timing out.
//   * whenever the dispatcher thread is free it takes everything queued,
//     groups it by resolved model (the shared_ptr snapshot taken at submit
//     time, so an alias swap mid-flight never splits or re-targets a
//     request) and cuts each model's FIFO run into blocks of at most 64
//     lanes.  A request that arrives alone is sent at once; requests that
//     arrive while a block computes ride the next one, so blocks fill under
//     load without a clock and stay small when traffic is light.
//   * the blocks fan out across the existing train::WorkerPool (one
//     predict_block pass per block), promises are fulfilled with the
//     prediction, the serving model's content hash, and the measured
//     end-to-end latency; metrics record batch occupancy and, when the
//     request carried a label, rolling accuracy.
//
// Predictions are bit-identical to the offline engine at every occupancy -
// a block is just BatchEngine::predict over the requests it carries.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "serve/metrics.hpp"
#include "serve/registry.hpp"
#include "train/worker_pool.hpp"
#include "util/bitvector.hpp"

namespace matador::serve {

struct BatcherOptions {
    /// Pending (not yet dispatched) requests beyond this are shed.
    std::size_t max_queue_depth = 1024;
};

/// What a fulfilled predict future carries.
struct Reply {
    std::uint32_t prediction = 0;
    std::string model_hash;    ///< content hash (hex) that actually scored it
    double latency_us = 0.0;   ///< submit -> fulfillment, queue wait included
};

class Batcher {
public:
    /// `pool` outlives the batcher and is exclusively its dispatch pool
    /// while serving; `metrics` (optional) receives the telemetry.
    Batcher(train::WorkerPool& pool, BatcherOptions options = {},
            ServeMetrics* metrics = nullptr);
    ~Batcher();

    Batcher(const Batcher&) = delete;
    Batcher& operator=(const Batcher&) = delete;

    /// Enqueue one example for `model`.  Throws ServeError on overload
    /// (kOverloaded), width mismatch (kFeatureMismatch), or after stop()
    /// (kShuttingDown).  Thread-safe.
    std::future<Reply> submit(std::shared_ptr<const ServableModel> model,
                              util::BitVector x,
                              std::optional<std::uint32_t> label = {});

    /// Block until every accepted request has been answered and the
    /// batcher is idle.  Serving continues afterwards.
    void flush();

    /// Drain and join the dispatcher.  Every already-accepted request is
    /// fulfilled; later submits are refused.  Idempotent.
    void stop();

    /// Pending (not yet dispatched) requests right now.
    std::size_t queue_depth() const;

private:
    using Clock = std::chrono::steady_clock;

    struct Request {
        std::shared_ptr<const ServableModel> model;
        util::BitVector x;
        std::optional<std::uint32_t> label;
        std::promise<Reply> promise;
        Clock::time_point enqueued;
    };
    /// One dispatched block: up to 64 requests sharing one servable.
    struct Block {
        std::shared_ptr<const ServableModel> model;
        std::vector<Request> requests;
    };

    void dispatcher_loop();
    /// Move the whole queue out as blocks (mu_ held): grouped by servable,
    /// FIFO within a servable, at most kLanes requests per block.
    std::vector<Block> take_blocks_locked();
    void run_blocks(std::vector<Block>& blocks);
    void execute_block(Block& block) const;

    train::WorkerPool& pool_;
    BatcherOptions options_;
    ServeMetrics* metrics_;
    /// EWMA of per-request service time, feeding the kOverloaded
    /// retry_after_ms hint (queue depth × this).  0 until the first block.
    mutable std::atomic<double> service_ewma_us_{0.0};

    mutable std::mutex mu_;
    std::condition_variable work_cv_;  ///< submit/stop -> dispatcher
    std::condition_variable idle_cv_;  ///< dispatcher -> flush()/stop() waiters
    std::deque<Request> queue_;
    std::size_t in_flight_ = 0;  ///< dispatched but not yet fulfilled
    bool stop_ = false;
    std::thread dispatcher_;
};

}  // namespace matador::serve
