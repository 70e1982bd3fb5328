#include "serve/batcher.hpp"

#include <algorithm>
#include <utility>

#include "obs/trace.hpp"
#include "serve/error.hpp"

namespace matador::serve {

namespace {

constexpr std::size_t kLanes = infer::BatchEngine::kLanes;

}  // namespace

Batcher::Batcher(train::WorkerPool& pool, BatcherOptions options,
                 ServeMetrics* metrics)
    : pool_(pool), options_(options), metrics_(metrics) {
    dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

Batcher::~Batcher() { stop(); }

std::future<Reply> Batcher::submit(std::shared_ptr<const ServableModel> model,
                                   util::BitVector x,
                                   std::optional<std::uint32_t> label) {
    if (!model)
        throw ServeError(ErrorCode::kBadRequest, "submit: null model handle");
    if (x.size() != model->model.num_features()) {
        if (metrics_) metrics_->record_error(model->hash_hex);
        check_feature_width(model->model.num_features(), x.size(), "request");
    }

    Request req;
    req.model = std::move(model);
    req.x = std::move(x);
    req.label = label;
    req.enqueued = Clock::now();
    std::future<Reply> future = req.promise.get_future();

    std::size_t depth = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stop_)
            throw ServeError(ErrorCode::kShuttingDown,
                             "server is shutting down");
        depth = queue_.size();
        if (depth >= options_.max_queue_depth) {
            if (metrics_)
                metrics_->record_shed(req.model->hash_hex, "queue-full", depth);
            // Backoff hint: the expected time to drain the current queue at
            // the observed service rate (EWMA of per-request service time).
            // Before the first block completes the EWMA is 0, so the hint
            // is the clamp's 1 ms floor.
            const double per_request_us =
                service_ewma_us_.load(std::memory_order_relaxed);
            const double retry_after_ms = std::clamp(
                double(depth) * per_request_us / 1000.0, 1.0, 1000.0);
            // A shed is a point on the timeline with its full context: why,
            // how deep the queue was, and which model took the hit.
            if (obs::TraceRecorder::instance().enabled()) {
                util::Json shed_args = util::Json::object();
                shed_args.set("reason", "queue-full");
                shed_args.set("queue_depth", double(depth));
                shed_args.set("model", req.model->hash_hex);
                shed_args.set("retry_after_ms", retry_after_ms);
                obs::TraceRecorder::instance().instant("shed", "serve",
                                                       std::move(shed_args));
            }
            throw ServeError(ErrorCode::kOverloaded,
                             "queue full (" +
                                 std::to_string(options_.max_queue_depth) +
                                 " pending); retry with backoff",
                             retry_after_ms);
        }
        queue_.push_back(std::move(req));
        depth = queue_.size();
        TRACE_INSTANT("enqueue", "serve");
        TRACE_COUNTER("serve queue depth", depth);
        if (metrics_) metrics_->set_queue_depth(depth);
    }
    // The dispatcher sleeps only on an empty queue, so only the step from
    // empty to one request can wake it.
    if (depth == 1) work_cv_.notify_one();
    return future;
}

std::vector<Batcher::Block> Batcher::take_blocks_locked() {
    // Group the queue by servable, preserving per-model FIFO order; a model
    // whose current block holds kLanes requests starts a new one.  The
    // queue is at most max_queue_depth long, so the linear scan is cheap.
    std::vector<Block> blocks;
    for (Request& req : queue_) {
        Block* block = nullptr;
        for (Block& b : blocks)
            if (b.model == req.model && b.requests.size() < kLanes) block = &b;
        if (!block) {
            blocks.push_back(Block{req.model, {}});
            block = &blocks.back();
        }
        block->requests.push_back(std::move(req));
    }
    queue_.clear();
    return blocks;
}

void Batcher::execute_block(Block& block) const {
    const std::size_t n = block.requests.size();
    obs::SpanGuard span("batch", "serve");
    if (obs::TraceRecorder::instance().enabled()) {
        util::Json args = util::Json::object();
        args.set("model", block.model->hash_hex);
        args.set("lanes", double(n));
        args.set("occupancy", double(n) / double(kLanes));
        span.set_args(std::move(args));
    }
    std::vector<util::BitVector> xs;
    xs.reserve(n);
    for (Request& req : block.requests) xs.push_back(std::move(req.x));

    const Clock::time_point started = Clock::now();
    const std::vector<std::uint32_t> preds =
        block.model->engine.predict(xs.data(), n);

    if (metrics_) metrics_->record_batch(block.model->hash_hex, n);
    const Clock::time_point done = Clock::now();
    // Feed the shed path's service-rate estimate (see submit()).  Races
    // between pool workers just interleave EWMA steps — harmless.
    const double block_us =
        std::chrono::duration<double, std::micro>(done - started).count();
    const double per_request_us = block_us / double(n);
    const double old_ewma = service_ewma_us_.load(std::memory_order_relaxed);
    service_ewma_us_.store(
        old_ewma == 0.0 ? per_request_us
                        : 0.8 * old_ewma + 0.2 * per_request_us,
        std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; ++i) {
        Request& req = block.requests[i];
        Reply reply;
        reply.prediction = preds[i];
        reply.model_hash = block.model->hash_hex;
        reply.latency_us =
            std::chrono::duration<double, std::micro>(done - req.enqueued)
                .count();
        if (metrics_) {
            std::optional<bool> correct;
            if (req.label) correct = preds[i] == *req.label;
            metrics_->record_response(reply.model_hash, reply.latency_us,
                                      correct);
        }
        req.promise.set_value(std::move(reply));
    }
}

void Batcher::run_blocks(std::vector<Block>& blocks) {
    if (blocks.size() == 1 || pool_.size() == 1) {
        for (Block& b : blocks) execute_block(b);
        return;
    }
    pool_.run([&](unsigned worker) {
        const auto [begin, end] =
            train::worker_slice(blocks.size(), worker, pool_.size());
        for (std::size_t i = begin; i < end; ++i) execute_block(blocks[i]);
    });
}

void Batcher::dispatcher_loop() {
    obs::set_thread_name("serve-dispatcher");
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopped, and everything is drained

        const std::size_t count = queue_.size();
        std::vector<Block> blocks = take_blocks_locked();
        in_flight_ += count;
        TRACE_COUNTER("serve queue depth", queue_.size());
        if (metrics_) metrics_->set_queue_depth(queue_.size());
        lock.unlock();
        run_blocks(blocks);
        lock.lock();
        in_flight_ -= count;
        if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
    }
}

void Batcher::flush() {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [&] { return queue_.empty() && in_flight_ == 0; });
}

void Batcher::stop() {
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stop_ && !dispatcher_.joinable()) return;
        stop_ = true;
    }
    work_cv_.notify_all();
    if (dispatcher_.joinable()) dispatcher_.join();
}

std::size_t Batcher::queue_depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
}

}  // namespace matador::serve
