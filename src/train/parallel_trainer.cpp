#include "train/parallel_trainer.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "infer/engine.hpp"
#include "obs/trace.hpp"

namespace matador::train {

namespace {

// Stream tags: every random decision site owns a disjoint KeyedRng key
// space (seed, tag, ...), so no site can alias another's draws.
constexpr std::uint64_t kShuffleStream = 1;   // (epoch)           epoch shuffle
constexpr std::uint64_t kNegativeStream = 2;  // (epoch, example)  negative class
constexpr std::uint64_t kFeedbackStream = 3;  // (epoch, example, class)

// Positions of the shuffled order per (segment, class) task.  Long enough
// that a class's clause bank stays in cache for a whole task and hand-offs
// are rare; short enough that 10 classes give 4 workers many more tasks
// than workers.  512-2048 measured alike; it never changes the model.
constexpr std::size_t kSegmentLength = 1024;

}  // namespace

const char* stop_reason_name(StopReason r) {
    switch (r) {
        case StopReason::kMaxEpochs: return "max-epochs";
        case StopReason::kEarlyStop: return "early-stop";
    }
    return "?";
}

std::optional<StopReason> stop_reason_from_name(const std::string& name) {
    for (const StopReason r : {StopReason::kMaxEpochs, StopReason::kEarlyStop})
        if (name == stop_reason_name(r)) return r;
    return std::nullopt;
}

ParallelTrainer::ParallelTrainer(FitOptions options) : options_(options) {}

ParallelTrainer::~ParallelTrainer() = default;

unsigned ParallelTrainer::threads() const {
    return pool_ ? pool_->size() : WorkerPool::resolve(options_.threads);
}

FitReport ParallelTrainer::fit(tm::TsetlinMachine& machine,
                               const data::Dataset& train,
                               const data::Dataset* eval_set) {
    if (eval_set && eval_set->size() == 0) eval_set = nullptr;
    train.validate();
    if (eval_set) eval_set->validate();
    if (train.num_features != machine.num_features())
        throw std::invalid_argument("ParallelTrainer::fit: feature mismatch");
    if (train.num_classes > machine.num_classes())
        throw std::invalid_argument(
            "ParallelTrainer::fit: dataset has more classes than the machine");
    if (eval_set && eval_set->num_features != machine.num_features())
        throw std::invalid_argument("ParallelTrainer::fit: eval feature mismatch");

    if (!pool_) pool_ = std::make_unique<WorkerPool>(WorkerPool::resolve(options_.threads));
    const unsigned workers = pool_->size();
    const std::size_t words = machine.literal_words();
    const std::size_t n = train.size();
    const std::size_t num_classes = machine.num_classes();
    const std::uint64_t seed = machine.config().seed;

    // Literals for every example, built once and shared read-only from here
    // on (they depend only on the inputs, never on training state).
    const auto build_matrix = [&](const data::Dataset& ds) {
        std::vector<std::uint64_t> m(ds.size() * words);
        pool_->run([&](unsigned w) {
            const auto [first, last] = worker_slice(ds.size(), w, workers);
            for (std::size_t i = first; i < last; ++i)
                machine.build_literals(ds.examples[i], m.data() + i * words);
        });
        return m;
    };
    const std::vector<std::uint64_t> train_lits = build_matrix(train);
    const std::vector<std::uint64_t> eval_lits =
        eval_set ? build_matrix(*eval_set) : std::vector<std::uint64_t>{};

    // Per-worker mutable state: feedback mask scratch only.  Workers beyond
    // the class count would only wait, so they get none and return at once.
    const unsigned active_workers = unsigned(std::min<std::size_t>(workers, num_classes));
    std::vector<tm::TsetlinMachine::FeedbackScratch> scratch;
    scratch.reserve(active_workers);
    for (unsigned w = 0; w < active_workers; ++w) scratch.push_back(machine.make_scratch());

    std::vector<std::size_t> order(n);
    std::vector<std::uint32_t> negative(n);  // negative class per position of `order`
    const std::size_t tasks = (n + kSegmentLength - 1) / kSegmentLength * num_classes;

    FitReport report;
    report.threads_used = workers;
    std::optional<model::TrainedModel> best_snapshot;
    double best_metric = 0.0;
    std::size_t evals_since_best = 0;

    const auto evaluate_now = [&](std::size_t epoch_1based) {
        // Compile the machine's include planes once per evaluation point,
        // then score both sets 64 examples per pass, block-sliced over the
        // worker pool.  Predictions (and hence the accuracy history) are
        // bit-identical to the scalar TsetlinMachine::predict.
        TRACE_SPAN("eval-point", "train");
        const infer::BatchEngine engine(machine);
        EpochMetrics m;
        m.epoch = epoch_1based;
        m.train_accuracy = engine.accuracy_literals(
            train_lits.data(), words, train.labels.data(), n, pool_.get());
        m.eval_accuracy =
            eval_set ? engine.accuracy_literals(eval_lits.data(), words,
                                                eval_set->labels.data(),
                                                eval_set->size(), pool_.get())
                     : m.train_accuracy;
        report.history.push_back(m);
        return m;
    };

    // The early-stopping metric: eval accuracy when an eval set exists,
    // train accuracy otherwise.
    const auto metric_of = [&](const EpochMetrics& m) { return m.eval_accuracy; };

    bool stopped_early = false;
    for (std::size_t epoch = 0; epoch < options_.epochs; ++epoch) {
        obs::SpanGuard epoch_span("epoch", "train");
        if (obs::TraceRecorder::instance().enabled()) {
            util::Json args = util::Json::object();
            args.set("epoch", double(epoch + 1));
            epoch_span.set_args(std::move(args));
        }
        // Keyed Fisher-Yates shuffle: same permutation at any thread count.
        order.resize(n);
        std::iota(order.begin(), order.end(), 0);
        util::KeyedRng shuffle_rng(seed, kShuffleStream, epoch);
        for (std::size_t i = n; i > 1; --i)
            std::swap(order[i - 1], order[shuffle_rng.below(i)]);
        for (std::size_t pos = 0; pos < n; ++pos) {
            const std::size_t ex = order[pos];
            const std::uint32_t target = train.labels[ex];
            std::uint32_t neg = target;  // one class: no negative feedback
            if (num_classes > 1) {
                util::KeyedRng neg_rng(seed, kNegativeStream, epoch, ex);
                neg = std::uint32_t(neg_rng.below(num_classes - 1));
                if (neg >= target) ++neg;
            }
            negative[pos] = neg;
        }

        // Workers claim (segment, class) tasks, numbered segment-major, from
        // one counter.  A class still trains on its examples in epoch order:
        // a task starts only once done[class] (segments of that class
        // finished this epoch) reaches its segment.  The task it waits for
        // has a lower number, so it is already claimed, and the lowest
        // unfinished task can always run.  A task that throws sets
        // done[class] to kReleased: that class's later tasks are skipped and
        // its waiters return instead of hanging, while every other claimed
        // task still runs, so no wait is left without a publish.
        constexpr std::uint32_t kReleased = ~std::uint32_t{0};
        std::atomic<std::size_t> next_task{0};
        std::vector<std::atomic<std::uint32_t>> done(num_classes);
        pool_->run([&](unsigned w) {
            if (w >= active_workers) return;
            auto& rec = obs::TraceRecorder::instance();
            for (;;) {
                const std::size_t t = next_task.fetch_add(1, std::memory_order_relaxed);
                if (t >= tasks) return;
                const std::uint32_t seg = std::uint32_t(t / num_classes);
                const std::uint32_t cls = std::uint32_t(t % num_classes);

                std::uint32_t finished = done[cls].load(std::memory_order_acquire);
                if (finished < seg) {
                    const std::uint64_t wait_start = obs::now_ns();
                    do {
                        done[cls].wait(finished, std::memory_order_acquire);
                        finished = done[cls].load(std::memory_order_acquire);
                    } while (finished < seg);
                    if (rec.enabled()) {
                        util::Json args = util::Json::object();
                        args.set("class", double(cls));
                        args.set("segment", double(seg));
                        rec.complete("train-wait", "train", wait_start,
                                     obs::now_ns() - wait_start, std::move(args));
                    }
                }
                if (finished == kReleased) return;

                try {
                    obs::SpanGuard span("train-segment", "train");
                    const std::size_t first = std::size_t(seg) * kSegmentLength;
                    const std::size_t last = std::min(n, first + kSegmentLength);
                    std::size_t trained = 0;
                    for (std::size_t pos = first; pos < last; ++pos) {
                        const std::size_t ex = order[pos];
                        const bool is_target = train.labels[ex] == cls;
                        if (!is_target && negative[pos] != cls) continue;
                        util::KeyedRng rng(seed, kFeedbackStream, epoch, ex, cls);
                        machine.train_class(cls, is_target, train_lits.data() + ex * words,
                                            rng, scratch[w]);
                        ++trained;
                    }
                    if (rec.enabled()) {
                        util::Json args = util::Json::object();
                        args.set("class", double(cls));
                        args.set("segment", double(seg));
                        args.set("examples", double(trained));
                        span.set_args(std::move(args));
                    }
                    span.close();  // before the hand-off: a class's spans never overlap
                } catch (...) {
                    done[cls].store(kReleased, std::memory_order_release);
                    done[cls].notify_all();
                    throw;
                }
                done[cls].store(seg + 1, std::memory_order_release);
                done[cls].notify_all();
            }
        });
        report.epochs_run = epoch + 1;

        const bool last_epoch = epoch + 1 == options_.epochs;
        const bool eval_point =
            (options_.eval_every > 0 && (epoch + 1) % options_.eval_every == 0) ||
            last_epoch;
        if (!eval_point) continue;

        const EpochMetrics m = evaluate_now(epoch + 1);
        if (options_.patience == 0) continue;

        if (report.history.size() == 1 || metric_of(m) > best_metric) {
            best_metric = metric_of(m);
            report.best_epoch = m.epoch;
            best_snapshot = machine.export_model();
            evals_since_best = 0;
        } else if (++evals_since_best >= options_.patience && !last_epoch) {
            report.stop_reason = StopReason::kEarlyStop;
            stopped_early = true;
            break;
        }
    }

    if (options_.epochs == 0) evaluate_now(0);  // report the initial model

    if (options_.patience > 0 && best_snapshot) {
        // Return the best evaluation's model, not the last state.
        if (report.best_epoch != report.history.back().epoch)
            machine.import_model(*best_snapshot);
        for (const EpochMetrics& m : report.history)
            if (m.epoch == report.best_epoch) {
                report.train_accuracy = m.train_accuracy;
                report.eval_accuracy = m.eval_accuracy;
            }
    } else {
        report.best_epoch = report.history.back().epoch;
        report.train_accuracy = report.history.back().train_accuracy;
        report.eval_accuracy = report.history.back().eval_accuracy;
    }
    if (!stopped_early) report.stop_reason = StopReason::kMaxEpochs;
    return report;
}

}  // namespace matador::train
