// Tests for the parallel training engine (src/train/): thread-invariance
// of the trained model (the acceptance contract that keeps ArtifactStore
// train keys meaningful), learning quality, epoch metrics, early stopping,
// and the worker pool.
#include "train/parallel_trainer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "data/synthetic.hpp"
#include "obs/trace.hpp"
#include "train/worker_pool.hpp"
#include "util/json.hpp"

namespace {

using matador::data::Dataset;
using matador::data::train_test_split;
using matador::tm::TmConfig;
using matador::tm::TsetlinMachine;
using matador::train::FitOptions;
using matador::train::FitReport;
using matador::train::ParallelTrainer;
using matador::train::StopReason;
using matador::train::WorkerPool;
using matador::util::Json;

TmConfig small_config(std::size_t cpc = 20) {
    TmConfig c;
    c.clauses_per_class = cpc;
    c.threshold = 10;
    c.specificity = 3.9;
    c.seed = 42;
    return c;
}

/// 10-class, 64-bit image-like workload: small enough to train in
/// milliseconds, enough classes to exercise 8-way class parallelism.
Dataset ten_class_dataset(std::size_t examples_per_class = 30) {
    matador::data::ImageLikeParams p;
    p.width = 8;
    p.height = 8;
    p.num_classes = 10;
    p.examples_per_class = examples_per_class;
    p.seed = 5;
    return matador::data::make_image_like(p);
}

std::uint64_t train_hash(unsigned threads, std::size_t epochs = 3,
                         std::size_t patience = 0, std::size_t eval_every = 0) {
    const Dataset ds = ten_class_dataset();
    TsetlinMachine machine(small_config(), ds.num_features, ds.num_classes);
    FitOptions opts;
    opts.epochs = epochs;
    opts.threads = threads;
    opts.patience = patience;
    opts.eval_every = eval_every;
    ParallelTrainer trainer(opts);
    trainer.fit(machine, ds);
    return machine.export_model().content_hash();
}

// The ISSUE-4 acceptance contract: byte-identical models at 1, 2, 8 threads.
TEST(ParallelTrainer, ThreadInvarianceAcceptance) {
    const std::uint64_t h1 = train_hash(1);
    const std::uint64_t h2 = train_hash(2);
    const std::uint64_t h8 = train_hash(8);
    EXPECT_EQ(h1, h2);
    EXPECT_EQ(h1, h8);
}

std::uint64_t fit_hash(const Dataset& ds, unsigned threads, std::size_t epochs) {
    TsetlinMachine machine(small_config(), ds.num_features, ds.num_classes);
    ParallelTrainer({.epochs = epochs, .threads = threads}).fit(machine, ds);
    return machine.export_model().content_hash();
}

// An epoch trains in segments of 1024 positions of the shuffled order; a
// class's next segment may run on another worker only after the previous
// one is published.  3 full segments and a partial one per epoch.
TEST(ParallelTrainer, ThreadInvarianceAcrossSegments) {
    const Dataset ds = ten_class_dataset(350);
    ASSERT_EQ(ds.size(), 3500u);
    const std::uint64_t h1 = fit_hash(ds, 1, 2);
    for (const unsigned threads : {2u, 3u, 4u, 8u})
        EXPECT_EQ(fit_hash(ds, threads, 2), h1) << threads << " threads";
}

TEST(ParallelTrainer, ThreadInvarianceAtSegmentEdges) {
    const Dataset full = ten_class_dataset(103);
    for (const std::size_t size : {std::size_t{1}, std::size_t{1024}, std::size_t{1025}}) {
        Dataset ds = full;
        ds.examples.resize(size);
        ds.labels.resize(size);
        EXPECT_EQ(fit_hash(ds, 4, 2), fit_hash(ds, 1, 2)) << size << " examples";
    }
}

// Each (segment, class) task is one `train-segment` span, closed before the
// class's next segment may start, so per class the spans run one after
// another in epoch order even when they land on different workers.
TEST(ParallelTrainer, SegmentSpansRunInClassOrder) {
#ifdef MATADOR_OBS_NO_TRACING
    GTEST_SKIP() << "tracing compiled out";
#endif
    const Dataset ds = ten_class_dataset(350);
    const std::size_t epochs = 2, segments = 4;  // 3500 examples
    auto& rec = matador::obs::TraceRecorder::instance();
    rec.reset();
    rec.enable();
    TsetlinMachine machine(small_config(), ds.num_features, ds.num_classes);
    ParallelTrainer({.epochs = epochs, .threads = 4}).fit(machine, ds);
    rec.disable();
    const Json doc = rec.to_json();
    rec.reset();

    struct Span {
        double start, end, segment, examples;
    };
    std::map<double, std::vector<Span>> by_class;
    std::size_t count = 0;
    for (const Json& ev : doc.at("traceEvents").as_array()) {
        if (ev.at("ph").as_string() != "X" || ev.at("name").as_string() != "train-segment")
            continue;
        ++count;
        const Json& args = ev.at("args");
        const double start = ev.at("ts").as_double();
        by_class[args.at("class").as_double()].push_back(
            {start, start + ev.at("dur").as_double(), args.at("segment").as_double(),
             args.at("examples").as_double()});
    }
    EXPECT_EQ(count, epochs * segments * ds.num_classes);
    ASSERT_EQ(by_class.size(), ds.num_classes);

    double class_examples = 0.0;
    for (auto& [cls, spans] : by_class) {
        ASSERT_EQ(spans.size(), epochs * segments) << "class " << cls;
        std::sort(spans.begin(), spans.end(),
                  [](const Span& a, const Span& b) { return a.start < b.start; });
        for (std::size_t i = 0; i < spans.size(); ++i) {
            EXPECT_EQ(spans[i].segment, double(i % segments)) << "class " << cls;
            // Timestamps are whole nanoseconds in microsecond doubles.
            if (i > 0) {
                EXPECT_GE(spans[i].start + 1e-3, spans[i - 1].end) << "class " << cls;
            }
            class_examples += spans[i].examples;
        }
    }
    // Every example trains its target class and one negative class.
    EXPECT_EQ(class_examples, double(epochs * 2 * ds.size()));
}

TEST(ParallelTrainer, ThreadInvarianceWithEarlyStopping) {
    // Early stopping adds evaluation and snapshot/restore to the epoch
    // loop; none of it may depend on the thread count either.
    const std::uint64_t h1 = train_hash(1, 6, /*patience=*/1, /*eval_every=*/1);
    const std::uint64_t h4 = train_hash(4, 6, /*patience=*/1, /*eval_every=*/1);
    EXPECT_EQ(h1, h4);
}

TEST(ParallelTrainer, MoreThreadsThanClassesStillDeterministic) {
    const Dataset ds = matador::data::make_noisy_xor(400, 4, 0.02, 7);  // 2 classes
    const auto run = [&](unsigned threads) {
        TsetlinMachine machine(small_config(), ds.num_features, ds.num_classes);
        FitOptions opts;
        opts.epochs = 2;
        opts.threads = threads;
        ParallelTrainer trainer(opts);
        trainer.fit(machine, ds);
        return machine.export_model().content_hash();
    };
    EXPECT_EQ(run(1), run(16));
}

TEST(ParallelTrainer, LearnsNoisyXor) {
    const Dataset ds = matador::data::make_noisy_xor(3000, 4, 0.02, 7);
    const auto split = train_test_split(ds, 0.8, 3);
    TsetlinMachine machine(small_config(20), ds.num_features, 2);
    FitOptions opts;
    opts.epochs = 15;
    opts.threads = 4;
    ParallelTrainer trainer(opts);
    const FitReport rep = trainer.fit(machine, split.train, &split.test);
    EXPECT_GT(rep.eval_accuracy, 0.93) << "keyed-stream training failed to learn";
    EXPECT_NEAR(rep.eval_accuracy, machine.evaluate(split.test), 1e-12)
        << "reported eval accuracy disagrees with the returned model";
}

TEST(ParallelTrainer, ReportBasics) {
    const Dataset ds = ten_class_dataset(10);
    TsetlinMachine machine(small_config(), ds.num_features, ds.num_classes);
    FitOptions opts;
    opts.epochs = 4;
    opts.threads = 2;
    ParallelTrainer trainer(opts);
    const FitReport rep = trainer.fit(machine, ds);
    EXPECT_EQ(rep.epochs_run, 4u);
    EXPECT_EQ(rep.stop_reason, StopReason::kMaxEpochs);
    EXPECT_EQ(rep.threads_used, 2u);
    // eval_every = 0: exactly one (final) history entry.
    ASSERT_EQ(rep.history.size(), 1u);
    EXPECT_EQ(rep.history[0].epoch, 4u);
    EXPECT_EQ(rep.best_epoch, 4u);
    // No eval set: the eval column mirrors train accuracy.
    EXPECT_DOUBLE_EQ(rep.history[0].train_accuracy, rep.history[0].eval_accuracy);
}

TEST(ParallelTrainer, EvalCadenceFillsHistory) {
    const Dataset ds = ten_class_dataset(10);
    TsetlinMachine machine(small_config(), ds.num_features, ds.num_classes);
    FitOptions opts;
    opts.epochs = 6;
    opts.threads = 2;
    opts.eval_every = 2;
    ParallelTrainer trainer(opts);
    const FitReport rep = trainer.fit(machine, ds);
    ASSERT_EQ(rep.history.size(), 3u);  // epochs 2, 4, 6
    EXPECT_EQ(rep.history[0].epoch, 2u);
    EXPECT_EQ(rep.history[1].epoch, 4u);
    EXPECT_EQ(rep.history[2].epoch, 6u);
}

TEST(ParallelTrainer, EarlyStoppingStopsAndRestoresBest) {
    // A tiny, noisy workload with a large epoch budget: eval accuracy
    // plateaus quickly, so patience=2 must end training before the budget.
    const Dataset ds = matador::data::make_noisy_xor(600, 4, 0.10, 21);
    const auto split = train_test_split(ds, 0.7, 3);
    TsetlinMachine machine(small_config(8), ds.num_features, 2);
    FitOptions opts;
    opts.epochs = 60;
    opts.threads = 2;
    opts.eval_every = 1;
    opts.patience = 2;
    ParallelTrainer trainer(opts);
    const FitReport rep = trainer.fit(machine, split.train, &split.test);

    EXPECT_EQ(rep.stop_reason, StopReason::kEarlyStop);
    EXPECT_LT(rep.epochs_run, 60u);
    EXPECT_EQ(rep.history.size(), rep.epochs_run);  // eval_every = 1

    // The returned machine holds the best evaluation's snapshot.
    double best = 0.0;
    std::size_t best_epoch = 0;
    for (const auto& m : rep.history)
        if (m.eval_accuracy > best) {
            best = m.eval_accuracy;
            best_epoch = m.epoch;
        }
    EXPECT_EQ(rep.best_epoch, best_epoch);
    EXPECT_DOUBLE_EQ(rep.eval_accuracy, best);
    EXPECT_NEAR(machine.evaluate(split.test), best, 1e-12);
}

TEST(ParallelTrainer, ZeroEpochsReportsInitialModel) {
    const Dataset ds = ten_class_dataset(5);
    TsetlinMachine machine(small_config(), ds.num_features, ds.num_classes);
    FitOptions opts;
    opts.epochs = 0;
    opts.threads = 2;
    ParallelTrainer trainer(opts);
    const FitReport rep = trainer.fit(machine, ds);
    EXPECT_EQ(rep.epochs_run, 0u);
    ASSERT_EQ(rep.history.size(), 1u);
    EXPECT_EQ(rep.history[0].epoch, 0u);
}

TEST(ParallelTrainer, RejectsMismatchedDatasets) {
    const Dataset ds = ten_class_dataset(5);
    TsetlinMachine machine(small_config(), ds.num_features + 1, ds.num_classes);
    ParallelTrainer trainer;
    EXPECT_THROW(trainer.fit(machine, ds), std::invalid_argument);

    // Broken datasets are rejected before any work, through
    // Dataset::validate(): a label no class owns would train silently, and
    // a short labels vector would be read past its end.
    const Dataset xor_ds = matador::data::make_noisy_xor(200, 4, 0.02, 7);
    TsetlinMachine xor_machine(small_config(), xor_ds.num_features, 2);
    Dataset bad_label = xor_ds;
    bad_label.labels[0] = 7;
    EXPECT_THROW(trainer.fit(xor_machine, bad_label), std::runtime_error);
    Dataset short_labels = xor_ds;
    short_labels.labels.pop_back();
    EXPECT_THROW(trainer.fit(xor_machine, short_labels), std::runtime_error);
    EXPECT_THROW(trainer.fit(xor_machine, xor_ds, &bad_label), std::runtime_error);
}

// Pins the trained bytes across commits: the thread-invariance tests only
// compare thread counts with each other, so a refactor that changes the
// model identically at every thread count would pass them.  The values
// are recorded content_hash() results; a change that means to keep
// training as it is keeps them.
TEST(ParallelTrainer, ModelHashesMatchRecordedValues) {
    const auto hash_of = [](const Dataset& train, TmConfig cfg, FitOptions opts,
                            const Dataset* eval_set = nullptr) {
        TsetlinMachine machine(cfg, train.num_features, train.num_classes);
        ParallelTrainer(opts).fit(machine, train, eval_set);
        return machine.export_model().content_hash();
    };

    const Dataset kws = matador::data::make_kws6_like(40, 15);
    EXPECT_EQ(hash_of(kws, small_config(), {.epochs = 3, .threads = 4}),
              0x13ae0ccfd88dd5e1u);
    TmConfig exact = small_config();
    exact.feedback = matador::tm::FeedbackMode::kExact;
    exact.boost_true_positive = false;
    EXPECT_EQ(hash_of(kws, exact, {.epochs = 3, .threads = 2}), 0x75919731c22dc5c4u);

    matador::data::ImageLikeParams p;
    p.width = 10;
    p.height = 7;
    p.num_classes = 3;
    p.examples_per_class = 60;
    p.seed = 31;
    const auto split = train_test_split(matador::data::make_image_like(p), 0.8, 3);
    EXPECT_EQ(hash_of(split.train, small_config(),
                      {.epochs = 6, .threads = 1, .eval_every = 1, .patience = 1},
                      &split.test),
              0xe264cda6b2923ba1u);

    const Dataset mnist = matador::data::make_mnist_like(30, 11);
    EXPECT_EQ(hash_of(mnist, small_config(), {.epochs = 2, .threads = 4}),
              0x4a956cd735de80c2u);
}

// ---------------------------------------------------------------------------
// WorkerPool
// ---------------------------------------------------------------------------

TEST(WorkerPool, RunsEveryWorkerExactlyOnce) {
    WorkerPool pool(4);
    ASSERT_EQ(pool.size(), 4u);
    std::atomic<unsigned> mask{0};
    pool.run([&](unsigned w) { mask.fetch_or(1u << w); });
    EXPECT_EQ(mask.load(), 0b1111u);
}

TEST(WorkerPool, SingleThreadRunsInline) {
    WorkerPool pool(1);
    ASSERT_EQ(pool.size(), 1u);
    std::set<unsigned> seen;
    pool.run([&](unsigned w) { seen.insert(w); });  // no locking needed: inline
    EXPECT_EQ(seen, std::set<unsigned>{0u});
}

TEST(WorkerPool, ReusableAcrossRuns) {
    WorkerPool pool(3);
    std::atomic<int> total{0};
    for (int i = 0; i < 50; ++i)
        pool.run([&](unsigned) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 150);
}

TEST(WorkerPool, PropagatesWorkerExceptions) {
    WorkerPool pool(4);
    EXPECT_THROW(pool.run([](unsigned w) {
                     if (w == 2) throw std::runtime_error("boom");
                 }),
                 std::runtime_error);
    // The pool survives a throwing run.
    std::atomic<int> total{0};
    pool.run([&](unsigned) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 4);
}

TEST(WorkerPool, RunJobsClaimsEveryJobOnce) {
    // Without a pool the jobs run inline, in order.
    std::vector<std::size_t> order;
    matador::train::run_jobs(nullptr, 5, [&](std::size_t j) { order.push_back(j); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
    // On a pool every job runs exactly once, whatever the worker count,
    // also with fewer jobs than workers and with none.
    for (const unsigned threads : {1u, 3u, 8u})
        for (const std::size_t jobs : {0u, 2u, 100u}) {
            std::vector<std::atomic<int>> runs(jobs);
            WorkerPool pool(threads);
            matador::train::run_jobs(&pool, jobs, [&](std::size_t j) { runs[j].fetch_add(1); });
            for (std::size_t j = 0; j < jobs; ++j)
                EXPECT_EQ(runs[j].load(), 1) << threads << " workers, job " << j;
        }
    WorkerPool pool(4);
    EXPECT_THROW(matador::train::run_jobs(&pool, 10,
                                          [](std::size_t j) {
                                              if (j == 7) throw std::runtime_error("boom");
                                          }),
                 std::runtime_error);
}

}  // namespace
