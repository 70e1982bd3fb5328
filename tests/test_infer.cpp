#include "infer/engine.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "data/synthetic.hpp"
#include "model/trained_model.hpp"
#include "tm/tsetlin_machine.hpp"
#include "train/parallel_trainer.hpp"
#include "train/worker_pool.hpp"
#include "util/rng.hpp"

namespace {

using namespace matador;
using infer::BatchEngine;

/// Random model: every clause is emptied with probability `empty_fraction`,
/// otherwise each literal is included with probability `density`.
model::TrainedModel random_model(std::size_t features, std::size_t classes,
                                 std::size_t clauses_per_class,
                                 std::uint64_t seed, double density = 0.15,
                                 double empty_fraction = 0.2) {
    model::TrainedModel m(features, classes, clauses_per_class);
    util::Xoshiro256ss rng(seed);
    for (std::size_t c = 0; c < classes; ++c) {
        for (std::size_t j = 0; j < clauses_per_class; ++j) {
            if (rng.bernoulli(empty_fraction)) continue;
            auto& cl = m.clause(c, j);
            for (std::size_t f = 0; f < features; ++f) {
                if (rng.bernoulli(density)) cl.include_pos.set(f);
                if (rng.bernoulli(density)) cl.include_neg.set(f);
            }
        }
    }
    return m;
}

std::vector<util::BitVector> random_inputs(std::size_t bits, std::size_t n,
                                           std::uint64_t seed) {
    std::vector<util::BitVector> xs;
    util::Xoshiro256ss rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        util::BitVector x(bits);
        for (std::size_t w = 0; w < x.word_count(); ++w) x.set_word(w, rng());
        xs.push_back(std::move(x));
    }
    return xs;
}

TEST(Transpose, SixtyFourBySixtyFourOrientation) {
    util::Xoshiro256ss rng(7);
    std::uint64_t in[64], t[64];
    for (auto& w : in) w = rng();
    for (int i = 0; i < 64; ++i) t[i] = in[i];
    infer::transpose_64x64(t);
    for (int p = 0; p < 64; ++p)
        for (int j = 0; j < 64; ++j)
            ASSERT_EQ((t[p] >> j) & 1u, (in[j] >> p) & 1u)
                << "row " << p << " lane " << j;
    // Transposing twice is the identity.
    infer::transpose_64x64(t);
    for (int i = 0; i < 64; ++i) EXPECT_EQ(t[i], in[i]);
}

TEST(Transpose, BitVectorsWithRaggedLanes) {
    const std::size_t bits = 130;  // cross-word with a ragged tail
    const auto xs = random_inputs(bits, 23, 11);
    std::vector<std::uint64_t> out(bits);
    infer::transpose_bits(xs.data(), xs.size(), bits, out.data());
    for (std::size_t b = 0; b < bits; ++b)
        for (std::size_t j = 0; j < 64; ++j)
            ASSERT_EQ((out[b] >> j) & 1u,
                      j < xs.size() ? std::uint64_t(xs[j].get(b)) : 0u)
                << "bit " << b << " lane " << j;
    EXPECT_THROW(infer::transpose_bits(xs.data(), 65, bits, out.data()),
                 std::invalid_argument);
}

TEST(BatchEngine, MatchesScalarOnRandomModels) {
    const struct {
        std::size_t features, classes, clauses;
    } shapes[] = {{5, 3, 4}, {70, 2, 6}, {130, 4, 10}, {64, 5, 9}};
    for (const auto& s : shapes) {
        const auto m = random_model(s.features, s.classes, s.clauses,
                                    s.features * 1000 + s.classes);
        const BatchEngine engine(m);
        // 137 examples: two full blocks plus a ragged 9-lane tail.
        const auto xs = random_inputs(s.features, 137, 99);
        const auto preds = engine.predict(xs.data(), xs.size());
        for (std::size_t i = 0; i < xs.size(); ++i)
            ASSERT_EQ(preds[i], m.predict(xs[i]))
                << s.features << "f shape, example " << i;
    }
}

TEST(BatchEngine, RaggedTailCounts) {
    const auto m = random_model(40, 3, 8, 5);
    const BatchEngine engine(m);
    for (const std::size_t n : {std::size_t{1}, std::size_t{63},
                                std::size_t{64}, std::size_t{65},
                                std::size_t{130}}) {
        const auto xs = random_inputs(40, n, n);
        const auto preds = engine.predict(xs.data(), n);
        ASSERT_EQ(preds.size(), n);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(preds[i], m.predict(xs[i])) << "n=" << n << " i=" << i;
    }
}

TEST(BatchEngine, EmptyClausesVoteZeroAndSkipCompilation) {
    // All clauses empty: every class sum is 0, so the argmax tie-break must
    // pick class 0 everywhere - identical to the scalar convention.
    const model::TrainedModel m(12, 4, 6);
    const BatchEngine engine(m);
    EXPECT_EQ(engine.live_clauses(), 0u);
    const auto xs = random_inputs(12, 70, 3);
    for (const auto p : engine.predict(xs.data(), xs.size())) EXPECT_EQ(p, 0u);
}

TEST(BatchEngine, TiesResolveToLowerClassIndex) {
    // Classes 1 and 3 get identical clauses: their sums always tie, and the
    // prediction must agree with the scalar argmax (lower index wins).
    model::TrainedModel m(10, 4, 4);
    for (const std::size_t c : {std::size_t{1}, std::size_t{3}}) {
        m.clause(c, 0).include_pos.set(2);
        m.clause(c, 2).include_neg.set(5);
    }
    const BatchEngine engine(m);
    const auto xs = random_inputs(10, 100, 21);
    const auto preds = engine.predict(xs.data(), xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
        ASSERT_EQ(preds[i], m.predict(xs[i]));
        EXPECT_NE(preds[i], 3u);  // class 1 shadows its twin
    }
}

TEST(BatchEngine, ClauseOutputsMatchScalarClauses) {
    const auto m = random_model(70, 3, 8, 17);
    const BatchEngine engine(m);
    auto scratch = engine.make_scratch();
    std::vector<std::uint64_t> out(m.total_clauses());
    for (const std::size_t count : {std::size_t{37}, std::size_t{64}}) {
        const auto xs = random_inputs(70, count, count);
        engine.clause_outputs_block(xs.data(), count, out.data(), scratch);
        for (std::size_t c = 0; c < m.num_classes(); ++c)
            for (std::size_t j = 0; j < m.clauses_per_class(); ++j) {
                const std::uint64_t w = out[c * m.clauses_per_class() + j];
                for (std::size_t i = 0; i < 64; ++i)
                    ASSERT_EQ((w >> i) & 1u,
                              i < count ? std::uint64_t(
                                              m.clause(c, j).evaluate(xs[i]))
                                        : 0u)
                        << "C[" << c << "][" << j << "] lane " << i;
            }
    }
    EXPECT_THROW(engine.clause_outputs_block(nullptr, 65, out.data(), scratch),
                 std::invalid_argument);
}

TEST(BatchEngine, CompiledFromLiveMachineMatchesExportedModel) {
    const auto ds = data::make_kws6_like(20, 5);  // 377 bits: ragged words
    tm::TmConfig cfg;
    cfg.clauses_per_class = 16;
    cfg.seed = 9;
    tm::TsetlinMachine machine(cfg, ds.num_features, ds.num_classes);
    train::ParallelTrainer({.epochs = 2}).fit(machine, ds);

    const BatchEngine from_machine(machine);
    const BatchEngine from_model(machine.export_model());
    EXPECT_EQ(from_machine.live_clauses(), from_model.live_clauses());
    const auto preds_a = from_machine.predict(ds.examples.data(), ds.size());
    const auto preds_b = from_model.predict(ds.examples.data(), ds.size());
    EXPECT_EQ(preds_a, preds_b);
    for (std::size_t i = 0; i < ds.size(); ++i)
        ASSERT_EQ(preds_a[i], machine.predict(ds.examples[i])) << i;
}

TEST(BatchEngine, AccuracyMatchesScalarAndIsThreadInvariant) {
    const auto ds = data::make_iris_like(60, 4, 13);
    const auto m = random_model(ds.num_features, ds.num_classes, 10, 31, 0.2);
    const BatchEngine engine(m);

    std::size_t correct = 0;
    for (std::size_t i = 0; i < ds.size(); ++i)
        correct += m.predict(ds.examples[i]) == ds.labels[i];
    const double scalar = double(correct) / double(ds.size());

    EXPECT_EQ(engine.accuracy(ds), scalar);  // bit-identical, not just close
    train::WorkerPool pool(4);
    EXPECT_EQ(engine.accuracy(ds, &pool), scalar);
}

TEST(BatchEngine, AccuracyLiteralsMatchesDatasetPath) {
    const auto ds = data::make_noisy_xor(300, 10, 0.05, 3);
    tm::TmConfig cfg;
    cfg.clauses_per_class = 12;
    tm::TsetlinMachine machine(cfg, ds.num_features, ds.num_classes);
    train::ParallelTrainer({.epochs = 2}).fit(machine, ds);
    const BatchEngine engine(machine);

    const std::size_t words = machine.literal_words();
    std::vector<std::uint64_t> lits(ds.size() * words);
    for (std::size_t i = 0; i < ds.size(); ++i)
        machine.build_literals(ds.examples[i], lits.data() + i * words);

    const double via_dataset = engine.accuracy(ds);
    EXPECT_EQ(engine.accuracy_literals(lits.data(), words, ds.labels.data(),
                                       ds.size()),
              via_dataset);
    train::WorkerPool pool(3);
    EXPECT_EQ(engine.accuracy_literals(lits.data(), words, ds.labels.data(),
                                       ds.size(), &pool),
              via_dataset);
}

TEST(BatchEngine, TrainerAccuracyHistoryIsThreadInvariant) {
    // The PR-4 determinism contract extended to the eval cadence: the whole
    // accuracy history (computed through the batched engine) must be
    // bit-identical at any --train-threads value.
    const auto train_ds = data::make_iris_like(40, 4, 7);
    const auto eval_ds = data::make_iris_like(15, 4, 8);
    const auto fit_with = [&](unsigned threads) {
        tm::TmConfig cfg;
        cfg.clauses_per_class = 10;
        cfg.seed = 77;
        tm::TsetlinMachine machine(cfg, train_ds.num_features,
                                   train_ds.num_classes);
        train::FitOptions opts;
        opts.epochs = 4;
        opts.eval_every = 1;
        opts.threads = threads;
        train::ParallelTrainer trainer(opts);
        const auto rep = trainer.fit(machine, train_ds, &eval_ds);
        return std::make_pair(rep, machine.export_model().content_hash());
    };
    const auto [rep1, hash1] = fit_with(1);
    const auto [rep4, hash4] = fit_with(4);
    EXPECT_EQ(hash1, hash4);
    ASSERT_EQ(rep1.history.size(), rep4.history.size());
    for (std::size_t i = 0; i < rep1.history.size(); ++i) {
        EXPECT_EQ(rep1.history[i].epoch, rep4.history[i].epoch);
        EXPECT_EQ(rep1.history[i].train_accuracy,
                  rep4.history[i].train_accuracy);
        EXPECT_EQ(rep1.history[i].eval_accuracy, rep4.history[i].eval_accuracy);
    }
}

TEST(BatchEngine, TrainerHistoryMatchesScalarEvaluate) {
    // The batched eval cadence must report exactly what the scalar
    // reference loop would: the final history entry equals a scalar
    // evaluate() of the machine the fit returned.
    const auto ds = data::make_noisy_xor(200, 10, 0.05, 19);
    tm::TmConfig cfg;
    cfg.clauses_per_class = 10;
    tm::TsetlinMachine machine(cfg, ds.num_features, ds.num_classes);
    train::FitOptions opts;
    opts.epochs = 3;
    opts.threads = 2;
    train::ParallelTrainer trainer(opts);
    const auto rep = trainer.fit(machine, ds);
    ASSERT_FALSE(rep.history.empty());
    EXPECT_EQ(rep.history.back().train_accuracy, machine.evaluate(ds));
}

TEST(TsetlinMachine, ConcurrentPredictIsRaceFree) {
    // predict/class_sums are const but used to write a shared mutable
    // scratch buffer; two threads predicting concurrently corrupted each
    // other.  Now they work on caller-owned literals (TSan-checked in CI).
    const auto ds = data::make_iris_like(30, 4, 2);
    tm::TmConfig cfg;
    cfg.clauses_per_class = 10;
    tm::TsetlinMachine machine(cfg, ds.num_features, ds.num_classes);
    train::ParallelTrainer({.epochs = 2}).fit(machine, ds);

    std::vector<std::uint32_t> reference(ds.size());
    for (std::size_t i = 0; i < ds.size(); ++i)
        reference[i] = machine.predict(ds.examples[i]);

    std::vector<std::thread> threads;
    std::vector<int> mismatches(4, 0);
    for (unsigned t = 0; t < 4; ++t)
        threads.emplace_back([&, t] {
            for (int round = 0; round < 20; ++round)
                for (std::size_t i = 0; i < ds.size(); ++i)
                    mismatches[t] +=
                        machine.predict(ds.examples[i]) != reference[i];
        });
    for (auto& th : threads) th.join();
    for (const int m : mismatches) EXPECT_EQ(m, 0);
}

}  // namespace
