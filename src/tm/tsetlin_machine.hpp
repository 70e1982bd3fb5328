// Multiclass Tsetlin Machine: training kernels and inference (Granmo 2018).
//
// This is the "offline training" stage of the MATADOR flow (Fig. 6).  The
// implementation is bit-sliced for speed: the 8-bit state counter of every
// Tsetlin Automaton is stored across 8 bit-planes per clause, so state
// increments/decrements apply to 64 automata per machine word via
// ripple-carry, and clause evaluation is a word-parallel subset test.
// The include/exclude *action* of an automaton is simply the MSB plane
// (state >= 128 => include), which doubles as a cached include mask.
//
// Feedback follows the vanilla scheme:
//   target class   : +polarity clauses get Type I, -polarity get Type II,
//                    each selected with prob (T - clamp(v)) / 2T;
//   one sampled negative class: mirrored, prob (T + clamp(v)) / 2T.
// Stochastic Bernoulli(1/s) literal masks come either from an exact per-bit
// draw or from the hardware-style 2^-k AND-mask approximation used by the
// FPGA TM training lineage the paper builds on (refs [20], [21]).
//
// The machine holds state, not a training loop.  Its one training surface
// is class-scoped and driven by train::ParallelTrainer (src/train/):
// build_literals fills a caller buffer that is then shared read-only,
// train_class applies one example's feedback to one class's clause banks,
// all randomness comes from caller-provided KeyedRng streams, and mutable
// scratch is caller-owned - so concurrent calls on distinct classes are
// data-race free and results never depend on thread count.  The scalar
// class_sums / predict / evaluate are the inference reference the batched
// engine (infer::BatchEngine) is tested against.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "model/trained_model.hpp"
#include "util/bitvector.hpp"
#include "util/rng.hpp"

namespace matador::tm {

/// How Bernoulli(1/s) feedback masks are generated.
enum class FeedbackMode {
    kExact,     ///< per-bit uniform draws (slow, exact probability)
    kFastPow2,  ///< AND of k random words, p = 2^-k with k = round(log2 s)
};

/// Training hyperparameters (the knobs the MATADOR GUI exposes).
struct TmConfig {
    std::size_t clauses_per_class = 100;  ///< total per class; polarity alternates +,-
    int threshold = 15;                   ///< T: class-sum clamp during training
    double specificity = 3.9;             ///< s: exclusion pressure (s > 1)
    bool boost_true_positive = true;      ///< skip (s-1)/s damping on true includes
    FeedbackMode feedback = FeedbackMode::kFastPow2;
    std::uint64_t seed = 42;
};

/// Multiclass Tsetlin Machine.
class TsetlinMachine {
public:
    TsetlinMachine(TmConfig cfg, std::size_t num_features, std::size_t num_classes);

    std::size_t num_features() const { return num_features_; }
    std::size_t num_classes() const { return num_classes_; }
    std::size_t clauses_per_class() const { return cfg_.clauses_per_class; }
    const TmConfig& config() const { return cfg_; }

    /// Class sums with inference semantics (empty clauses vote 0).
    /// Thread-safe: works on a local literal buffer, so any number of
    /// threads may score a shared machine concurrently.
    std::vector<int> class_sums(const util::BitVector& x) const;

    /// argmax of class sums, ties to lower index.  Thread-safe.
    std::uint32_t predict(const util::BitVector& x) const;

    /// Fraction of correctly classified examples (scalar reference path;
    /// infer::BatchEngine is the 64-examples-per-pass engine).
    double evaluate(const data::Dataset& ds) const;

    // -- class-scoped training surface (driven by train::ParallelTrainer) ---

    /// Words in a literal vector [x | ~x] (two word-aligned halves).
    std::size_t literal_words() const { return words_; }

    /// Build the literal vector for `x` into `dst` (literal_words() words).
    /// `dst` may then be shared read-only by any number of threads.
    void build_literals(const util::BitVector& x, std::uint64_t* dst) const;

    /// Per-call mutable scratch for train_class.  One per worker thread;
    /// never share an instance across concurrent calls.
    struct FeedbackScratch {
        std::vector<std::uint64_t> mask_a, mask_b;
    };
    FeedbackScratch make_scratch() const {
        return {std::vector<std::uint64_t>(words_, 0),
                std::vector<std::uint64_t>(words_, 0)};
    }

    /// Apply one example's feedback to one class: the target-class half
    /// (Type I to +polarity, Type II to -polarity) when `is_target`, the
    /// mirrored negative-class half otherwise.  Touches only `cls`'s clause
    /// banks, so concurrent calls on distinct classes are race-free.  All
    /// stochastic choices come from `rng` - key it by (epoch, example,
    /// class) to make training reproducible at any thread count.
    void train_class(std::size_t cls, bool is_target, const std::uint64_t* literals,
                     util::KeyedRng& rng, FeedbackScratch& scratch);

    /// Packed include mask of one clause (literal_words() words, bit layout
    /// of build_literals).  Read-only view for the batched inference
    /// compiler (infer::BatchEngine); stale after further training.
    std::span<const std::uint64_t> include_words(std::size_t cls,
                                                 std::size_t clause) const {
        return {include(clause_base(cls, clause)), words_};
    }

    /// Snapshot the include/exclude decisions as a TrainedModel
    /// (the boolean artefact consumed by the rest of the flow).
    model::TrainedModel export_model() const;

    /// Load include decisions back into automata states: included literals
    /// get state kIncludeThreshold, excluded kIncludeThreshold - 1.  This is
    /// the "import external model" (yellow) flow; training may continue.
    void import_model(const model::TrainedModel& m);

    /// Raw state (0..2^kStateBits-1) of one automaton; literal index l in
    /// [0, 2*num_features): l < F is x_l, l >= F is ~x_(l-F).  For tests.
    unsigned ta_state(std::size_t cls, std::size_t clause, std::size_t literal) const;

    static constexpr unsigned kStateBits = 8;
    static constexpr unsigned kIncludeThreshold = 1u << (kStateBits - 1);

private:
    // Layout: state_[((cls*Q + clause) * kStateBits + plane) * W + word],
    // include_[(cls*Q + clause) * W + word] mirrors the MSB plane.
    std::size_t clause_base(std::size_t cls, std::size_t clause) const {
        return (cls * cfg_.clauses_per_class + clause);
    }
    std::uint64_t* plane(std::size_t flat_clause, unsigned p) {
        return state_.data() + (flat_clause * kStateBits + p) * words_;
    }
    const std::uint64_t* plane(std::size_t flat_clause, unsigned p) const {
        return state_.data() + (flat_clause * kStateBits + p) * words_;
    }
    std::uint64_t* include(std::size_t flat_clause) {
        return include_.data() + flat_clause * words_;
    }
    const std::uint64_t* include(std::size_t flat_clause) const {
        return include_.data() + flat_clause * words_;
    }

    /// Clause output with *training* semantics (empty clause outputs 1).
    bool clause_output_train(std::size_t flat_clause,
                             const std::uint64_t* literals) const;
    /// Clause output with inference semantics (empty clause outputs 0).
    bool clause_output_infer(std::size_t flat_clause,
                             const std::uint64_t* literals) const;
    /// Training-semantics vote of one class on prebuilt literals.
    int class_vote_train(std::size_t cls, const std::uint64_t* literals) const;

    /// Saturating bit-sliced state update on `flat_clause`.
    void increment(std::size_t flat_clause, const std::uint64_t* mask);
    void decrement(std::size_t flat_clause, const std::uint64_t* mask);
    void refresh_include(std::size_t flat_clause);

    void type_i_feedback(std::size_t flat_clause, const std::uint64_t* literals,
                         util::KeyedRng& rng, FeedbackScratch& scratch);
    void type_ii_feedback(std::size_t flat_clause, const std::uint64_t* literals,
                          FeedbackScratch& scratch);

    /// One word of Bernoulli(1/s) bits per cfg_.feedback.
    std::uint64_t rare_word(util::KeyedRng& rng) const;

    int clamp_sum(int v) const;

    TmConfig cfg_;
    std::size_t num_features_;
    std::size_t num_classes_;
    std::size_t num_literals_;  // 2F
    std::size_t words_;         // words per literal vector
    unsigned pow2_k_;           // k for kFastPow2

    std::vector<std::uint64_t> state_;
    std::vector<std::uint64_t> include_;
};

}  // namespace matador::tm
