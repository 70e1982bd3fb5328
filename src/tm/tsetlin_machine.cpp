#include "tm/tsetlin_machine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace matador::tm {

namespace {
constexpr std::size_t kWordBits = 64;
}

TsetlinMachine::TsetlinMachine(TmConfig cfg, std::size_t num_features,
                               std::size_t num_classes)
    : cfg_(cfg),
      num_features_(num_features),
      num_classes_(num_classes),
      num_literals_(2 * num_features) {
    if (num_features == 0) throw std::invalid_argument("TsetlinMachine: 0 features");
    if (num_classes == 0) throw std::invalid_argument("TsetlinMachine: 0 classes");
    if (cfg.clauses_per_class == 0)
        throw std::invalid_argument("TsetlinMachine: 0 clauses per class");
    if (cfg.specificity <= 1.0)
        throw std::invalid_argument("TsetlinMachine: specificity must be > 1");
    if (cfg.threshold <= 0) throw std::invalid_argument("TsetlinMachine: threshold <= 0");

    // Word-aligned halves: [x | ~x], each ceil(F/64) words.
    const std::size_t half_words = (num_features_ + kWordBits - 1) / kWordBits;
    words_ = 2 * half_words;

    const std::size_t total_clauses = num_classes_ * cfg_.clauses_per_class;
    state_.assign(total_clauses * kStateBits * words_, 0);
    include_.assign(total_clauses * words_, 0);

    // Initial state: kIncludeThreshold - 1 (all low planes set, MSB clear):
    // every automaton sits just below the include boundary.
    for (std::size_t fc = 0; fc < total_clauses; ++fc)
        for (unsigned p = 0; p + 1 < kStateBits; ++p)
            std::memset(plane(fc, p), 0xff, words_ * sizeof(std::uint64_t));

    pow2_k_ = std::max(1u, unsigned(std::lround(std::log2(cfg_.specificity))));
}

void TsetlinMachine::build_literals(const util::BitVector& x,
                                    std::uint64_t* dst) const {
    if (x.size() != num_features_)
        throw std::invalid_argument("TsetlinMachine::build_literals: feature mismatch");
    const std::size_t half_words = words_ / 2;
    const auto xw = x.words();
    for (std::size_t w = 0; w < half_words; ++w) {
        dst[w] = xw[w];
        dst[half_words + w] = ~xw[w];
    }
    // Mask the tail of the negated half so invalid positions read 0.
    const std::size_t tail = num_features_ % kWordBits;
    if (tail != 0)
        dst[words_ - 1] &= (std::uint64_t{1} << tail) - 1;
}

bool TsetlinMachine::clause_output_train(std::size_t fc,
                                         const std::uint64_t* literals) const {
    const std::uint64_t* inc = include(fc);
    for (std::size_t w = 0; w < words_; ++w)
        if ((inc[w] & ~literals[w]) != 0) return false;
    return true;
}

bool TsetlinMachine::clause_output_infer(std::size_t fc,
                                         const std::uint64_t* literals) const {
    const std::uint64_t* inc = include(fc);
    bool any_include = false;
    for (std::size_t w = 0; w < words_; ++w) {
        if ((inc[w] & ~literals[w]) != 0) return false;
        any_include |= inc[w] != 0;
    }
    return any_include;
}

void TsetlinMachine::increment(std::size_t fc, const std::uint64_t* mask) {
    const std::size_t half_words = words_ / 2;
    const std::size_t tail = num_features_ % kWordBits;
    const std::uint64_t tail_mask =
        tail == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << tail) - 1;

    for (std::size_t w = 0; w < words_; ++w) {
        std::uint64_t carry = mask[w];
        // Valid-literal mask: the tail word of each half carries no literals
        // beyond bit F-1.
        if (tail != 0 && (w == half_words - 1 || w == words_ - 1)) carry &= tail_mask;
        if (carry == 0) continue;
        for (unsigned p = 0; p < kStateBits; ++p) {
            std::uint64_t* pl = plane(fc, p) + w;
            const std::uint64_t t = *pl & carry;
            *pl ^= carry;
            carry = t;
        }
        if (carry != 0)  // overflow: saturate those lanes at the maximum state
            for (unsigned p = 0; p < kStateBits; ++p) plane(fc, p)[w] |= carry;
    }
    refresh_include(fc);
}

void TsetlinMachine::decrement(std::size_t fc, const std::uint64_t* mask) {
    for (std::size_t w = 0; w < words_; ++w) {
        std::uint64_t borrow = mask[w];
        if (borrow == 0) continue;
        for (unsigned p = 0; p < kStateBits; ++p) {
            std::uint64_t* pl = plane(fc, p) + w;
            const std::uint64_t t = ~*pl & borrow;
            *pl ^= borrow;
            borrow = t;
        }
        if (borrow != 0)  // underflow: saturate those lanes at state 0
            for (unsigned p = 0; p < kStateBits; ++p) plane(fc, p)[w] &= ~borrow;
    }
    refresh_include(fc);
}

void TsetlinMachine::refresh_include(std::size_t fc) {
    std::memcpy(include(fc), plane(fc, kStateBits - 1), words_ * sizeof(std::uint64_t));
}

std::uint64_t TsetlinMachine::rare_word(util::KeyedRng& rng) const {
    if (cfg_.feedback == FeedbackMode::kFastPow2)
        return rng.bernoulli_word_pow2(pow2_k_);
    return rng.bernoulli_word_exact(1.0 / cfg_.specificity);
}

int TsetlinMachine::clamp_sum(int v) const {
    return std::clamp(v, -cfg_.threshold, cfg_.threshold);
}

void TsetlinMachine::type_i_feedback(std::size_t fc, const std::uint64_t* literals,
                                     util::KeyedRng& rng, FeedbackScratch& scratch) {
    if (clause_output_train(fc, literals)) {
        // Clause fired: reinforce the pattern.  True literals march toward
        // include (optionally damped by (s-1)/s), false literals erode
        // toward exclude with probability 1/s.
        for (std::size_t w = 0; w < words_; ++w) {
            std::uint64_t inc = literals[w];
            if (!cfg_.boost_true_positive) inc &= ~rare_word(rng);
            scratch.mask_a[w] = inc;
            scratch.mask_b[w] = ~literals[w] & rare_word(rng);
        }
        increment(fc, scratch.mask_a.data());
        decrement(fc, scratch.mask_b.data());
    } else {
        // Clause silent: erode every automaton with probability 1/s.
        for (std::size_t w = 0; w < words_; ++w) scratch.mask_a[w] = rare_word(rng);
        decrement(fc, scratch.mask_a.data());
    }
}

void TsetlinMachine::type_ii_feedback(std::size_t fc, const std::uint64_t* literals,
                                      FeedbackScratch& scratch) {
    if (!clause_output_train(fc, literals)) return;
    // Clause fired on the wrong class: push excluded false literals toward
    // include so the clause learns to reject this input.  (Included literals
    // are necessarily 1 here, so ~L touches only excluded automata.)
    for (std::size_t w = 0; w < words_; ++w) scratch.mask_a[w] = ~literals[w];
    increment(fc, scratch.mask_a.data());
}

int TsetlinMachine::class_vote_train(std::size_t cls,
                                     const std::uint64_t* literals) const {
    // No early exit at the first violated word: whether a clause fires
    // depends on the data, so that branch mispredicts about once per
    // clause, and ORing every word costs less.
    int v = 0;
    for (std::size_t j = 0; j < cfg_.clauses_per_class; ++j) {
        const std::uint64_t* inc = include(clause_base(cls, j));
        std::uint64_t viol = 0;
        for (std::size_t w = 0; w < words_; ++w) viol |= inc[w] & ~literals[w];
        v += int(viol == 0) * ((j % 2 == 0) ? +1 : -1);
    }
    return v;
}

void TsetlinMachine::train_class(std::size_t cls, bool is_target,
                                 const std::uint64_t* literals,
                                 util::KeyedRng& rng, FeedbackScratch& scratch) {
    if (cls >= num_classes_)
        throw std::out_of_range("TsetlinMachine::train_class: class index");
    const std::size_t q = cfg_.clauses_per_class;
    const double two_t = 2.0 * double(cfg_.threshold);
    const int v = clamp_sum(class_vote_train(cls, literals));
    // Target class: pull the vote up toward +T (Type I on +polarity).
    // Negative class: push it down toward -T (mirrored feedback).
    const double p = (is_target ? cfg_.threshold - v : cfg_.threshold + v) / two_t;
    for (std::size_t j = 0; j < q; ++j) {
        if (!rng.bernoulli(p)) continue;
        const std::size_t fc = clause_base(cls, j);
        const bool positive_polarity = j % 2 == 0;
        if (positive_polarity == is_target)
            type_i_feedback(fc, literals, rng, scratch);
        else
            type_ii_feedback(fc, literals, scratch);
    }
}

std::vector<int> TsetlinMachine::class_sums(const util::BitVector& x) const {
    if (x.size() != num_features_)
        throw std::invalid_argument("TsetlinMachine::class_sums: feature mismatch");
    // A local literal buffer: a const method writing shared scratch would
    // corrupt concurrent predictions.
    std::vector<std::uint64_t> literals(words_);
    build_literals(x, literals.data());
    std::vector<int> sums(num_classes_, 0);
    const std::size_t q = cfg_.clauses_per_class;
    for (std::size_t c = 0; c < num_classes_; ++c)
        for (std::size_t j = 0; j < q; ++j)
            if (clause_output_infer(clause_base(c, j), literals.data()))
                sums[c] += (j % 2 == 0) ? +1 : -1;
    return sums;
}

std::uint32_t TsetlinMachine::predict(const util::BitVector& x) const {
    const auto sums = class_sums(x);
    std::size_t best = 0;
    for (std::size_t c = 1; c < sums.size(); ++c)
        if (sums[c] > sums[best]) best = c;
    return std::uint32_t(best);
}

double TsetlinMachine::evaluate(const data::Dataset& ds) const {
    if (ds.size() == 0) return 0.0;
    std::size_t correct = 0;
    for (std::size_t i = 0; i < ds.size(); ++i)
        correct += predict(ds.examples[i]) == ds.labels[i];
    return double(correct) / double(ds.size());
}

model::TrainedModel TsetlinMachine::export_model() const {
    model::TrainedModel m(num_features_, num_classes_, cfg_.clauses_per_class);
    const std::size_t half_words = words_ / 2;
    for (std::size_t c = 0; c < num_classes_; ++c) {
        for (std::size_t j = 0; j < cfg_.clauses_per_class; ++j) {
            const std::uint64_t* inc = include(clause_base(c, j));
            auto& cl = m.clause(c, j);
            for (std::size_t w = 0; w < half_words; ++w) {
                cl.include_pos.set_word(w, inc[w]);
                cl.include_neg.set_word(w, inc[half_words + w]);
            }
            cl.polarity = (j % 2 == 0) ? +1 : -1;
        }
    }
    return m;
}

void TsetlinMachine::import_model(const model::TrainedModel& m) {
    if (m.num_features() != num_features_ || m.num_classes() != num_classes_ ||
        m.clauses_per_class() != cfg_.clauses_per_class)
        throw std::invalid_argument("TsetlinMachine::import_model: shape mismatch");

    const std::size_t half_words = words_ / 2;
    const std::size_t total_clauses = num_classes_ * cfg_.clauses_per_class;

    // Reset every automaton to just below the include boundary ...
    std::memset(state_.data(), 0, state_.size() * sizeof(std::uint64_t));
    for (std::size_t fc = 0; fc < total_clauses; ++fc)
        for (unsigned p = 0; p + 1 < kStateBits; ++p)
            std::memset(plane(fc, p), 0xff, words_ * sizeof(std::uint64_t));

    // ... then lift included literals to exactly the include threshold.
    for (std::size_t c = 0; c < num_classes_; ++c) {
        for (std::size_t j = 0; j < cfg_.clauses_per_class; ++j) {
            const std::size_t fc = clause_base(c, j);
            const auto& cl = m.clause(c, j);
            auto lift = [&](std::size_t word_base, const util::BitVector& bits) {
                for (auto f : bits.set_bits()) {
                    const std::size_t w = word_base + f / kWordBits;
                    const std::uint64_t bit = std::uint64_t{1} << (f % kWordBits);
                    for (unsigned p = 0; p + 1 < kStateBits; ++p) plane(fc, p)[w] &= ~bit;
                    plane(fc, kStateBits - 1)[w] |= bit;
                }
            };
            lift(0, cl.include_pos);
            lift(half_words, cl.include_neg);
            refresh_include(fc);
        }
    }
}

unsigned TsetlinMachine::ta_state(std::size_t cls, std::size_t clause,
                                  std::size_t literal) const {
    if (cls >= num_classes_ || clause >= cfg_.clauses_per_class ||
        literal >= num_literals_)
        throw std::out_of_range("TsetlinMachine::ta_state");
    const std::size_t half_words = words_ / 2;
    const std::size_t f = literal < num_features_ ? literal : literal - num_features_;
    const std::size_t w = (literal < num_features_ ? 0 : half_words) + f / kWordBits;
    const std::size_t b = f % kWordBits;
    unsigned v = 0;
    const std::size_t fc = clause_base(cls, clause);
    for (unsigned p = 0; p < kStateBits; ++p)
        v |= unsigned((plane(fc, p)[w] >> b) & 1u) << p;
    return v;
}

}  // namespace matador::tm
