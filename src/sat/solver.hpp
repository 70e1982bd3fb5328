// CDCL SAT solver core.
//
// A deliberately compact MiniSat-lineage solver: two-watched-literal
// propagation, first-UIP conflict analysis with clause learning,
// VSIDS-style activity decay with a heap-ordered decision queue, Luby
// restarts, and solve-under-assumptions for the incremental miter queries
// of the prove tier.
//
// Storage follows MiniSat (Een & Sorensson, "An Extensible SAT-solver",
// SAT 2003).  Every clause's literals sit back to back in one arena, each
// clause an offset and a size into it, and every literal's watch list is a
// span of one shared pool, so propagation allocates only when a list
// outgrows its span.  Propagation compacts each watch list in place and
// keeps its watchers in order: the search (decisions, propagations,
// conflicts) follows from that order, and test_sat pins it.
//
// Every UNSAT answer is self-checkable: the solver records its learned
// clauses in derivation order, and verify_unsat() replays them as a
// DRAT-style RUP trace - each learned clause's negation must unit-propagate
// to a conflict over the original clauses plus the previously verified
// prefix, and the final database (plus the assumption units) must propagate
// to the empty clause.  A proof that fails to replay demotes the answer to
// "unknown", so a solver bug can never silently certify equivalence.  The
// replay is sound on its own: it watches two non-false literals of every
// clause it loads, so it holds on a solver that never ran solve() and on a
// satisfiable formula (where it returns false) alike.
#pragma once

#include <cstdint>
#include <vector>

#include "sat/cnf.hpp"

namespace matador::sat {

enum class SolveResult { kSat, kUnsat, kUnknown };

const char* solve_result_name(SolveResult r);

/// Search statistics, exported per proof obligation through src/obs/.
struct SolverStats {
    std::uint64_t decisions = 0;
    std::uint64_t propagations = 0;
    std::uint64_t conflicts = 0;
    std::uint64_t learned_clauses = 0;
    std::uint64_t learned_literals = 0;
    std::uint64_t restarts = 0;

    SolverStats& operator+=(const SolverStats& o) {
        decisions += o.decisions;
        propagations += o.propagations;
        conflicts += o.conflicts;
        learned_clauses += o.learned_clauses;
        learned_literals += o.learned_literals;
        restarts += o.restarts;
        return *this;
    }
};

class Solver {
public:
    Solver() = default;
    explicit Solver(const Cnf& cnf);

    /// Grow the variable space to at least `n` variables.
    void ensure_vars(Var n);
    /// Add one problem clause.  An empty clause makes the formula trivially
    /// UNSAT; unit clauses assert at the root level.
    void add_clause(std::vector<Lit> c);

    /// Conflict budget per solve() call (0 = unlimited); an exhausted
    /// budget returns kUnknown.
    void set_max_conflicts(std::uint64_t n) { max_conflicts_ = n; }

    /// Solve under `assumptions` (may be empty).  Reusable: assumptions and
    /// learned clauses from earlier calls persist, matching the incremental
    /// interface the miter fan-out relies on.
    SolveResult solve(const std::vector<Lit>& assumptions = {});

    /// After kSat: the model value of `v`.
    bool model_value(Var v) const { return model_[v]; }
    /// After kSat: the model value of a literal.
    bool model_lit(Lit l) const { return model_value(var_of(l)) != sign_of(l); }

    /// After kUnsat: replay the recorded derivation as a RUP trace and
    /// check that it ends in the empty clause.  True = the UNSAT answer is
    /// certified by the trace, not just claimed.
    bool verify_unsat() const;

    /// Learned clauses of every solve so far, in derivation order (the
    /// trace verify_unsat replays).  Learned clauses stay in the database
    /// across solves, so their derivation stays in the trace too.
    std::size_t trace_size() const { return learned_trace_.size(); }

    const SolverStats& stats() const { return stats_; }
    std::size_t num_vars() const { return Var(assign_.size()); }

private:
    static constexpr int kNoReason = -1;
    enum : std::int8_t { kUndef = 0, kTrue = 1, kFalse = 2 };

    /// One clause: `size` literals at arena_[offset], the two watched ones
    /// first.  Never hold a pointer into the arena across a push to it.
    struct ClauseRef {
        std::uint32_t offset = 0;
        std::uint32_t size = 0;
        bool learned = false;
    };

    Lit* lits(int ci) { return arena_.data() + clauses_[ci].offset; }
    const Lit* lits(int ci) const { return arena_.data() + clauses_[ci].offset; }
    /// Append a clause to the arena; returns its index.
    int push_clause(const std::vector<Lit>& c, bool learned);

    /// One watch list per literal, all in one pool: list l holds
    /// pool_[start, start + size) with room for `cap`.  A push onto a full
    /// list moves it to the pool's end with twice the room, keeping its
    /// order.  A push may reallocate the pool, so hold list positions, not
    /// pointers, across one.
    class WatchLists {
    public:
        void add_literals(std::size_t n) { spans_.resize(spans_.size() + n); }
        std::size_t size(Lit l) const { return spans_[l].size; }
        int& at(Lit l, std::size_t i) { return pool_[spans_[l].start + i]; }
        void push(Lit l, int ci);
        void truncate(Lit l, std::size_t n) { spans_[l].size = std::uint32_t(n); }

    private:
        struct Span {
            std::uint32_t start = 0, size = 0, cap = 0;
        };
        std::vector<Span> spans_;
        std::vector<int> pool_;
    };
    class RupChecker;  ///< verify_unsat's replay engine

    std::int8_t value(Lit l) const {
        const auto v = assign_[var_of(l)];
        if (v == kUndef) return kUndef;
        return (v == kTrue) != sign_of(l) ? kTrue : kFalse;
    }

    bool enqueue(Lit l, int reason);
    int propagate();
    void analyze(int confl, std::vector<Lit>& learnt, std::size_t& bt_level);
    void backtrack(std::size_t level);
    void new_decision_level() { trail_lim_.push_back(trail_.size()); }
    std::size_t decision_level() const { return trail_lim_.size(); }
    Lit pick_branch();
    void watch_clause(int ci);

    // -- VSIDS ---------------------------------------------------------------
    void var_bump(Var v);
    void var_decay() { var_inc_ /= kVarDecay; }
    void heap_insert(Var v);
    void heap_sift_up(std::size_t i);
    void heap_sift_down(std::size_t i);
    Var heap_pop();

    static constexpr double kVarDecay = 0.95;
    static constexpr double kRescaleLimit = 1e100;

    std::vector<Lit> arena_;                 ///< every clause's literals
    std::vector<ClauseRef> clauses_;
    WatchLists watches_;                     ///< per literal: clause indices
    std::vector<std::int8_t> assign_;        ///< per var
    std::vector<std::int8_t> phase_;         ///< per var: last polarity
    std::vector<std::uint32_t> level_;       ///< per var
    std::vector<int> reason_;                ///< per var: clause index / kNoReason
    std::vector<Lit> trail_;
    std::vector<std::size_t> trail_lim_;
    std::size_t qhead_ = 0;
    bool unsat_ = false;  ///< root-level contradiction already derived
    /// The input itself contained the empty clause: UNSAT needs no trace.
    bool empty_clause_ = false;

    std::vector<double> activity_;
    double var_inc_ = 1.0;
    std::vector<Var> heap_;                 ///< max-activity binary heap
    std::vector<std::size_t> heap_index_;   ///< per var: heap slot or npos

    std::vector<bool> model_;
    std::vector<bool> seen_;

    std::uint64_t max_conflicts_ = 0;
    SolverStats stats_;

    /// Derivation trace of every solve: learned clauses in order.
    std::vector<std::vector<Lit>> learned_trace_;
    std::vector<Lit> last_assumptions_;
    /// Problem clauses (pre-learning), snapshotted for verify_unsat.
    std::size_t num_problem_clauses_ = 0;
};

/// Check a model against a formula (all clauses satisfied).
bool model_satisfies(const Cnf& cnf, const Solver& solver);

}  // namespace matador::sat
