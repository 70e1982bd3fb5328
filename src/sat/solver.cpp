#include "sat/solver.hpp"

#include <algorithm>

namespace matador::sat {

const char* solve_result_name(SolveResult r) {
    switch (r) {
        case SolveResult::kSat: return "sat";
        case SolveResult::kUnsat: return "unsat";
        case SolveResult::kUnknown: return "unknown";
    }
    return "?";
}

namespace {

constexpr std::size_t kNoHeapSlot = std::size_t(-1);

/// Luby restart sequence (1 1 2 1 1 2 4 ...), unit 100 conflicts.
std::uint64_t luby(std::uint64_t i) {
    std::uint64_t size = 1, seq = 0;
    while (size < i + 1) {
        seq++;
        size = 2 * size + 1;
    }
    while (size - 1 != i) {
        size = (size - 1) >> 1;
        seq--;
        i = i % size;
    }
    return std::uint64_t(1) << seq;
}

}  // namespace

Solver::Solver(const Cnf& cnf) {
    ensure_vars(cnf.num_vars);
    for (const auto& c : cnf.clauses) add_clause(c);
}

void Solver::ensure_vars(Var n) {
    while (num_vars() < n) {
        const Var v = Var(assign_.size());
        assign_.push_back(kUndef);
        phase_.push_back(kFalse);
        level_.push_back(0);
        reason_.push_back(kNoReason);
        activity_.push_back(0.0);
        seen_.push_back(false);
        model_.push_back(false);
        watches_.add_literals(2);
        heap_index_.push_back(kNoHeapSlot);
        heap_insert(v);
    }
}

int Solver::push_clause(const std::vector<Lit>& c, bool learned) {
    clauses_.push_back({std::uint32_t(arena_.size()), std::uint32_t(c.size()), learned});
    arena_.insert(arena_.end(), c.begin(), c.end());
    return int(clauses_.size()) - 1;
}

void Solver::WatchLists::push(Lit l, int ci) {
    Span& s = spans_[l];
    if (s.size == s.cap) {
        const std::uint32_t start = std::uint32_t(pool_.size());
        s.cap = s.cap == 0 ? 4 : 2 * s.cap;
        pool_.resize(start + s.cap);
        std::copy_n(pool_.begin() + s.start, s.size, pool_.begin() + start);
        s.start = start;
    }
    pool_[s.start + s.size++] = ci;
}

void Solver::watch_clause(int ci) {
    const Lit* c = lits(ci);
    watches_.push(c[0], ci);
    watches_.push(c[1], ci);
}

void Solver::add_clause(std::vector<Lit> c) {
    // Normalize: sort, drop duplicates, skip tautologies.
    std::sort(c.begin(), c.end());
    c.erase(std::unique(c.begin(), c.end()), c.end());
    for (std::size_t i = 0; i + 1 < c.size(); ++i)
        if (c[i] == neg(c[i + 1])) return;  // l | ~l: always true
    for (const Lit l : c) ensure_vars(var_of(l) + 1);

    if (c.empty()) {
        unsat_ = true;
        empty_clause_ = true;
        return;
    }
    if (c.size() == 1) {
        // Root-level unit; a contradicting unit makes the formula UNSAT.
        if (value(c[0]) == kFalse)
            unsat_ = true;
        else if (value(c[0]) == kUndef)
            enqueue(c[0], kNoReason);
        num_problem_clauses_++;  // units count as problem clauses for replay
        push_clause(c, false);
        return;
    }
    watch_clause(push_clause(c, false));
    num_problem_clauses_++;
}

bool Solver::enqueue(Lit l, int reason) {
    if (value(l) == kFalse) return false;
    if (value(l) == kTrue) return true;
    const Var v = var_of(l);
    assign_[v] = sign_of(l) ? kFalse : kTrue;
    phase_[v] = assign_[v];
    level_[v] = std::uint32_t(decision_level());
    reason_[v] = reason;
    trail_.push_back(l);
    return true;
}

int Solver::propagate() {
    while (qhead_ < trail_.size()) {
        const Lit p = trail_[qhead_++];
        stats_.propagations++;
        const Lit false_lit = neg(p);
        // Compact the list in place: watchers [0, j) stay, in order.  A
        // moved watch goes to another literal's list (the new watch is not
        // false, false_lit is), so this list never grows while it is
        // walked.
        const std::size_t n = watches_.size(false_lit);
        std::size_t j = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const int ci = watches_.at(false_lit, i);
            Lit* c = lits(ci);
            if (c[0] == false_lit) std::swap(c[0], c[1]);
            // c[1] is the falsified watch now.
            if (value(c[0]) == kTrue) {
                watches_.at(false_lit, j++) = ci;
                continue;
            }
            bool moved = false;
            for (std::size_t k = 2; k < clauses_[ci].size; ++k) {
                if (value(c[k]) != kFalse) {
                    std::swap(c[1], c[k]);
                    watches_.push(c[1], ci);
                    moved = true;
                    break;
                }
            }
            if (moved) continue;
            watches_.at(false_lit, j++) = ci;
            if (value(c[0]) == kFalse) {
                // Conflict: keep the remaining watchers, stop.
                for (++i; i < n; ++i) watches_.at(false_lit, j++) = watches_.at(false_lit, i);
                watches_.truncate(false_lit, j);
                qhead_ = trail_.size();
                return ci;
            }
            enqueue(c[0], ci);
        }
        watches_.truncate(false_lit, j);
    }
    return kNoReason;
}

void Solver::analyze(int confl, std::vector<Lit>& learnt, std::size_t& bt_level) {
    learnt.clear();
    learnt.push_back(kLitUndef);  // slot for the asserting literal
    std::size_t path = 0;
    Lit p = kLitUndef;
    std::size_t index = trail_.size();

    do {
        const Lit* c = lits(confl);
        for (std::size_t j = (p == kLitUndef) ? 0 : 1; j < clauses_[confl].size; ++j) {
            const Lit q = c[j];
            const Var v = var_of(q);
            if (!seen_[v] && level_[v] > 0) {
                seen_[v] = true;
                var_bump(v);
                if (level_[v] >= decision_level())
                    path++;
                else
                    learnt.push_back(q);
            }
        }
        // Walk the trail back to the next marked literal of this level.
        while (!seen_[var_of(trail_[--index])]) {}
        p = trail_[index];
        confl = reason_[var_of(p)];
        seen_[var_of(p)] = false;
        path--;
    } while (path > 0);
    learnt[0] = neg(p);

    // Backtrack level: highest level among the non-asserting literals,
    // with that literal moved to slot 1 (the second watch).
    bt_level = 0;
    if (learnt.size() > 1) {
        std::size_t max_i = 1;
        for (std::size_t i = 2; i < learnt.size(); ++i)
            if (level_[var_of(learnt[i])] > level_[var_of(learnt[max_i])]) max_i = i;
        std::swap(learnt[1], learnt[max_i]);
        bt_level = level_[var_of(learnt[1])];
    }
    for (const Lit l : learnt) seen_[var_of(l)] = false;
}

void Solver::backtrack(std::size_t level) {
    if (decision_level() <= level) return;
    const std::size_t keep = trail_lim_[level];
    for (std::size_t i = trail_.size(); i > keep; --i) {
        const Var v = var_of(trail_[i - 1]);
        assign_[v] = kUndef;
        reason_[v] = kNoReason;
        if (heap_index_[v] == kNoHeapSlot) heap_insert(v);
    }
    trail_.resize(keep);
    trail_lim_.resize(level);
    qhead_ = keep;
}

// -- VSIDS heap --------------------------------------------------------------

void Solver::var_bump(Var v) {
    activity_[v] += var_inc_;
    if (activity_[v] > kRescaleLimit) {
        for (auto& a : activity_) a *= 1.0 / kRescaleLimit;
        var_inc_ *= 1.0 / kRescaleLimit;
    }
    if (heap_index_[v] != kNoHeapSlot) heap_sift_up(heap_index_[v]);
}

void Solver::heap_insert(Var v) {
    heap_index_[v] = heap_.size();
    heap_.push_back(v);
    heap_sift_up(heap_.size() - 1);
}

void Solver::heap_sift_up(std::size_t i) {
    const Var v = heap_[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (activity_[heap_[parent]] >= activity_[v]) break;
        heap_[i] = heap_[parent];
        heap_index_[heap_[i]] = i;
        i = parent;
    }
    heap_[i] = v;
    heap_index_[v] = i;
}

void Solver::heap_sift_down(std::size_t i) {
    const Var v = heap_[i];
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= heap_.size()) break;
        if (child + 1 < heap_.size() &&
            activity_[heap_[child + 1]] > activity_[heap_[child]])
            child++;
        if (activity_[v] >= activity_[heap_[child]]) break;
        heap_[i] = heap_[child];
        heap_index_[heap_[i]] = i;
        i = child;
    }
    heap_[i] = v;
    heap_index_[v] = i;
}

Var Solver::heap_pop() {
    const Var top = heap_[0];
    heap_index_[top] = kNoHeapSlot;
    heap_[0] = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
        heap_index_[heap_[0]] = 0;
        heap_sift_down(0);
    }
    return top;
}

Lit Solver::pick_branch() {
    while (!heap_.empty()) {
        const Var v = heap_pop();
        if (assign_[v] == kUndef)
            return mk_lit(v, phase_[v] != kTrue);  // saved-phase polarity
    }
    return kLitUndef;
}

// -- Search ------------------------------------------------------------------

SolveResult Solver::solve(const std::vector<Lit>& assumptions) {
    for (const Lit a : assumptions) ensure_vars(var_of(a) + 1);
    backtrack(0);
    last_assumptions_ = assumptions;
    if (unsat_) return SolveResult::kUnsat;

    std::uint64_t conflicts_here = 0, since_restart = 0, restart_round = 1;
    std::uint64_t restart_limit = 100 * luby(restart_round);
    std::vector<Lit> learnt;

    for (;;) {
        const int confl = propagate();
        if (confl != kNoReason) {
            stats_.conflicts++;
            conflicts_here++;
            since_restart++;
            if (decision_level() == 0) {
                // Unit propagation alone refutes the database: the trace's
                // final (empty-clause) step replays from the root units.
                unsat_ = true;
                return SolveResult::kUnsat;
            }
            std::size_t bt_level = 0;
            analyze(confl, learnt, bt_level);
            learned_trace_.push_back(learnt);
            stats_.learned_clauses++;
            stats_.learned_literals += learnt.size();
            backtrack(bt_level);
            if (learnt.size() == 1) {
                if (!enqueue(learnt[0], kNoReason)) {
                    unsat_ = true;
                    return SolveResult::kUnsat;
                }
                push_clause(learnt, true);
            } else {
                const int ci = push_clause(learnt, true);
                watch_clause(ci);
                enqueue(learnt[0], ci);
            }
            var_decay();
            continue;
        }

        if (max_conflicts_ != 0 && conflicts_here >= max_conflicts_)
            return SolveResult::kUnknown;
        if (since_restart >= restart_limit) {
            stats_.restarts++;
            since_restart = 0;
            restart_limit = 100 * luby(++restart_round);
            backtrack(0);
            continue;
        }

        // Assumption prefix, then VSIDS decisions.
        Lit next = kLitUndef;
        while (decision_level() < assumptions.size()) {
            const Lit a = assumptions[decision_level()];
            if (value(a) == kTrue) {
                new_decision_level();  // already implied: dummy level
            } else if (value(a) == kFalse) {
                // The database (under the earlier assumptions) refutes this
                // assumption; UNSAT under assumptions.
                return SolveResult::kUnsat;
            } else {
                next = a;
                break;
            }
        }
        if (next == kLitUndef) {
            next = pick_branch();
            if (next == kLitUndef) {
                for (Var v = 0; v < num_vars(); ++v)
                    model_[v] = assign_[v] == kTrue;
                return SolveResult::kSat;
            }
        }
        stats_.decisions++;
        new_decision_level();
        enqueue(next, kNoReason);
    }
}

// ---------------------------------------------------------------------------
// RUP replay of the UNSAT derivation
// ---------------------------------------------------------------------------

/// Propagation-only engine for replaying a derivation: two-watched-literal
/// propagation over an append-only clause set, with checkpoint/rollback of
/// the assignment trail for per-clause RUP checks.  Clauses live in one
/// arena like the solver's; every clause is loaded watching two literals
/// that are not false at the root, so propagation misses no unit and
/// invents none.
class Solver::RupChecker {
public:
    explicit RupChecker(Var vars) : assign_(vars, 0) { watches_.add_literals(2 * std::size_t(vars)); }

    /// Add a clause permanently.  Returns false when the database is
    /// refuted at the root.
    bool add(const Lit* lits, std::size_t n) {
        if (n == 0) return false;
        if (n == 1) return assume(lits[0]) && !propagate_to_conflict();
        const std::uint32_t offset = std::uint32_t(arena_.size());
        arena_.insert(arena_.end(), lits, lits + n);
        clauses_.push_back({offset, std::uint32_t(n), false});
        Lit* c = arena_.data() + offset;
        // Move up to two root-non-false literals to the watched slots.
        std::size_t live = 0;
        for (std::size_t k = 0; k < n && live < 2; ++k)
            if (value(c[k]) != -1) std::swap(c[live++], c[k]);
        if (live == 0) return false;  // every literal false: the empty clause
        const int ci = int(clauses_.size()) - 1;
        watches_.push(c[0], ci);
        watches_.push(c[1], ci);
        // One non-false literal: a root unit (or already satisfied).
        if (live == 1 && value(c[0]) == 0)
            return assume(c[0]) && !propagate_to_conflict();
        return true;
    }

    /// RUP check: does asserting the negation of `c` propagate to conflict
    /// over the clauses added so far?  Leaves the root state untouched.
    bool rup(const std::vector<Lit>& c) {
        const std::size_t mark = trail_.size();
        bool conflict = false;
        for (const Lit l : c) {
            if (value(l) == 1) {  // the clause is root-satisfied: ~l fails
                conflict = true;
                break;
            }
            if (!assume(neg(l))) {
                conflict = true;
                break;
            }
        }
        if (!conflict) conflict = propagate_to_conflict();
        rollback(mark);
        return conflict;
    }

    /// Final step: do the assumption units refute the database?
    bool refuted_under(const std::vector<Lit>& assumptions) {
        const std::size_t mark = trail_.size();
        bool conflict = false;
        for (const Lit a : assumptions) {
            if (!assume(a)) {
                conflict = true;
                break;
            }
        }
        if (!conflict) conflict = propagate_to_conflict();
        rollback(mark);
        return conflict;
    }

private:
    // value: 1 true, -1 false, 0 unassigned.
    int value(Lit l) const {
        const int v = assign_[var_of(l)];
        return sign_of(l) ? -v : v;
    }

    bool assume(Lit l) {
        if (value(l) == -1) return false;
        if (value(l) == 1) return true;
        assign_[var_of(l)] = sign_of(l) ? -1 : 1;
        trail_.push_back(l);
        return true;
    }

    bool propagate_to_conflict() {
        while (qhead_ < trail_.size()) {
            const Lit p = trail_[qhead_++];
            const Lit false_lit = neg(p);
            // In-place compaction, as in Solver::propagate.
            const std::size_t n = watches_.size(false_lit);
            std::size_t j = 0;
            for (std::size_t i = 0; i < n; ++i) {
                const int ci = watches_.at(false_lit, i);
                Lit* c = arena_.data() + clauses_[ci].offset;
                if (c[0] == false_lit) std::swap(c[0], c[1]);
                if (value(c[0]) == 1) {
                    watches_.at(false_lit, j++) = ci;
                    continue;
                }
                bool moved = false;
                for (std::size_t k = 2; k < clauses_[ci].size; ++k) {
                    if (value(c[k]) != -1) {
                        std::swap(c[1], c[k]);
                        watches_.push(c[1], ci);
                        moved = true;
                        break;
                    }
                }
                if (moved) continue;
                watches_.at(false_lit, j++) = ci;
                if (value(c[0]) == -1) {
                    for (++i; i < n; ++i)
                        watches_.at(false_lit, j++) = watches_.at(false_lit, i);
                    watches_.truncate(false_lit, j);
                    qhead_ = trail_.size();
                    return true;
                }
                assume(c[0]);
            }
            watches_.truncate(false_lit, j);
        }
        return false;
    }

    void rollback(std::size_t mark) {
        while (trail_.size() > mark) {
            assign_[var_of(trail_.back())] = 0;
            trail_.pop_back();
        }
        qhead_ = mark;
    }

    std::vector<std::int8_t> assign_;
    WatchLists watches_;
    std::vector<Lit> arena_;
    std::vector<ClauseRef> clauses_;
    std::vector<Lit> trail_;
    std::size_t qhead_ = 0;
};

bool Solver::verify_unsat() const {
    // An explicit empty clause in the input IS the refutation.
    if (empty_clause_) return true;
    RupChecker checker{Var(num_vars())};
    // Original problem clauses (including units), in input order.
    std::size_t seen_problem = 0;
    for (std::size_t ci = 0; ci < clauses_.size() && seen_problem < num_problem_clauses_;
         ++ci) {
        if (clauses_[ci].learned) continue;
        ++seen_problem;
        if (!checker.add(lits(int(ci)), clauses_[ci].size))
            // The problem clauses alone are root-refuted (e.g. contradicting
            // units): the empty clause is already derived.
            return true;
    }
    // Each learned clause must be RUP over the verified prefix.
    for (const auto& learnt : learned_trace_) {
        if (!checker.rup(learnt)) return false;
        if (!checker.add(learnt.data(), learnt.size())) return true;  // root-refuted
    }
    // Final step: database (+ assumption units) propagates to conflict.
    return checker.refuted_under(last_assumptions_);
}

bool model_satisfies(const Cnf& cnf, const Solver& solver) {
    for (const auto& c : cnf.clauses) {
        bool sat = false;
        for (const Lit l : c)
            if (solver.model_lit(l)) {
                sat = true;
                break;
            }
        if (!sat) return false;
    }
    return true;
}

}  // namespace matador::sat
