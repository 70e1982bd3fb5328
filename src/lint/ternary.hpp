// Ternary (0/1/X) abstract simulation over the logic IRs.
//
// Each signal carries one of {0, 1, X} per lane, 64 lanes per word: a lane
// is X when its `unknown` bit is set, otherwise its `value` bit holds the
// definite 0/1.  X models "don't-know / don't-care"; the abstraction is
// sound (a definite output is correct for every completion of the X
// inputs) but pessimistic (an X output may still be insensitive in the
// concrete domain).  This is the voiraig-style X-valued simulation the
// ROADMAP's formal-verification tier starts from: the lint pass uses it to
// prove that an HCB output cannot observe the feature bits its clause
// never included.
#pragma once

#include <cstdint>
#include <vector>

#include "logic/aig.hpp"
#include "logic/lut_network.hpp"

namespace matador::lint {

/// 64 ternary lanes.  Invariant: value & unknown == 0 (an X lane carries
/// value 0), so equal words mean equal ternary vectors.
struct TernaryWord {
    std::uint64_t value = 0;
    std::uint64_t unknown = 0;

    bool operator==(const TernaryWord&) const = default;
};

/// All 64 lanes X.
inline TernaryWord ternary_x() { return {0, ~std::uint64_t(0)}; }
/// All 64 lanes the definite bit pattern `v`.
inline TernaryWord ternary_const(std::uint64_t v) { return {v, 0}; }

/// NOT: X stays X, definite lanes flip.
inline TernaryWord ternary_not(TernaryWord a) {
    return {~a.value & ~a.unknown, a.unknown};
}

/// AND: a definite 0 on either side forces 0 (X-masking); otherwise any X
/// operand makes the result X.
inline TernaryWord ternary_and(TernaryWord a, TernaryWord b) {
    const std::uint64_t def0 =
        (~a.value & ~a.unknown) | (~b.value & ~b.unknown);
    TernaryWord r;
    r.unknown = (a.unknown | b.unknown) & ~def0;
    r.value = a.value & b.value;
    return r;
}

/// Evaluate the AIG for 64 parallel ternary input assignments
/// (`pi_values[i]` holds the lanes of PI i); returns one word per PO.
std::vector<TernaryWord> ternary_simulate(
    const logic::Aig& aig, const std::vector<TernaryWord>& pi_values);

/// Evaluate a mapped LUT network on ternary inputs.  A LUT output lane is
/// definite when every completion of its X inputs lands on the same truth
/// bit (full X-masking through the truth table, not just per-gate).
std::vector<TernaryWord> ternary_evaluate(
    const logic::LutNetwork& net, const std::vector<TernaryWord>& pi_values);

/// Structural support of one PO: pi_in_cone[i] is true when PI i is
/// reachable backward from the PO's cone.
std::vector<bool> po_support(const logic::Aig& aig, std::size_t po);

/// Verdict of the X-insensitivity check for one PO.
struct XCheckResult {
    /// No don't-care PI appears in the PO's structural cone - a complete
    /// proof of insensitivity (the strongest verdict).
    bool proved_structural = false;
    /// Every cared-input assignment was ternary-simulated (2^cared small
    /// enough) with X on the don't-cares, and the PO stayed definite.
    bool proved_exhaustive = false;
    /// Lanes simulated and lanes where the PO evaluated to X.  Any X lane
    /// is a hard failure: the output observed a don't-care input.
    std::size_t lanes_checked = 0;
    std::size_t x_lanes = 0;

    bool proved() const { return proved_structural || proved_exhaustive; }
    bool failed() const { return x_lanes != 0; }
};

/// Prove (or refute) that PO `po` is insensitive to every PI whose
/// `care[i]` is false.  Don't-care PIs are held at X; cared PIs sweep
/// exhaustively when 2^|care| <= 4096, otherwise `random_rounds` 64-lane
/// random sweeps seeded by `seed` (at 0 rounds the cone walk's structural
/// verdict is the whole answer).  Each sweep simulates only the PO's
/// cone; the verdict equals one computed with ternary_simulate over the
/// whole AIG.  A cone the walk proves (no don't-care PI in it) cannot put
/// X on any lane, so it returns without sweeping, with the lanes the
/// sweeps would have checked (2^cared, or 64 x `random_rounds`).
XCheckResult check_x_insensitive(const logic::Aig& aig, std::size_t po,
                                 const std::vector<bool>& care,
                                 std::size_t random_rounds, std::uint64_t seed);

}  // namespace matador::lint
