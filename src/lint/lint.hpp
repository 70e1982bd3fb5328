// Netlist static analysis: the level-0 rung of the verify ladder.
//
// The random-simulation ladder (verification.hpp levels 1-2 and the
// system-level streaming check) can only refute what its sampled vectors
// exercise.  The lint pass makes *structural* guarantees before any vector
// runs: no combinational cycles, no undriven or multiply-driven nets, no
// width mismatches, no dead or constant logic, and - via ternary 0/1/X
// simulation (ternary.hpp) - no HCB output that can observe a feature bit
// its clause never included.
//
// Findings carry a stable check id (check::k*), a severity, and a source
// location, aggregate into a LintReport with structural stats, and
// serialize through util::Json.  The pipeline runs lint_design between
// generate and verify, caches the report in the ArtifactStore under the
// same backend hash as the netlists, and fails the verify stage on any
// error-severity finding; `matador lint` exposes the same pass on the
// command line with a configurable --fail-on threshold.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "lint/aig_lint.hpp"
#include "lint/lut_lint.hpp"
#include "lint/module_lint.hpp"
#include "model/trained_model.hpp"
#include "rtl/generators.hpp"
#include "util/json.hpp"

namespace matador::train {
class WorkerPool;
}

namespace matador::lint {

/// Version of the lint subsystem's semantics (checks + ternary pass).
/// Folded into the lint cache key so checker changes invalidate cached
/// verdicts; bump on any change that could alter a finding or stat.
/// 2: module lint no longer reads the HCB comb modules (they are text
/// written from the AIGs, which AIG lint and the X pass cover), so the
/// module stats count only the modules built as trees.
inline constexpr unsigned kLintSubsystemVersion = 2;

/// Random 64-lane ternary sweeps per HCB output when the cared cube is too
/// large to exhaust (see check_x_insensitive), and the seed of HCB 0's
/// sweeps; HCB i's is kTernarySeed + i * 1315423911.
inline constexpr std::size_t kTernaryRounds = 2;
inline constexpr std::uint64_t kTernarySeed = 0x11d5;

/// Aggregated structural statistics over everything a lint run analyzed.
struct LintStats {
    ModuleLintStats modules;
    AigLintStats aig;
    LutLintStats luts;
    /// Ternary X-insensitivity pass (HCB outputs).
    std::size_t x_outputs_checked = 0;
    std::size_t x_proved_structural = 0;
    std::size_t x_proved_exhaustive = 0;
    std::size_t x_lanes_simulated = 0;
};

/// A full lint run: findings plus the stats of what was analyzed.
struct LintReport {
    std::vector<Finding> findings;
    LintStats stats;

    std::size_t count(Severity s) const;
    std::size_t errors() const { return count(Severity::kError); }
    std::size_t warnings() const { return count(Severity::kWarning); }
    /// True when no finding is at or above `fail_on`.
    bool clean(Severity fail_on = Severity::kError) const;
    /// One-line summary ("2 errors, 1 warning, 3 info") for stage records.
    std::string summary() const;
};

/// Lint a complete generated design: every module the generators build as
/// a tree (all but the hcb_<k>_comb modules), every HCB AIG, the mapped
/// LUT networks of strashed designs and - when `m` is given - the ternary
/// X-insensitivity proof of every HCB output against its clause's include
/// mask.  The comb modules are text written from the AIGs, so AIG lint and
/// the X pass cover their logic; their shells (rtl::hcb_comb_shell) stay in
/// the module scope, so each u_comb connection is checked against real
/// ports.  Deterministic for a given design.
///
/// The work is one job per linted module (against the whole design as
/// scope) and one per HCB (AIG lint, LUT mapping and LUT lint, the X
/// pass), each writing its own partial report.  With `pool` the jobs fan
/// out over its workers (train::run_jobs); without one they run inline.
/// The partial reports merge in job order - modules first, then HCBs -
/// with stats summed and the depth and fanout maxima taken, so the report
/// is the same with any pool or none.
LintReport lint_design(const rtl::RtlDesign& design,
                       const model::TrainedModel* m,
                       train::WorkerPool* pool = nullptr);

// -- serialization / formatting ---------------------------------------------

/// JSON form: {"format": "matador-lint-report", "version": 1, findings: [
/// {check, severity, where, object, message}], stats: {...}}.  Exact
/// round-trip through lint_report_from_json.
util::Json lint_report_to_json(const LintReport& r);
/// Strict parse; throws std::runtime_error on malformed or future-version
/// documents.
LintReport lint_report_from_json(const util::Json& j);

/// Human-readable report: one "severity [check] where: message" line per
/// finding plus the stats block and the summary line.
std::string format_lint_report(const LintReport& r);

}  // namespace matador::lint
