#include "lint/lint.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "lint/ternary.hpp"
#include "logic/lut_mapper.hpp"
#include "obs/trace.hpp"
#include "train/worker_pool.hpp"

namespace matador::lint {

const char* severity_name(Severity s) {
    switch (s) {
        case Severity::kInfo: return "info";
        case Severity::kWarning: return "warning";
        case Severity::kError: return "error";
    }
    return "?";
}

std::optional<Severity> severity_from_name(const std::string& name) {
    if (name == "info") return Severity::kInfo;
    if (name == "warning") return Severity::kWarning;
    if (name == "error") return Severity::kError;
    return std::nullopt;
}

std::size_t LintReport::count(Severity s) const {
    return std::size_t(std::count_if(
        findings.begin(), findings.end(),
        [s](const Finding& f) { return f.severity == s; }));
}

bool LintReport::clean(Severity fail_on) const {
    return std::none_of(findings.begin(), findings.end(), [&](const Finding& f) {
        return int(f.severity) >= int(fail_on);
    });
}

std::string LintReport::summary() const {
    const auto part = [](std::size_t n, const char* noun) {
        return std::to_string(n) + " " + noun + (n == 1 ? "" : "s");
    };
    return part(errors(), "error") + ", " + part(warnings(), "warning") +
           ", " + std::to_string(count(Severity::kInfo)) + " info";
}

namespace {

void lint_hcb_x_sensitivity(const rtl::HcbNetlist& hcb, std::size_t index,
                            const model::TrainedModel& m, LintReport& report) {
    const std::string where = "hcb " + std::to_string(index) + " aig";
    const auto& spec = hcb.spec;
    const std::size_t packet_bits = spec.hi - spec.lo;
    // Care mask of one output: the packet bits its clause includes plus its
    // own chain input.  Everything else is a don't-care the output must
    // provably ignore.  One mask serves every output: the packet bits are
    // rewritten per output and the chain bit is cleared after it.  Chain
    // PIs follow the packet bits, one per chained active clause in order.
    std::vector<bool> care(hcb.aig.num_pis(), false);
    std::size_t chain_pi = packet_bits;
    for (std::size_t out = 0; out < hcb.aig.num_pos(); ++out) {
        const std::uint32_t cid = spec.active_clauses[out];
        const auto& clause = m.clause(cid / m.clauses_per_class(),
                                      cid % m.clauses_per_class());
        for (std::size_t f = spec.lo; f < spec.hi; ++f)
            care[f - spec.lo] = clause.include_pos.get(f) || clause.include_neg.get(f);
        const bool chained = spec.has_chain_input[out] && chain_pi < care.size();
        if (chained) care[chain_pi] = true;
        const auto r = check_x_insensitive(hcb.aig, out, care, kTernaryRounds,
                                           kTernarySeed + index * 1315423911u);
        if (chained) care[chain_pi] = false;
        if (spec.has_chain_input[out]) ++chain_pi;
        report.stats.x_outputs_checked += 1;
        report.stats.x_lanes_simulated += r.lanes_checked;
        if (r.proved_structural) report.stats.x_proved_structural += 1;
        if (r.proved_exhaustive) report.stats.x_proved_exhaustive += 1;
        if (r.proved()) continue;  // a proof never has X lanes
        const std::string object =
            "po " + std::to_string(out) + " (clause " + std::to_string(cid) + ")";
        if (r.failed()) {
            report.findings.push_back(
                {check::kXSensitive, Severity::kError, where, object,
                 "output observed a don't-care input in " +
                     std::to_string(r.x_lanes) + " of " +
                     std::to_string(r.lanes_checked) + " ternary lanes"});
        } else {
            // Structural leak but no X surfaced: either a false alarm of
            // the pessimistic abstraction or an unexercised path - worth a
            // warning, not a failure.
            report.findings.push_back(
                {check::kXSensitive, Severity::kWarning, where, object,
                 "cone reaches a don't-care input; " +
                     std::to_string(r.lanes_checked) +
                     " sampled ternary lanes stayed definite but the check "
                     "is not a proof"});
        }
    }
}

/// Everything lint checks on one HCB: its AIG, its LUT mapping and, with
/// a model, the X pass over its outputs.  Like the generate stage, it maps
/// only strashed AIGs: under DON'T_TOUCH every AND is its own LUT.
void lint_hcb(const rtl::HcbNetlist& hcb, std::size_t index,
              const model::TrainedModel* m, LintReport& report) {
    lint_aig(hcb.aig, "hcb " + std::to_string(index) + " aig", report.findings,
             &report.stats.aig);
    if (hcb.aig.strash_enabled()) {
        const auto mapped = logic::map_to_luts(hcb.aig);
        lint_lut_network(mapped.network, "hcb " + std::to_string(index) + " luts",
                         report.findings, &report.stats.luts);
    }
    if (m) lint_hcb_x_sensitivity(hcb, index, *m, report);
}

/// Fold one job's stats into the report's: counts add, maxima take the max.
void merge_stats(LintStats& into, const LintStats& s) {
    auto& mod = into.modules;
    mod.modules += s.modules.modules;
    mod.ports += s.modules.ports;
    mod.nets += s.modules.nets;
    mod.assigns += s.modules.assigns;
    mod.always_blocks += s.modules.always_blocks;
    mod.instances += s.modules.instances;
    auto& aig = into.aig;
    aig.aigs += s.aig.aigs;
    aig.pis += s.aig.pis;
    aig.pos += s.aig.pos;
    aig.ands += s.aig.ands;
    aig.dead_ands += s.aig.dead_ands;
    aig.unused_pis += s.aig.unused_pis;
    aig.max_depth = std::max(aig.max_depth, s.aig.max_depth);
    aig.max_fanout = std::max(aig.max_fanout, s.aig.max_fanout);
    auto& luts = into.luts;
    luts.networks += s.luts.networks;
    luts.luts += s.luts.luts;
    luts.dead_luts += s.luts.dead_luts;
    luts.const_luts += s.luts.const_luts;
    luts.duplicate_luts += s.luts.duplicate_luts;
    luts.max_depth = std::max(luts.max_depth, s.luts.max_depth);
    luts.max_fanout = std::max(luts.max_fanout, s.luts.max_fanout);
    into.x_outputs_checked += s.x_outputs_checked;
    into.x_proved_structural += s.x_proved_structural;
    into.x_proved_exhaustive += s.x_proved_exhaustive;
    into.x_lanes_simulated += s.x_lanes_simulated;
}

}  // namespace

LintReport lint_design(const rtl::RtlDesign& design,
                       const model::TrainedModel* m, train::WorkerPool* pool) {
    // The modules lint reads: every one the generators build as a tree.
    std::vector<const rtl::Module*> linted;
    for (const auto& mod : design.hcb_seq) linted.push_back(&mod);
    for (const auto* mod : {&design.class_sum, &design.argmax, &design.controller, &design.top})
        linted.push_back(mod);
    // Their scope adds the comb modules' shells, so every instance
    // connection resolves to a real port declaration.
    std::vector<rtl::Module> shells;
    for (std::size_t k = 0; k < design.hcbs.size(); ++k)
        shells.push_back(rtl::hcb_comb_shell(design.hcbs[k], k));
    std::vector<const rtl::Module*> scope = linted;
    for (const auto& shell : shells) scope.push_back(&shell);

    // Jobs 0..modules-1 lint one module each, the rest one HCB each; every
    // job fills its own partial report.
    const std::size_t modules = linted.size();
    std::vector<LintReport> parts(modules + design.hcbs.size());
    train::run_jobs(pool, parts.size(), [&](std::size_t j) {
        LintReport& part = parts[j];
        if (j < modules) {
            TRACE_SPAN("module-lint", "lint");
            lint_module(*linted[j], scope, part.findings, &part.stats.modules);
            return;
        }
        const std::size_t i = j - modules;
        obs::SpanGuard span("hcb-lint", "lint");
        if (obs::TraceRecorder::instance().enabled()) {
            util::Json args = util::Json::object();
            args.set("hcb", double(i));
            span.set_args(std::move(args));
        }
        lint_hcb(design.hcbs[i], i, m, part);
    });

    LintReport report;
    for (auto& part : parts) {
        report.findings.insert(report.findings.end(),
                               std::make_move_iterator(part.findings.begin()),
                               std::make_move_iterator(part.findings.end()));
        merge_stats(report.stats, part.stats);
    }
    return report;
}

// -- serialization -----------------------------------------------------------

namespace {
constexpr const char* kFormat = "matador-lint-report";
constexpr int kVersion = 1;

util::Json num(std::size_t v) { return util::Json(double(v)); }
}  // namespace

util::Json lint_report_to_json(const LintReport& r) {
    util::Json j = util::Json::object();
    j.set("format", kFormat);
    j.set("version", double(kVersion));
    util::Json findings = util::Json::array();
    for (const auto& f : r.findings) {
        util::Json fj = util::Json::object();
        fj.set("check", f.check);
        fj.set("severity", severity_name(f.severity));
        fj.set("where", f.where);
        fj.set("object", f.object);
        fj.set("message", f.message);
        findings.push_back(std::move(fj));
    }
    j.set("findings", std::move(findings));

    util::Json stats = util::Json::object();
    util::Json modules = util::Json::object();
    modules.set("modules", num(r.stats.modules.modules));
    modules.set("ports", num(r.stats.modules.ports));
    modules.set("nets", num(r.stats.modules.nets));
    modules.set("assigns", num(r.stats.modules.assigns));
    modules.set("always_blocks", num(r.stats.modules.always_blocks));
    modules.set("instances", num(r.stats.modules.instances));
    stats.set("modules", std::move(modules));

    util::Json aig = util::Json::object();
    aig.set("aigs", num(r.stats.aig.aigs));
    aig.set("pis", num(r.stats.aig.pis));
    aig.set("pos", num(r.stats.aig.pos));
    aig.set("ands", num(r.stats.aig.ands));
    aig.set("dead_ands", num(r.stats.aig.dead_ands));
    aig.set("unused_pis", num(r.stats.aig.unused_pis));
    aig.set("max_depth", num(r.stats.aig.max_depth));
    aig.set("max_fanout", num(r.stats.aig.max_fanout));
    stats.set("aig", std::move(aig));

    util::Json luts = util::Json::object();
    luts.set("networks", num(r.stats.luts.networks));
    luts.set("luts", num(r.stats.luts.luts));
    luts.set("dead_luts", num(r.stats.luts.dead_luts));
    luts.set("const_luts", num(r.stats.luts.const_luts));
    luts.set("duplicate_luts", num(r.stats.luts.duplicate_luts));
    luts.set("max_depth", num(r.stats.luts.max_depth));
    luts.set("max_fanout", num(r.stats.luts.max_fanout));
    stats.set("luts", std::move(luts));

    util::Json ternary = util::Json::object();
    ternary.set("outputs_checked", num(r.stats.x_outputs_checked));
    ternary.set("proved_structural", num(r.stats.x_proved_structural));
    ternary.set("proved_exhaustive", num(r.stats.x_proved_exhaustive));
    ternary.set("lanes_simulated", num(r.stats.x_lanes_simulated));
    stats.set("ternary", std::move(ternary));

    j.set("stats", std::move(stats));
    return j;
}

LintReport lint_report_from_json(const util::Json& j) {
    if (!j.is_object() || !j.contains("format") ||
        j.at("format").as_string() != kFormat)
        throw std::runtime_error("lint report: unrecognized format");
    const std::size_t version = j.at("version").as_count();
    if (version != kVersion)
        throw std::runtime_error("lint report: unsupported version " +
                                 std::to_string(version));
    LintReport r;
    for (const auto& fj : j.at("findings").as_array()) {
        Finding f;
        f.check = fj.at("check").as_string();
        const auto sev = severity_from_name(fj.at("severity").as_string());
        if (!sev)
            throw std::runtime_error("lint report: unknown severity '" +
                                     fj.at("severity").as_string() + "'");
        f.severity = *sev;
        f.where = fj.at("where").as_string();
        f.object = fj.at("object").as_string();
        f.message = fj.at("message").as_string();
        r.findings.push_back(std::move(f));
    }
    const auto& stats = j.at("stats");
    const auto& modules = stats.at("modules");
    r.stats.modules.modules = modules.at("modules").as_count();
    r.stats.modules.ports = modules.at("ports").as_count();
    r.stats.modules.nets = modules.at("nets").as_count();
    r.stats.modules.assigns = modules.at("assigns").as_count();
    r.stats.modules.always_blocks = modules.at("always_blocks").as_count();
    r.stats.modules.instances = modules.at("instances").as_count();
    const auto& aig = stats.at("aig");
    r.stats.aig.aigs = aig.at("aigs").as_count();
    r.stats.aig.pis = aig.at("pis").as_count();
    r.stats.aig.pos = aig.at("pos").as_count();
    r.stats.aig.ands = aig.at("ands").as_count();
    r.stats.aig.dead_ands = aig.at("dead_ands").as_count();
    r.stats.aig.unused_pis = aig.at("unused_pis").as_count();
    r.stats.aig.max_depth = aig.at("max_depth").as_count();
    r.stats.aig.max_fanout = aig.at("max_fanout").as_count();
    const auto& luts = stats.at("luts");
    r.stats.luts.networks = luts.at("networks").as_count();
    r.stats.luts.luts = luts.at("luts").as_count();
    r.stats.luts.dead_luts = luts.at("dead_luts").as_count();
    r.stats.luts.const_luts = luts.at("const_luts").as_count();
    r.stats.luts.duplicate_luts = luts.at("duplicate_luts").as_count();
    r.stats.luts.max_depth = luts.at("max_depth").as_count();
    r.stats.luts.max_fanout = luts.at("max_fanout").as_count();
    const auto& ternary = stats.at("ternary");
    r.stats.x_outputs_checked = ternary.at("outputs_checked").as_count();
    r.stats.x_proved_structural = ternary.at("proved_structural").as_count();
    r.stats.x_proved_exhaustive = ternary.at("proved_exhaustive").as_count();
    r.stats.x_lanes_simulated = ternary.at("lanes_simulated").as_count();
    return r;
}

std::string format_lint_report(const LintReport& r) {
    std::string out;
    for (const auto& f : r.findings) {
        out += severity_name(f.severity);
        out += " [" + f.check + "] " + f.where;
        if (!f.object.empty()) out += " / " + f.object;
        out += ": " + f.message + "\n";
    }
    const auto& s = r.stats;
    out += "analyzed: " + std::to_string(s.modules.modules) + " modules (" +
           std::to_string(s.modules.nets) + " nets, " +
           std::to_string(s.modules.assigns) + " assigns, " +
           std::to_string(s.modules.instances) + " instances), " +
           std::to_string(s.aig.aigs) + " AIGs (" +
           std::to_string(s.aig.ands) + " ANDs, depth " +
           std::to_string(s.aig.max_depth) + ", max fanout " +
           std::to_string(s.aig.max_fanout) + "), " +
           std::to_string(s.luts.networks) + " LUT networks (" +
           std::to_string(s.luts.luts) + " LUTs, depth " +
           std::to_string(s.luts.max_depth) + ")\n";
    if (s.x_outputs_checked > 0)
        out += "ternary: " + std::to_string(s.x_outputs_checked) +
               " outputs checked, " +
               std::to_string(s.x_proved_structural) + " proved structurally, " +
               std::to_string(s.x_proved_exhaustive) + " proved exhaustively, " +
               std::to_string(s.x_lanes_simulated) + " lanes simulated\n";
    out += "lint: " + r.summary() + "\n";
    return out;
}

}  // namespace matador::lint
