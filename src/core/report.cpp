#include "core/report.hpp"

#include <sstream>

#include "util/string_utils.hpp"

namespace matador::core {

using util::format_double;
using util::with_commas;

TableRow to_table_row(const FlowResult& r, const std::string& name) {
    TableRow row;
    row.model_name = name;
    row.luts = r.resources.luts;
    row.registers = r.resources.registers;
    row.f7_mux = r.resources.f7_mux;
    row.f8_mux = r.resources.f8_mux;
    row.slices = r.resources.slices;
    row.lut_logic = r.resources.lut_logic;
    row.lut_mem = r.resources.lut_mem;
    row.bram36 = r.resources.bram36;
    row.accuracy_pct = r.test_accuracy * 100.0;
    row.total_power_w = r.power.total_w;
    row.dynamic_power_w = r.power.dynamic_w;
    row.latency_us = r.latency_us;
    row.throughput_inf_s = r.throughput_inf_per_s;
    return row;
}

std::string format_table(
    const std::vector<std::pair<std::string, std::vector<TableRow>>>& groups) {
    std::ostringstream os;
    auto line = [&] {
        os << std::string(132, '-') << "\n";
    };
    line();
    os << "Model        LUTs    SliceReg  F7   F8   Slice   LUTlogic LUTmem  "
          "BRAM   Acc(%)  TotPwr(W) DynPwr(W) Lat(us)  Thrpt(inf/s)\n";
    line();
    for (const auto& [dataset, rows] : groups) {
        os << dataset << "\n";
        for (const auto& r : rows) {
            char buf[256];
            std::snprintf(buf, sizeof buf,
                          "%-11s %7zu %9zu %4zu %4zu %7zu %8zu %7zu %6.1f %7.2f "
                          "%9.3f %9.3f %8.3f %13s\n",
                          r.model_name.c_str(), r.luts, r.registers, r.f7_mux,
                          r.f8_mux, r.slices, r.lut_logic, r.lut_mem, r.bram36,
                          r.accuracy_pct, r.total_power_w, r.dynamic_power_w,
                          r.latency_us,
                          with_commas((long long)(r.throughput_inf_s)).c_str());
            os << buf;
        }
        line();
    }
    return os.str();
}

std::string format_flow_summary(const FlowResult& r, const std::string& title) {
    std::ostringstream os;
    os << "=== MATADOR flow summary: " << title << " ===\n";
    os << "model: " << r.arch.input_bits << " input bits, " << r.arch.num_classes
       << " classes, " << r.arch.clauses_per_class << " clauses/class\n";
    // An imported model has no train set and no train report.
    os << "accuracy: train "
       << (r.train_stop_reason.empty() ? "n/a (imported)"
                                       : format_double(r.train_accuracy * 100, 2) + "%")
       << "  test " << format_double(r.test_accuracy * 100, 2) << "%\n";
    os << "sparsity: include density " << format_double(r.sparsity.include_density * 100, 3)
       << "%  (" << r.sparsity.total_includes << " includes, "
       << r.sparsity.empty_clauses << " empty clauses of " << r.sparsity.total_clauses
       << ")\n";
    os << "sharing: mean partial-clause sharing ratio "
       << format_double(r.sharing.mean_sharing_ratio * 100, 1) << "%, "
       << r.sharing.duplicate_full_clauses << " duplicate full clauses\n";
    os << "architecture: " << r.arch.plan.num_packets() << " packets x "
       << r.arch.options.bus_width << "b bus, class-sum stages "
       << r.arch.class_sum_stages << ", argmax stages " << r.arch.argmax_stages
       << "\n";
    os << "timing: est. critical path " << format_double(r.timing.critical_path_ns, 2)
       << " ns (fanout " << r.max_feature_fanout << ", depth " << r.hcb_max_depth
       << "), clock " << format_double(r.arch.options.clock_mhz, 1) << " MHz\n";
    os << "resources: " << r.resources.luts << " LUTs (" << r.resources.lut_logic
       << " logic / " << r.resources.lut_mem << " mem), " << r.resources.registers
       << " registers, BRAM " << format_double(r.resources.bram36, 1) << "\n";
    os << "power: total " << format_double(r.power.total_w, 3) << " W, dynamic "
       << format_double(r.power.dynamic_w, 3) << " W (fabric "
       << format_double(r.power.fabric_dynamic_w, 3) << " W)\n";
    os << "performance: latency " << r.arch.latency_cycles() << " cycles = "
       << format_double(r.latency_us, 3) << " us, II "
       << r.arch.initiation_interval() << " cycles, throughput "
       << with_commas((long long)(r.throughput_inf_per_s)) << " inf/s\n";
    os << "verification: expressions " << (r.verification.expressions_match_model ? "OK" : "FAIL")
       << ", HCB netlists " << (r.verification.hcb_aigs_match_expressions ? "OK" : "FAIL")
       << ", RTL cosim " << (r.verification.rtl_matches_aigs ? "OK" : "FAIL")
       << ", system (cycle-accurate) " << (r.system_verified ? "OK" : "FAIL") << "\n";
    if (!r.verification.first_failure.empty())
        os << "first failure: " << r.verification.first_failure << "\n";
    if (!r.rtl_files.empty())
        os << "RTL: " << r.rtl_files.size() << " files written\n";
    return os.str();
}

}  // namespace matador::core
