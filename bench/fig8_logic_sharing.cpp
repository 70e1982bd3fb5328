// Fig. 8 reproduction: per-HCB logic-sharing benefit on an MNIST model.
//
// The paper passes the MNIST HCBs through synthesis twice - once normally
// (LUT-opt / SR-opt) and once with DON'T_TOUCH pragmas that forbid
// optimization (LUT-dt / SR-dt) - to show how much the shared clause
// logic saves.  Here the same experiment runs through this repository's
// synthesis substitute: each HCB's clause cones are built as an AIG with
// structural hashing on (sharing) or off (DON'T_TOUCH) and mapped to
// 6-LUTs; the table prints both counts per HCB plus the Clause Out
// register count (registers are unaffected by logic sharing).
//
//   ./fig8_logic_sharing [clauses_per_class=200] [scale=2]
#include <cstdio>

#include "data/synthetic.hpp"
#include "logic/lut_mapper.hpp"
#include "model/architecture.hpp"
#include "rtl/hcb_builder.hpp"
#include "tm/tsetlin_machine.hpp"
#include "train/parallel_trainer.hpp"

int main(int argc, char** argv) {
    using namespace matador;
    const std::size_t cpc = argc > 1 ? std::size_t(std::atoi(argv[1])) : 200;
    const std::size_t scale = argc > 2 ? std::size_t(std::atoi(argv[2])) : 2;

    std::puts("=== Fig. 8: LUT counts per HCB, optimized vs DON'T_TOUCH ===\n");
    std::printf("training MNIST-like TM (%zu clauses/class)...\n\n", cpc);

    const auto ds = data::make_mnist_like(std::max<std::size_t>(50, 250 / scale), 11);
    tm::TmConfig cfg;
    cfg.clauses_per_class = cpc;
    cfg.threshold = 25;
    cfg.specificity = 5.0;
    cfg.seed = 42;
    tm::TsetlinMachine machine(cfg, ds.num_features, ds.num_classes);
    train::ParallelTrainer({.epochs = 5}).fit(machine, ds);
    const auto m = machine.export_model();

    const model::PacketPlan plan(m.num_features(), 64);
    const auto opt_hcbs = rtl::build_hcbs(m, plan, /*strash=*/true);
    const auto dt_hcbs = rtl::build_hcbs(m, plan, /*strash=*/false);

    // LUT-opt: strashed AIG through the 6-LUT mapper (normal synthesis).
    // LUT-dt : DON'T_TOUCH semantics - no sharing, no repacking; every AND
    //          gate of the clause logic instantiates as its own LUT.
    std::printf("%-6s %-10s %-10s %-9s %-10s %-10s %-8s\n", "HCB", "LUT-opt",
                "LUT-dt", "saving", "AND-opt", "AND-dt", "SR");
    std::puts(std::string(68, '-').c_str());

    std::size_t tot_opt = 0, tot_dt = 0, tot_sr = 0;
    for (std::size_t k = 0; k < opt_hcbs.size(); ++k) {
        const auto opt = logic::map_to_luts(opt_hcbs[k].aig);
        const std::size_t dt_luts = dt_hcbs[k].aig.count_reachable_ands();
        const std::size_t sr = opt_hcbs[k].spec.active_clauses.size();
        tot_opt += opt.lut_count;
        tot_dt += dt_luts;
        tot_sr += sr;
        const double saving =
            dt_luts == 0 ? 0.0
                         : 100.0 * (1.0 - double(opt.lut_count) / double(dt_luts));
        std::printf("%-6zu %-10zu %-10zu %7.1f%%  %-10zu %-10zu %-8zu\n", k,
                    opt.lut_count, dt_luts,
                    saving, opt_hcbs[k].aig.count_reachable_ands(), dt_luts, sr);
    }
    std::puts(std::string(68, '-').c_str());
    std::printf("%-6s %-10zu %-10zu %7.1f%%  %-10s %-10s %-8zu\n", "total",
                tot_opt, tot_dt,
                100.0 * (1.0 - double(tot_opt) / double(std::max<std::size_t>(1, tot_dt))),
                "", "", tot_sr);

    std::puts(
        "\nExpected shape (paper Fig. 8): every HCB's optimized LUT count sits\n"
        "well below its DON'T_TOUCH count - shared partial-clause expressions\n"
        "are absorbed (strash) and the AND/NOT network repacks into 6-input\n"
        "LUTs, neither of which DON'T_TOUCH permits. SR (Clause Out registers)\n"
        "is structural and identical in both flows.");
    return tot_opt <= tot_dt ? 0 : 1;
}
