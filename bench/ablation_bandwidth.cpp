// Ablation benches for the design decisions DESIGN.md calls out:
//
//   A. Bandwidth-driven inference: throughput must track f/packets exactly
//      as the bus narrows, independent of model size (Section III's core
//      claim), measured by the cycle-accurate simulator.
//   B. Pipeline-depth knobs: argmax levels-per-stage and class-sum
//      levels-per-stage trade latency cycles for shorter register-to-
//      register paths.
//   C. Logic sharing: strash on/off total LUT cost at several model sizes
//      (the Fig. 8 effect as a function of clause count).
#include <cstdio>

#include "data/synthetic.hpp"
#include "logic/lut_mapper.hpp"
#include "model/architecture.hpp"
#include "model/optimize.hpp"
#include "rtl/hcb_builder.hpp"
#include "sim/accelerator_sim.hpp"
#include "tm/tsetlin_machine.hpp"
#include "train/parallel_trainer.hpp"
#include "util/rng.hpp"

namespace {

using namespace matador;

model::TrainedModel train_model(const data::Dataset& ds, std::size_t cpc) {
    tm::TmConfig cfg;
    cfg.clauses_per_class = cpc;
    cfg.threshold = 15;
    cfg.specificity = 4.0;
    cfg.seed = 42;
    tm::TsetlinMachine machine(cfg, ds.num_features, ds.num_classes);
    train::ParallelTrainer({.epochs = 4}).fit(machine, ds);
    return machine.export_model();
}

}  // namespace

int main() {
    using namespace matador;

    data::ImageLikeParams p;
    p.width = 16;
    p.height = 16;
    p.num_classes = 4;
    p.examples_per_class = 150;
    p.seed = 21;
    const auto ds = data::make_image_like(p);

    // --- A: bandwidth-driven throughput -------------------------------------
    std::puts("=== Ablation A: throughput is bandwidth-driven ===");
    std::printf("%-6s %-9s %-12s %-14s %-12s\n", "bus", "packets", "meas. II",
                "thrpt@50MHz", "f/packets");
    const auto m = train_model(ds, 50);
    for (std::size_t bus : {8u, 16u, 32u, 64u}) {
        model::ArchOptions o;
        o.bus_width = bus;
        const auto arch = model::derive_architecture(m, o);
        sim::AcceleratorSim sim(m, arch);
        std::vector<util::BitVector> inputs(ds.examples.begin(),
                                            ds.examples.begin() + 30);
        const auto r = sim.run(inputs);
        std::printf("%-6zu %-9zu %-12.1f %-14lld %-12lld\n", bus,
                    arch.plan.num_packets(), r.mean_initiation_interval,
                    (long long)r.throughput_inf_per_s(50.0),
                    (long long)(50e6 / double(arch.plan.num_packets())));
    }

    // --- B: pipeline-depth knobs --------------------------------------------
    std::puts("\n=== Ablation B: pipeline staging vs latency ===");
    std::printf("%-22s %-14s %-12s %-14s\n", "argmax levels/stage",
                "argmax stages", "latency", "meas. latency");
    for (unsigned lps : {1u, 2u, 4u}) {
        model::ArchOptions o;
        o.bus_width = 32;
        o.argmax_levels_per_stage = lps;
        const auto arch = model::derive_architecture(m, o);
        sim::AcceleratorSim sim(m, arch);
        std::vector<util::BitVector> inputs(ds.examples.begin(),
                                            ds.examples.begin() + 5);
        const auto r = sim.run(inputs);
        std::printf("%-22u %-14u %-12zu %-14zu\n", lps, arch.argmax_stages,
                    arch.latency_cycles(), r.first_latency_cycles);
    }

    // --- C: sharing benefit vs model size ------------------------------------
    std::puts("\n=== Ablation C: logic sharing benefit vs clause count ===");
    std::printf("%-10s %-12s %-12s %-9s\n", "clauses", "LUT-opt", "LUT-dt",
                "saving");
    for (std::size_t cpc : {25u, 50u, 100u, 200u}) {
        const auto mc = train_model(ds, cpc);
        const model::PacketPlan plan(mc.num_features(), 64);
        std::size_t opt = 0, dt = 0;
        for (const auto& h : rtl::build_hcbs(mc, plan, true))
            opt += logic::map_to_luts(h.aig).lut_count;
        for (const auto& h : rtl::build_hcbs(mc, plan, false))
            dt += h.aig.count_reachable_ands();  // DON'T_TOUCH: gate-per-LUT
        std::printf("%-10zu %-12zu %-12zu %7.1f%%\n", cpc, opt, dt,
                    100.0 * (1.0 - double(opt) / double(std::max<std::size_t>(1, dt))));
    }

    // --- D: clause deduplication (weighted votes) ----------------------------
    std::puts("\n=== Ablation D: clause dedup into weighted votes ===");
    std::printf("%-10s %-8s %-8s %-11s %-12s %-10s\n", "clauses", "live",
                "unique", "cancelled", "chain-regs", "equal?");
    for (std::size_t cpc : {50u, 100u, 200u}) {
        const auto mc = train_model(ds, cpc);
        model::DedupStats st;
        const auto wm = model::deduplicate_clauses(mc, &st);
        // Spot-check exact vote equivalence on random inputs.
        util::Xoshiro256ss rng(cpc);
        bool equal = true;
        for (int t = 0; t < 50 && equal; ++t) {
            util::BitVector x(mc.num_features());
            for (std::size_t w = 0; w < x.word_count(); ++w) x.set_word(w, rng());
            equal = wm.class_sums(x) == mc.class_sums(x);
        }
        char saving[32];
        std::snprintf(saving, sizeof saving, "-%.1f%%", 100.0 * st.reduction());
        std::printf("%-10zu %-8zu %-8zu %-11zu %-12s %-10s\n", cpc,
                    st.live_clauses, st.unique_clauses, st.cancelled_clauses,
                    saving, equal ? "yes" : "NO");
    }

    std::puts("\nExpected: (A) II == packets for every bus width; (B) fewer\n"
              "levels per stage -> more stages -> longer latency; (C) sharing\n"
              "plus LUT packing saves >50% at every model size (absolute\n"
              "savings grow with clause count).");
    return 0;
}
