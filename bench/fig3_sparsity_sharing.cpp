// Fig. 3 (empirical claim) reproduction: trained TM models exhibit
// "extremely high sparsity in the occurrence of includes, and significant
// sharing of boolean expressions among the clauses within the class as
// well as among the classes".
//
// Trains the Table II model for each dataset and measures:
//   * include density (includes / literal slots) and the per-clause
//     include histogram,
//   * per-packet partial-clause sharing: unique vs total signatures,
//     duplicates attributed intra- vs inter-class,
//   * whole-clause duplicates.
//
//   ./fig3_sparsity_sharing [scale]
#include <cstdio>

#include "bench_common.hpp"
#include "model/sharing_analysis.hpp"
#include "tm/tsetlin_machine.hpp"
#include "train/parallel_trainer.hpp"

int main(int argc, char** argv) {
    using namespace matador;
    const std::size_t scale = argc > 1 ? std::max(1, std::atoi(argv[1])) : 2;

    std::puts("=== Fig. 3: sparsity and expression sharing in trained TM models ===\n");

    for (const auto& w : bench::paper_workloads(scale)) {
        const auto ds = w.make();
        tm::TmConfig cfg;
        cfg.clauses_per_class = w.clauses_per_class;
        cfg.threshold = w.tm_threshold;
        cfg.specificity = w.tm_specificity;
        cfg.seed = 42;
        tm::TsetlinMachine machine(cfg, ds.num_features, ds.num_classes);
        train::ParallelTrainer({.epochs = w.tm_epochs}).fit(machine, ds);
        const auto m = machine.export_model();

        const auto sp = model::analyze_sparsity(m);
        const model::PacketPlan plan(m.num_features(), 64);
        const auto sh = model::analyze_sharing(m, plan);

        std::printf("%s: %zu classes x %zu clauses, %zu features\n",
                    w.display_name.c_str(), m.num_classes(), m.clauses_per_class(),
                    m.num_features());
        std::printf("  sparsity: include density %.3f%% (%zu includes in %zu slots); "
                    "%zu empty clauses; includes/clause min %zu mean %.1f max %zu\n",
                    100.0 * sp.include_density, sp.total_includes, sp.literal_slots,
                    sp.empty_clauses, sp.min_includes, sp.mean_includes,
                    sp.max_includes);

        const auto hist = model::include_histogram(m, 8);
        std::printf("  includes/clause histogram (8 bins): ");
        for (auto b : hist) std::printf("%zu ", b);
        std::printf("\n");

        std::size_t intra = 0, inter = 0, total = 0, unique = 0;
        for (const auto& p : sh.per_packet) {
            intra += p.intra_class_duplicates;
            inter += p.inter_class_duplicates;
            total += p.total_partials;
            unique += p.unique_partials;
        }
        std::printf("  sharing: mean partial-clause sharing ratio %.1f%% "
                    "(%zu of %zu partials are free duplicates)\n",
                    100.0 * sh.mean_sharing_ratio, total - unique, total);
        std::printf("  duplicates: %zu intra-class, %zu inter-class, "
                    "%zu identical whole clauses\n\n",
                    intra, inter, sh.duplicate_full_clauses);
    }

    std::puts("Expected shape (paper Sec. II): density of a few percent; both\n"
              "intra- and inter-class duplicate partials present, enabling the\n"
              "synthesis-time logic absorption that Fig. 8 quantifies.");
    return 0;
}
