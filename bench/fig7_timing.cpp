// Fig. 7 reproduction: the streaming timing diagram.
//
// The paper's figure shows each data packet routed to its HCB, the class
// sum and argmax pipelining, the first-datapoint initiation interval and
// the steady-state rate (one inference per n_packets cycles).  Here the
// cycle-accurate simulator *measures* that diagram on a 784-bit model
// (13 packets at 64 bits): the trace below is the figure, with cycle
// numbers instead of a drawing.
#include <cstdio>

#include "data/synthetic.hpp"
#include "sim/accelerator_sim.hpp"
#include "tm/tsetlin_machine.hpp"
#include "train/parallel_trainer.hpp"
#include "util/string_utils.hpp"

int main() {
    using namespace matador;

    std::puts("=== Fig. 7: packet routing / pipelining timing diagram ===\n");

    // A small but real trained model with 784 inputs (13 packets).
    const auto ds = data::make_mnist_like(60, 11);
    tm::TmConfig cfg;
    cfg.clauses_per_class = 20;
    cfg.threshold = 15;
    cfg.seed = 42;
    tm::TsetlinMachine machine(cfg, ds.num_features, ds.num_classes);
    train::ParallelTrainer({.epochs = 3}).fit(machine, ds);
    const auto m = machine.export_model();

    const auto arch = model::derive_architecture(m, {});
    std::printf("architecture: %zu packets, class-sum %u stage(s), argmax %u "
                "stage(s) -> latency %zu cycles, II %zu cycles\n\n",
                arch.plan.num_packets(), arch.class_sum_stages,
                arch.argmax_stages, arch.latency_cycles(),
                arch.initiation_interval());

    sim::AcceleratorSim simulator(m, arch);
    sim::SimConfig sc;
    sc.record_trace = true;
    std::vector<util::BitVector> inputs(ds.examples.begin(), ds.examples.begin() + 3);
    const auto r = simulator.run(inputs, sc);

    std::puts("cycle-by-cycle trace (3 datapoints streamed back-to-back):");
    for (const auto& e : r.trace) std::printf("  cycle %3zu | %s\n", e.cycle, e.what.c_str());

    std::printf("\nmeasured: first-result latency %zu cycles (formula %zu), "
                "initiation interval %.1f cycles (formula %zu)\n",
                r.first_latency_cycles, arch.latency_cycles(),
                r.mean_initiation_interval, arch.initiation_interval());
    std::printf("at 50 MHz: latency %.2f us, throughput %s inf/s\n",
                arch.latency_us(),
                util::with_commas((long long)arch.throughput_inf_per_s()).c_str());

    const bool ok = r.first_latency_cycles == arch.latency_cycles() &&
                    std::size_t(r.mean_initiation_interval + 0.5) ==
                        arch.initiation_interval();
    std::puts(ok ? "\nFig. 7 shape REPRODUCED (measured == analytical)"
                 : "\nMISMATCH between measured and analytical timing");
    return ok ? 0 : 1;
}
