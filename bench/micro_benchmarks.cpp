// Engineering micro-benchmarks (google-benchmark): the hot paths of the
// toolflow.  Not part of the paper's evaluation; used to keep the
// substrates fast enough that the Table I bench stays interactive.
#include <benchmark/benchmark.h>

#include "data/synthetic.hpp"
#include "logic/lut_mapper.hpp"
#include "model/architecture.hpp"
#include "model/packetization.hpp"
#include "rtl/generators.hpp"
#include "rtl/verilog_parser.hpp"
#include "sim/accelerator_sim.hpp"
#include "tm/tsetlin_machine.hpp"
#include "train/parallel_trainer.hpp"

namespace {

using namespace matador;

const data::Dataset& mnist_small() {
    static const data::Dataset ds = data::make_mnist_like(30, 11);
    return ds;
}

const tm::TsetlinMachine& trained_tm() {
    static const tm::TsetlinMachine machine = [] {
        tm::TmConfig cfg;
        cfg.clauses_per_class = 100;
        cfg.threshold = 20;
        cfg.seed = 42;
        tm::TsetlinMachine m(cfg, 784, 10);
        train::ParallelTrainer({.epochs = 2}).fit(m, mnist_small());
        return m;
    }();
    return machine;
}

void BM_BitVectorAnd(benchmark::State& state) {
    util::BitVector a(std::size_t(state.range(0))), b(a.size());
    util::Xoshiro256ss rng(1);
    for (std::size_t w = 0; w < a.word_count(); ++w) {
        a.set_word(w, rng());
        b.set_word(w, rng());
    }
    for (auto _ : state) {
        a &= b;
        benchmark::DoNotOptimize(a);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BitVectorAnd)->Arg(784)->Arg(8192);

void BM_TmClassSums(benchmark::State& state) {
    auto& machine = trained_tm();
    const auto& x = mnist_small().examples.front();
    for (auto _ : state) benchmark::DoNotOptimize(machine.class_sums(x));
    state.SetItemsProcessed(state.iterations() *
                            int64_t(machine.num_classes()) *
                            int64_t(machine.clauses_per_class()));
}
BENCHMARK(BM_TmClassSums);

void BM_Packetize(benchmark::State& state) {
    const model::Packetizer p{model::PacketPlan(784, 64)};
    const auto& x = mnist_small().examples.front();
    for (auto _ : state) benchmark::DoNotOptimize(p.packetize(x));
}
BENCHMARK(BM_Packetize);

void BM_HcbBuildStrash(benchmark::State& state) {
    const auto m = trained_tm().export_model();
    const model::PacketPlan plan(784, 64);
    for (auto _ : state) benchmark::DoNotOptimize(rtl::build_hcbs(m, plan, true));
}
BENCHMARK(BM_HcbBuildStrash);

void BM_LutMapHcb(benchmark::State& state) {
    const auto m = trained_tm().export_model();
    const auto hcbs = rtl::build_hcbs(m, model::PacketPlan(784, 64), true);
    for (auto _ : state)
        benchmark::DoNotOptimize(logic::map_to_luts(hcbs.front().aig));
}
BENCHMARK(BM_LutMapHcb);

void BM_EmitAndParseHcb(benchmark::State& state) {
    const auto m = trained_tm().export_model();
    const auto hcbs = rtl::build_hcbs(m, model::PacketPlan(784, 64), true);
    for (auto _ : state) {
        const std::string text = rtl::emit_hcb_comb(hcbs.front(), 0);
        benchmark::DoNotOptimize(rtl::parse_structural_verilog(text));
    }
}
BENCHMARK(BM_EmitAndParseHcb);

void BM_SimStreamDatapoint(benchmark::State& state) {
    const auto m = trained_tm().export_model();
    const auto arch = model::derive_architecture(m, {});
    const sim::AcceleratorSim simulator(m, arch);
    std::vector<util::BitVector> one{mnist_small().examples.front()};
    for (auto _ : state) benchmark::DoNotOptimize(simulator.run(one));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimStreamDatapoint);

}  // namespace
