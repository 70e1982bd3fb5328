// Cross-module integration tests: the whole boolean-to-silicon pipeline on
// realistic (small) workloads, exercising train -> model -> expressions ->
// HCB AIGs -> mapping -> RTL text -> parse-back -> cycle-accurate streaming,
// with every stage checked against the golden software model.
#include <gtest/gtest.h>

#include <sstream>

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "data/synthetic.hpp"
#include "logic/aig_simulate.hpp"
#include "logic/lut_mapper.hpp"
#include "model/clause_expression.hpp"
#include "rtl/generators.hpp"
#include "rtl/testbench_gen.hpp"
#include "rtl/verification.hpp"
#include "rtl/verilog_parser.hpp"
#include "rtl/verilog_writer.hpp"
#include "sim/accelerator_sim.hpp"
#include "tm/tsetlin_machine.hpp"
#include "train/parallel_trainer.hpp"

namespace {

using namespace matador;

model::TrainedModel train_audio_model(std::size_t cpc, std::size_t epochs) {
    data::AudioLikeParams p;
    p.bands = 8;
    p.frames = 12;  // 96 bits
    p.num_classes = 4;
    p.examples_per_class = 150;
    p.seed = 61;
    const auto ds = data::make_audio_like(p);
    tm::TmConfig cfg;
    cfg.clauses_per_class = cpc;
    cfg.threshold = 10;
    cfg.seed = 71;
    tm::TsetlinMachine machine(cfg, ds.num_features, ds.num_classes);
    train::ParallelTrainer({.epochs = epochs}).fit(machine, ds);
    return machine.export_model();
}

TEST(Integration, MappedLutNetworksMatchHcbAigs) {
    const auto m = train_audio_model(8, 4);
    const model::PacketPlan plan(m.num_features(), 32);
    const auto hcbs = rtl::build_hcbs(m, plan);
    util::Xoshiro256ss rng(5);
    for (const auto& hcb : hcbs) {
        const auto mapped = logic::map_to_luts(hcb.aig);
        for (int round = 0; round < 8; ++round) {
            std::vector<std::uint64_t> patterns(hcb.aig.num_pis());
            for (auto& p : patterns) p = rng();
            EXPECT_EQ(mapped.network.evaluate(patterns),
                      logic::simulate(hcb.aig, patterns));
        }
    }
}

TEST(Integration, EmittedRtlParsedBackEqualsGoldenClauses) {
    const auto m = train_audio_model(6, 4);
    const model::ArchOptions opts{.bus_width = 24, .clock_mhz = 50.0};
    const auto arch = model::derive_architecture(m, opts);
    const auto design = rtl::generate_rtl(m, arch);
    const auto exprs = model::export_expressions(m);

    util::Xoshiro256ss rng(9);
    for (int trial = 0; trial < 10; ++trial) {
        util::BitVector x(m.num_features());
        for (std::size_t w = 0; w < x.word_count(); ++w) x.set_word(w, rng());

        // Chain through the *parsed-back RTL text* of every HCB.
        std::vector<bool> chain(m.total_clauses(), true);
        for (std::size_t k = 0; k < design.hcbs.size(); ++k) {
            const auto& hcb = design.hcbs[k];
            const auto parsed = rtl::parse_structural_verilog(design.hcb_comb[k]);
            std::vector<bool> pi;
            for (std::size_t f = hcb.spec.lo; f < hcb.spec.hi; ++f)
                pi.push_back(x.get(f));
            for (std::size_t i = 0; i < hcb.spec.active_clauses.size(); ++i)
                if (hcb.spec.has_chain_input[i])
                    pi.push_back(chain[hcb.spec.active_clauses[i]]);
            const auto out = logic::simulate_single(parsed.aig, pi);
            for (std::size_t i = 0; i < out.size(); ++i)
                chain[hcb.spec.active_clauses[i]] = out[i];
        }
        for (const auto& e : exprs)
            if (!e.empty())
                EXPECT_EQ(chain[e.cls * m.clauses_per_class() + e.index],
                          e.evaluate(x));
    }
}

TEST(Integration, StreamingSimAgreesWithModelOnRealData) {
    data::AudioLikeParams p;
    p.bands = 8;
    p.frames = 12;
    p.num_classes = 4;
    p.examples_per_class = 60;
    p.seed = 62;
    const auto ds = data::make_audio_like(p);
    const auto m = train_audio_model(8, 5);

    const model::ArchOptions opts{.bus_width = 16, .clock_mhz = 50.0};
    const auto arch = model::derive_architecture(m, opts);
    sim::AcceleratorSim simulator(m, arch);
    const auto r = simulator.run(ds.examples);
    ASSERT_EQ(r.predictions.size(), ds.size());
    for (std::size_t i = 0; i < ds.size(); ++i)
        EXPECT_EQ(r.predictions[i], m.predict(ds.examples[i]));
    EXPECT_EQ(r.first_latency_cycles, arch.latency_cycles());
}

TEST(Integration, SaveLoadModelProducesIdenticalAccelerator) {
    const auto m = train_audio_model(6, 4);
    std::stringstream ss;
    m.save(ss);
    const auto loaded = model::TrainedModel::load(ss);

    const model::ArchOptions opts{.bus_width = 16, .clock_mhz = 50.0};
    const auto d1 = rtl::generate_rtl(m, model::derive_architecture(m, opts));
    const auto d2 =
        rtl::generate_rtl(loaded, model::derive_architecture(loaded, opts));
    EXPECT_EQ(d1.hcb_comb, d2.hcb_comb);
    EXPECT_EQ(rtl::emit_module(d1.top), rtl::emit_module(d2.top));
}

TEST(Integration, SharingClaimHoldsOnTrainedModel) {
    // Fig. 3's empirical claim on a genuinely trained model: sparsity is
    // high and some partial-clause expressions repeat across clauses.
    const auto m = train_audio_model(16, 6);
    const auto sparsity = model::analyze_sparsity(m);
    EXPECT_LT(sparsity.include_density, 0.4);
    const auto sharing =
        model::analyze_sharing(m, model::PacketPlan(m.num_features(), 16));
    EXPECT_GT(sharing.mean_sharing_ratio, 0.0);
}

TEST(Integration, TestbenchEmbedsGoldenPredictions) {
    const auto m = train_audio_model(6, 3);
    const model::ArchOptions opts{.bus_width = 32, .clock_mhz = 50.0};
    const auto design = rtl::generate_rtl(m, model::derive_architecture(m, opts));

    data::AudioLikeParams p;
    p.bands = 8;
    p.frames = 12;
    p.num_classes = 4;
    p.examples_per_class = 3;
    p.seed = 63;
    const auto ds = data::make_audio_like(p);
    const auto tb = rtl::generate_testbench(design, m, ds.examples);
    for (std::size_t i = 0; i < ds.size(); ++i) {
        const std::string needle = "expected[" + std::to_string(i) + "] = " +
                                   std::to_string(m.predict(ds.examples[i])) + ";";
        EXPECT_NE(tb.find(needle), std::string::npos) << needle;
    }
}

TEST(Integration, FullFlowOnImageLikeData) {
    data::ImageLikeParams p;
    p.width = 12;
    p.height = 8;  // 96 bits
    p.num_classes = 3;
    p.examples_per_class = 150;
    p.seed = 67;
    const auto ds = data::make_image_like(p);
    const auto split = data::train_test_split(ds, 0.8, 71);

    core::FlowConfig cfg;
    cfg.tm.clauses_per_class = 16;
    cfg.tm.threshold = 10;
    cfg.tm.seed = 73;
    cfg.epochs = 6;
    cfg.arch.bus_width = 16;
    cfg.verify_vectors = 8;
    cfg.sim_datapoints = 10;
    const auto r = core::Pipeline(cfg).run(split.train, split.test).to_flow_result();
    EXPECT_GT(r.test_accuracy, 0.8);
    EXPECT_TRUE(r.verification.ok()) << r.verification.first_failure;
    EXPECT_TRUE(r.system_verified);
}

}  // namespace
