#include "sim/accelerator_sim.hpp"

#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "tm/tsetlin_machine.hpp"
#include "train/parallel_trainer.hpp"

namespace {

using matador::model::ArchOptions;
using matador::model::TrainedModel;
using matador::model::derive_architecture;
using matador::sim::AcceleratorSim;
using matador::sim::SimConfig;
using matador::util::BitVector;

matador::data::Dataset image_like(std::size_t features, std::size_t classes,
                                  std::uint64_t seed) {
    matador::data::ImageLikeParams p;
    p.width = features / 8;
    p.height = 8;
    p.num_classes = classes;
    p.examples_per_class = 120;
    p.seed = seed;
    return matador::data::make_image_like(p);
}

TrainedModel trained_model(std::size_t features, std::size_t classes,
                           std::uint64_t seed) {
    const auto ds = image_like(features, classes, seed);
    matador::tm::TmConfig cfg;
    cfg.clauses_per_class = 12;
    cfg.threshold = 8;
    cfg.seed = seed;
    matador::tm::TsetlinMachine tm(cfg, ds.num_features, classes);
    matador::train::ParallelTrainer({.epochs = 5}).fit(tm, ds);
    return tm.export_model();
}

std::vector<BitVector> random_inputs(std::size_t n, std::size_t bits,
                                     std::uint64_t seed) {
    matador::util::Xoshiro256ss rng(seed);
    std::vector<BitVector> v;
    for (std::size_t i = 0; i < n; ++i) {
        BitVector x(bits);
        for (std::size_t w = 0; w < x.word_count(); ++w) x.set_word(w, rng());
        v.push_back(std::move(x));
    }
    return v;
}

TEST(AcceleratorSim, PredictionsMatchGoldenModel) {
    // 64 features over a 16-bit bus (4 packets), then 200 features - not a
    // multiple of 64, so the last packet is short, and some packets
    // straddle two words of the include masks (63..70 at width 7, 48..72
    // at width 24, 48..96 at width 48).  Random inputs plus training
    // examples, on which the clauses do fire.
    struct Case {
        std::size_t features, bus_width;
    };
    for (const Case c : {Case{64, 16}, Case{200, 7}, Case{200, 24}, Case{200, 48},
                         Case{200, 64}}) {
        const auto m = trained_model(c.features, 3, 5);
        auto inputs = random_inputs(40, c.features, 9);
        const auto ds = image_like(c.features, 3, 5);
        for (std::size_t i = 0; i < ds.size(); i += 9) inputs.push_back(ds.examples[i]);
        ArchOptions o;
        o.bus_width = c.bus_width;
        AcceleratorSim sim(m, derive_architecture(m, o));
        const auto r = sim.run(inputs);
        ASSERT_EQ(r.predictions.size(), inputs.size()) << "bus width " << c.bus_width;
        for (std::size_t i = 0; i < inputs.size(); ++i)
            EXPECT_EQ(r.predictions[i], m.predict(inputs[i]))
                << c.features << " features, bus width " << c.bus_width << ", datapoint " << i;
    }
}

TEST(AcceleratorSim, LatencyMatchesArchitectureEquation) {
    const auto m = trained_model(64, 3, 6);
    ArchOptions o;
    o.bus_width = 16;
    const auto arch = derive_architecture(m, o);
    AcceleratorSim sim(m, arch);
    const auto r = sim.run(random_inputs(10, 64, 11));
    EXPECT_EQ(r.first_latency_cycles, arch.latency_cycles());
}

TEST(AcceleratorSim, InitiationIntervalIsPacketCount) {
    const auto m = trained_model(64, 2, 7);
    ArchOptions o;
    o.bus_width = 8;  // 8 packets
    const auto arch = derive_architecture(m, o);
    AcceleratorSim sim(m, arch);
    const auto r = sim.run(random_inputs(20, 64, 13));
    EXPECT_DOUBLE_EQ(r.mean_initiation_interval, double(arch.initiation_interval()));
    // Throughput at the architecture clock matches f/packets.
    EXPECT_NEAR(r.throughput_inf_per_s(arch.options.clock_mhz),
                arch.throughput_inf_per_s(),
                arch.throughput_inf_per_s() * 0.01);
}

TEST(AcceleratorSim, BeatsCountedExactly) {
    const auto m = trained_model(64, 2, 8);
    ArchOptions o;
    o.bus_width = 16;
    AcceleratorSim sim(m, derive_architecture(m, o));
    const auto r = sim.run(random_inputs(15, 64, 17));
    EXPECT_EQ(r.beats_transferred, 15u * 4u);
}

TEST(AcceleratorSim, StallsDelayButDontCorrupt) {
    const auto m = trained_model(64, 3, 9);
    ArchOptions o;
    o.bus_width = 16;
    const auto arch = derive_architecture(m, o);
    AcceleratorSim sim(m, arch);
    const auto inputs = random_inputs(25, 64, 19);

    SimConfig stall_cfg;
    stall_cfg.stall_probability = 0.4;
    stall_cfg.stall_seed = 23;
    const auto stalled = sim.run(inputs, stall_cfg);
    const auto smooth = sim.run(inputs);

    ASSERT_EQ(stalled.predictions.size(), inputs.size());
    EXPECT_EQ(stalled.predictions, smooth.predictions);
    EXPECT_GT(stalled.cycles_run, smooth.cycles_run);
    EXPECT_GT(stalled.mean_initiation_interval, smooth.mean_initiation_interval);
}

TEST(AcceleratorSim, TraceRecordsPacketRoutingAndResults) {
    const auto m = trained_model(64, 2, 10);
    ArchOptions o;
    o.bus_width = 16;
    AcceleratorSim sim(m, derive_architecture(m, o));
    SimConfig cfg;
    cfg.record_trace = true;
    const auto r = sim.run(random_inputs(2, 64, 29), cfg);
    ASSERT_FALSE(r.trace.empty());
    std::size_t packet_events = 0, result_events = 0;
    for (const auto& e : r.trace) {
        if (e.what.rfind("packet", 0) == 0) ++packet_events;
        if (e.what.rfind("result_valid", 0) == 0) ++result_events;
    }
    EXPECT_EQ(packet_events, 2u * 4u);
    EXPECT_EQ(result_events, 2u);
    // Events are in nondecreasing cycle order.
    for (std::size_t i = 1; i < r.trace.size(); ++i)
        EXPECT_LE(r.trace[i - 1].cycle, r.trace[i].cycle);
}

TEST(AcceleratorSim, EmptyInputListTerminates) {
    const auto m = trained_model(64, 2, 12);
    ArchOptions o;
    AcceleratorSim sim(m, derive_architecture(m, o));
    const auto r = sim.run({});
    EXPECT_TRUE(r.predictions.empty());
    EXPECT_EQ(r.beats_transferred, 0u);
}

TEST(AcceleratorSim, RejectsShapeMismatch) {
    const auto m = trained_model(64, 2, 13);
    ArchOptions o;
    const auto wrong_arch = derive_architecture(128, 2, 12, o);
    EXPECT_THROW(AcceleratorSim(m, wrong_arch), std::invalid_argument);
}

TEST(AcceleratorSim, Paper13PacketLatency) {
    // A 784-bit model must reproduce the paper's 13-packet, 16-cycle shape.
    TrainedModel m(784, 10, 4);
    m.clause(0, 0).include_pos.set(0);
    m.clause(0, 0).include_pos.set(783);
    ArchOptions o;  // 64-bit bus
    const auto arch = derive_architecture(m, o);
    AcceleratorSim sim(m, arch);
    const auto r = sim.run(random_inputs(5, 784, 31));
    EXPECT_EQ(r.first_latency_cycles, 16u);
    EXPECT_DOUBLE_EQ(r.mean_initiation_interval, 13.0);
}

}  // namespace
