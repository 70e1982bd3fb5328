#include "sim/vcd_writer.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "data/synthetic.hpp"
#include "model/architecture.hpp"
#include "sim/accelerator_sim.hpp"
#include "tm/tsetlin_machine.hpp"
#include "train/parallel_trainer.hpp"

namespace {

using matador::sim::VcdWriter;

std::string slurp(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(VcdWriter, HeaderAndDeclarations) {
    const std::string path = ::testing::TempDir() + "vcd_header.vcd";
    {
        VcdWriter vcd(path, "dut");
        vcd.add_signal("clk_en", 1);
        vcd.add_signal("bus", 8);
        vcd.tick();
    }
    const std::string text = slurp(path);
    EXPECT_NE(text.find("$timescale 1ns $end"), std::string::npos);
    EXPECT_NE(text.find("$scope module dut $end"), std::string::npos);
    EXPECT_NE(text.find("$var wire 1 ! clk_en $end"), std::string::npos);
    EXPECT_NE(text.find("$var wire 8 \" bus $end"), std::string::npos);
    EXPECT_NE(text.find("$enddefinitions $end"), std::string::npos);
    std::filesystem::remove(path);
}

TEST(VcdWriter, EmitsOnlyChanges) {
    const std::string path = ::testing::TempDir() + "vcd_changes.vcd";
    {
        VcdWriter vcd(path, "dut");
        const auto s = vcd.add_signal("sig", 1);
        vcd.set(s, 1);
        vcd.tick();  // change -> emitted at #0
        vcd.tick();  // no change -> no timestamp #1
        vcd.set(s, 0);
        vcd.tick();  // change -> #2
    }
    const std::string text = slurp(path);
    EXPECT_NE(text.find("#0\n1!"), std::string::npos);
    EXPECT_EQ(text.find("#1\n"), std::string::npos);
    EXPECT_NE(text.find("#2\n0!"), std::string::npos);
    std::filesystem::remove(path);
}

TEST(VcdWriter, VectorBinaryFormat) {
    const std::string path = ::testing::TempDir() + "vcd_vec.vcd";
    {
        VcdWriter vcd(path, "dut");
        const auto s = vcd.add_signal("bus", 4);
        vcd.set(s, 0b1010);
        vcd.tick();
    }
    EXPECT_NE(slurp(path).find("b1010 !"), std::string::npos);
    std::filesystem::remove(path);
}

TEST(VcdWriter, Validation) {
    const std::string path = ::testing::TempDir() + "vcd_valid.vcd";
    VcdWriter vcd(path, "dut");
    EXPECT_THROW(vcd.add_signal("too_wide", 65), std::invalid_argument);
    EXPECT_THROW(vcd.add_signal("zero", 0), std::invalid_argument);
    const auto s = vcd.add_signal("ok", 2);
    vcd.set(s, 0xff);  // masked to width
    vcd.tick();
    EXPECT_THROW(vcd.add_signal("late", 1), std::logic_error);
    vcd.close();
    std::filesystem::remove(path);
}

TEST(VcdWriter, SimulatorIntegration) {
    // The accelerator sim dumps the ILA probe set when vcd_path is set.
    const auto ds = matador::data::make_noisy_xor(400, 6, 0.05, 3);
    matador::tm::TmConfig cfg;
    cfg.clauses_per_class = 8;
    cfg.threshold = 6;
    cfg.seed = 9;
    matador::tm::TsetlinMachine machine(cfg, ds.num_features, 2);
    matador::train::ParallelTrainer({.epochs = 3}).fit(machine, ds);
    const auto m = machine.export_model();

    matador::model::ArchOptions o;
    o.bus_width = 4;
    matador::sim::AcceleratorSim sim(m, matador::model::derive_architecture(m, o));

    const std::string path = ::testing::TempDir() + "sim_probes.vcd";
    matador::sim::SimConfig sc;
    sc.vcd_path = path;
    const auto r = sim.run({ds.examples[0], ds.examples[1]}, sc);
    ASSERT_EQ(r.predictions.size(), 2u);

    const std::string text = slurp(path);
    EXPECT_NE(text.find("packet_accept"), std::string::npos);
    EXPECT_NE(text.find("s_axis_tdata"), std::string::npos);
    EXPECT_NE(text.find("result_valid"), std::string::npos);
    // result_valid must pulse at least twice (two datapoints).
    std::size_t pulses = 0, pos = 0;
    // result_valid is the 5th declared signal -> id '%'.
    while ((pos = text.find("\n1%", pos)) != std::string::npos) {
        ++pulses;
        ++pos;
    }
    EXPECT_EQ(pulses, 2u);
    std::filesystem::remove(path);
}

}  // namespace
