// The whole flow through core::Pipeline, read as the classic FlowResult.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "data/synthetic.hpp"
#include "util/string_utils.hpp"

namespace {

using matador::core::FlowConfig;
using matador::core::FlowResult;
using matador::core::Pipeline;
using matador::core::format_flow_summary;
using matador::util::format_double;
using matador::data::Dataset;
using matador::data::make_noisy_xor;
using matador::data::train_test_split;

FlowResult run_flow(const FlowConfig& cfg, const Dataset& train, const Dataset& test) {
    return Pipeline(cfg).run(train, test).to_flow_result();
}

FlowConfig small_flow_config() {
    FlowConfig cfg;
    cfg.tm.clauses_per_class = 12;
    cfg.tm.threshold = 8;
    cfg.tm.seed = 21;
    cfg.epochs = 6;
    cfg.arch.bus_width = 8;
    cfg.verify_vectors = 8;
    cfg.sim_datapoints = 12;
    return cfg;
}

TEST(Flow, EndToEndOnNoisyXor) {
    const auto ds = make_noisy_xor(1500, 10, 0.03, 3);
    const auto split = train_test_split(ds, 0.8, 5);
    const FlowResult r = run_flow(small_flow_config(), split.train, split.test);

    EXPECT_GT(r.test_accuracy, 0.9);
    EXPECT_TRUE(r.verification.ok()) << r.verification.first_failure;
    EXPECT_TRUE(r.system_verified);
    EXPECT_EQ(r.measured_latency_cycles, r.arch.latency_cycles());
    EXPECT_GT(r.hcb_mapped_luts, 0u);
    EXPECT_GT(r.resources.luts, 0u);
    EXPECT_DOUBLE_EQ(r.resources.bram36, 3.0);
    EXPECT_GT(r.power.total_w, r.power.dynamic_w);
    EXPECT_GT(r.throughput_inf_per_s, 0.0);
    // Auto frequency lands in the paper's operating band.
    EXPECT_GE(r.arch.options.clock_mhz, 50.0);
    EXPECT_LE(r.arch.options.clock_mhz, 65.0);
}

TEST(Flow, ImportModelFlowMatchesTrainingFlow) {
    const auto ds = make_noisy_xor(1200, 10, 0.03, 7);
    const auto split = train_test_split(ds, 0.8, 9);
    const Pipeline pipeline(small_flow_config());
    const FlowResult trained = pipeline.run(split.train, split.test).to_flow_result();

    // Yellow flow: feed the exported model back in.
    const FlowResult imported =
        pipeline.run_with_model(trained.trained_model, &split.test).to_flow_result();
    EXPECT_DOUBLE_EQ(imported.test_accuracy, trained.test_accuracy);
    EXPECT_EQ(imported.arch.latency_cycles(), trained.arch.latency_cycles());
    EXPECT_EQ(imported.resources.luts, trained.resources.luts);
    EXPECT_TRUE(imported.verification.ok());
    EXPECT_TRUE(imported.system_verified);

    // The import flow has no train set, so it has no train accuracy to show.
    const std::string trained_summary = format_flow_summary(trained, "trained");
    const std::string imported_summary = format_flow_summary(imported, "imported");
    EXPECT_NE(trained_summary.find("accuracy: train " +
                                   format_double(trained.train_accuracy * 100, 2) + "%"),
              std::string::npos)
        << trained_summary;
    EXPECT_NE(imported_summary.find("accuracy: train n/a (imported)  test "),
              std::string::npos)
        << imported_summary;
}

TEST(Flow, RtlEmissionWritesFiles) {
    const auto ds = make_noisy_xor(800, 6, 0.03, 11);
    const auto split = train_test_split(ds, 0.8, 13);
    FlowConfig cfg = small_flow_config();
    cfg.rtl_output_dir = ::testing::TempDir() + "matador_flow_rtl";
    std::filesystem::remove_all(cfg.rtl_output_dir);
    const FlowResult r = run_flow(cfg, split.train, split.test);
    EXPECT_FALSE(r.rtl_files.empty());
    for (const auto& f : r.rtl_files) EXPECT_TRUE(std::filesystem::exists(f));
    std::filesystem::remove_all(cfg.rtl_output_dir);
}

TEST(Flow, StrashReducesMappedLuts) {
    const auto ds = make_noisy_xor(1500, 10, 0.03, 17);
    const auto split = train_test_split(ds, 0.8, 19);
    FlowConfig shared_cfg = small_flow_config();
    FlowConfig dt_cfg = small_flow_config();
    dt_cfg.strash = false;
    const FlowResult shared = run_flow(shared_cfg, split.train, split.test);
    const FlowResult dt = run_flow(dt_cfg, split.train, split.test);
    // Fig. 8's claim: the DON'T_TOUCH flow costs at least as many LUTs.
    EXPECT_LE(shared.hcb_mapped_luts, dt.hcb_mapped_luts);
    EXPECT_TRUE(dt.verification.ok());  // and still computes the same function
}

TEST(Flow, SkipRtlVerificationFastPath) {
    const auto ds = make_noisy_xor(600, 6, 0.05, 23);
    const auto split = train_test_split(ds, 0.8, 29);
    FlowConfig cfg = small_flow_config();
    cfg.skip_rtl_verification = true;
    const FlowResult r = run_flow(cfg, split.train, split.test);
    EXPECT_TRUE(r.system_verified);  // cycle-level check still runs
}

TEST(Flow, FixedFrequencyRespected) {
    const auto ds = make_noisy_xor(600, 6, 0.05, 31);
    const auto split = train_test_split(ds, 0.8, 37);
    FlowConfig cfg = small_flow_config();
    cfg.auto_frequency = false;
    cfg.arch.clock_mhz = 100.0;
    const FlowResult r = run_flow(cfg, split.train, split.test);
    EXPECT_DOUBLE_EQ(r.arch.options.clock_mhz, 100.0);
}

TEST(Report, TableRowAndFormatting) {
    const auto ds = make_noisy_xor(800, 6, 0.05, 41);
    const auto split = train_test_split(ds, 0.8, 43);
    const FlowResult r = run_flow(small_flow_config(), split.train, split.test);

    const auto row = matador::core::to_table_row(r, "MATADOR");
    EXPECT_EQ(row.luts, r.resources.luts);
    EXPECT_NEAR(row.accuracy_pct, r.test_accuracy * 100.0, 1e-9);

    const std::string table =
        matador::core::format_table({{"NOISY-XOR", {row}}});
    EXPECT_NE(table.find("NOISY-XOR"), std::string::npos);
    EXPECT_NE(table.find("MATADOR"), std::string::npos);
    EXPECT_NE(table.find("BRAM"), std::string::npos);

    const std::string summary = matador::core::format_flow_summary(r, "xor");
    EXPECT_NE(summary.find("sparsity"), std::string::npos);
    EXPECT_NE(summary.find("verification"), std::string::npos);
    EXPECT_NE(summary.find("OK"), std::string::npos);
}

}  // namespace
