#include "rtl/generators.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "model/architecture.hpp"
#include "rtl/testbench_gen.hpp"
#include "rtl/verilog_writer.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace {

using namespace matador::rtl;
using matador::model::ArchOptions;
using matador::model::TrainedModel;
using matador::model::derive_architecture;
using matador::util::BitVector;

TrainedModel demo_model() {
    TrainedModel m(130, 2, 4);
    m.clause(0, 0).include_pos.set(0);
    m.clause(0, 0).include_neg.set(65);
    m.clause(0, 1).include_pos.set(64);
    m.clause(0, 2).include_pos.set(129);
    m.clause(1, 0).include_pos.set(0);
    m.clause(1, 0).include_pos.set(129);
    return m;
}

RtlDesign demo_design() {
    const auto m = demo_model();
    ArchOptions o;
    return generate_rtl(m, derive_architecture(m, o));
}

TEST(RtlDesign, ModuleInventory) {
    const auto d = demo_design();
    EXPECT_EQ(d.hcb_comb.size(), 3u);
    EXPECT_EQ(d.hcb_seq.size(), 3u);
    EXPECT_EQ(d.class_sum.name, "class_sum");
    EXPECT_EQ(d.argmax.name, "argmax_tree");
    EXPECT_EQ(d.controller.name, "matador_ctrl");
    EXPECT_EQ(d.top.name, "matador_top");
}

TEST(RtlDesign, HcbCombUsesOnlyStructuralSubset) {
    const auto d = demo_design();
    for (const auto& text : d.hcb_comb) {
        EXPECT_EQ(text.find("always"), std::string::npos);
        EXPECT_EQ(text.find("?"), std::string::npos);
        EXPECT_NE(text.find("assign"), std::string::npos);
    }
}

TEST(RtlDesign, HcbSeqInstantiatesComb) {
    const auto d = demo_design();
    const std::string text = emit_module(d.hcb_seq[1]);
    EXPECT_NE(text.find("hcb_1_comb u_comb"), std::string::npos);
    EXPECT_NE(text.find("if (en)"), std::string::npos);
    EXPECT_NE(text.find("pc_out <= pc_comb;"), std::string::npos);
}

TEST(RtlDesign, TopWiresChainFromProducingHcb) {
    const auto d = demo_design();
    const std::string text = emit_module(d.top);
    // Clause 0's chain into HCB1 comes from HCB0's register bit 0.
    EXPECT_NE(text.find(".chain_in(hcb0_out[0])"), std::string::npos);
    // Final clause taps reference each clause's last active HCB.
    EXPECT_NE(text.find("clause_final"), std::string::npos);
    EXPECT_NE(text.find("matador_ctrl u_ctrl"), std::string::npos);
    EXPECT_NE(text.find("class_sum u_class_sum"), std::string::npos);
    EXPECT_NE(text.find("argmax_tree u_argmax"), std::string::npos);
}

TEST(RtlDesign, ClassSumSplitsPolarity) {
    const auto d = demo_design();
    const std::string text = emit_module(d.class_sum);
    EXPECT_NE(text.find("pos_0"), std::string::npos);
    EXPECT_NE(text.find("neg_0"), std::string::npos);
    EXPECT_NE(text.find("pos_0 - neg_0"), std::string::npos);
}

TEST(RtlDesign, ArgmaxTiesToLowerIndexViaGe) {
    const auto d = demo_design();
    const std::string text = emit_module(d.argmax);
    EXPECT_NE(text.find(">="), std::string::npos);
    EXPECT_NE(text.find("$signed"), std::string::npos);
}

TEST(RtlDesign, ControllerHandlesWrapAndValid) {
    const auto d = demo_design();
    const std::string text = emit_module(d.controller);
    EXPECT_NE(text.find("packet_index == 32'd2"), std::string::npos);  // 3 packets
    EXPECT_NE(text.find("result_valid"), std::string::npos);
    EXPECT_NE(text.find("valid_pipe"), std::string::npos);
}

TEST(RtlDesign, DontTouchPropagatesToCombModules) {
    const auto m = demo_model();
    ArchOptions o;
    const auto d = generate_rtl(m, derive_architecture(m, o), /*strash=*/false);
    EXPECT_NE(d.hcb_comb[0].find("DONT_TOUCH"), std::string::npos);
    EXPECT_EQ(demo_design().hcb_comb[0].find("DONT_TOUCH"), std::string::npos);
}

TEST(RtlDesign, WriteDesignEmitsAllFiles) {
    const auto d = demo_design();
    const std::string dir = ::testing::TempDir() + "matador_rtl_test";
    std::filesystem::remove_all(dir);
    const auto files = write_design(d, dir);
    // 3 comb + 3 seq + class_sum + argmax + ctrl + top = 10.
    EXPECT_EQ(files.size(), 10u);
    for (const auto& f : files) {
        EXPECT_TRUE(std::filesystem::exists(f)) << f;
        EXPECT_GT(std::filesystem::file_size(f), 0u) << f;
    }
    std::filesystem::remove_all(dir);
}

/// 32 features over an 8-bit bus (4 packets) with the corner cases of the
/// chain: packet 3 holds no include (its comb module has no outputs),
/// C[0][0] skips packet 1 (HCB 2 chains it from HCB 0), C[0][1] and C[0][3]
/// are a bare input and a bare inverted input, C[0][2] includes bit 2 both
/// ways (a 1'b0 output, chained on into HCB 1), C[1][2] is empty (pruned).
TrainedModel edge_model() {
    std::stringstream text(
        "MATADOR-TM v1\nfeatures 32\nclasses 2\nclauses_per_class 4\n"
        "clause 0 0 1 pos 1 3 neg 20\n"
        "clause 0 1 -1 pos 9 neg\n"
        "clause 0 2 1 pos 2 10 neg 2\n"
        "clause 0 3 -1 pos neg 12\n"
        "clause 1 0 1 pos 1 3 17 neg\n"
        "clause 1 1 -1 pos 14 neg 5 22\n"
        "clause 1 2 1 pos neg\n"
        "clause 1 3 -1 pos 0 1 3 neg\n"
        "end\n");
    return TrainedModel::load(text);
}

/// 40 features, 3 classes of 6 clauses, ~10% of literals included per sign.
TrainedModel random_model() {
    TrainedModel m(40, 3, 6);
    matador::util::Xoshiro256ss rng(2024);
    for (std::size_t c = 0; c < 3; ++c)
        for (std::size_t j = 0; j < 6; ++j)
            for (std::size_t f = 0; f < 40; ++f) {
                const double r = rng.uniform();
                if (r < 0.1) m.clause(c, j).include_pos.set(f);
                else if (r < 0.2) m.clause(c, j).include_neg.set(f);
            }
    return m;
}

/// "<file> <crc32>" per file write_design wrote, in its order.
std::string written_file_crcs(const RtlDesign& d, const std::string& dir) {
    std::filesystem::remove_all(dir);
    std::string out;
    for (const auto& path : write_design(d, dir)) {
        std::ifstream f(path, std::ios::binary);
        std::stringstream bytes;
        bytes << f.rdbuf();
        char crc[16];
        std::snprintf(crc, sizeof crc, "%08x", matador::util::crc32(bytes.str()));
        out += std::filesystem::path(path).filename().string() + " " + crc + "\n";
    }
    std::filesystem::remove_all(dir);
    return out;
}

TEST(RtlDesign, WrittenFilesMatchRecordedHashes) {
    // Every byte write_design writes, pinned for small designs with and
    // without strash.  Any change to the emitted text fails here.
    struct Case {
        const char* name;
        TrainedModel model;
        bool strash;
        const char* want;
    };
    const Case cases[] = {
        {"edge strash", edge_model(), true,
            "hcb_0_comb.v 5e8adddf\n"
            "hcb_1_comb.v ce83a307\n"
            "hcb_2_comb.v c0d76cf0\n"
            "hcb_3_comb.v bac88c47\n"
            "hcb_0.v b10559b9\n"
            "hcb_1.v 682e515f\n"
            "hcb_2.v 912fc2a7\n"
            "hcb_3.v 564477b9\n"
            "class_sum.v 7a7ef683\n"
            "argmax_tree.v 22b83c55\n"
            "matador_ctrl.v ef57abdd\n"
            "matador_top.v 6c3d53a0\n"},
        {"edge dont_touch", edge_model(), false,
            "hcb_0_comb.v 3a79dffc\n"
            "hcb_1_comb.v 6d1e542c\n"
            "hcb_2_comb.v 788cdbc3\n"
            "hcb_3_comb.v 327736af\n"
            "hcb_0.v b10559b9\n"
            "hcb_1.v 682e515f\n"
            "hcb_2.v 912fc2a7\n"
            "hcb_3.v 564477b9\n"
            "class_sum.v 7a7ef683\n"
            "argmax_tree.v 22b83c55\n"
            "matador_ctrl.v ef57abdd\n"
            "matador_top.v 6c3d53a0\n"},
        {"random strash", random_model(), true,
            "hcb_0_comb.v 97a36b3e\n"
            "hcb_1_comb.v e85ae6d7\n"
            "hcb_2_comb.v 08bc320b\n"
            "hcb_3_comb.v a75a84e0\n"
            "hcb_4_comb.v 53519565\n"
            "hcb_0.v 4c63d5fc\n"
            "hcb_1.v bacab42e\n"
            "hcb_2.v 4a83952d\n"
            "hcb_3.v 932ca85f\n"
            "hcb_4.v c61a4732\n"
            "class_sum.v 40a76332\n"
            "argmax_tree.v 1fea9eaa\n"
            "matador_ctrl.v 8157686a\n"
            "matador_top.v 7bcd7c2e\n"},
        {"random dont_touch", random_model(), false,
            "hcb_0_comb.v da59b3f9\n"
            "hcb_1_comb.v 6c9f915c\n"
            "hcb_2_comb.v 8e9be9a0\n"
            "hcb_3_comb.v 8c49fd63\n"
            "hcb_4_comb.v cf66ff4e\n"
            "hcb_0.v 4c63d5fc\n"
            "hcb_1.v bacab42e\n"
            "hcb_2.v 4a83952d\n"
            "hcb_3.v 932ca85f\n"
            "hcb_4.v c61a4732\n"
            "class_sum.v 40a76332\n"
            "argmax_tree.v 1fea9eaa\n"
            "matador_ctrl.v 8157686a\n"
            "matador_top.v 7bcd7c2e\n"},
    };
    for (const auto& c : cases) {
        ArchOptions o;
        o.bus_width = 8;
        const auto d = generate_rtl(c.model, derive_architecture(c.model, o), c.strash);
        EXPECT_EQ(written_file_crcs(d, ::testing::TempDir() + "matador_rtl_crc"), c.want)
            << c.name;
    }
}

TEST(Testbench, SelfCheckingStructure) {
    const auto m = demo_model();
    ArchOptions o;
    const auto d = generate_rtl(m, derive_architecture(m, o));
    std::vector<BitVector> inputs;
    BitVector x(130);
    x.set(0);
    inputs.push_back(x);
    inputs.push_back(BitVector(130));
    const std::string tb = generate_testbench(d, m, inputs);
    EXPECT_NE(tb.find("module matador_tb;"), std::string::npos);
    EXPECT_NE(tb.find("matador_top dut"), std::string::npos);
    EXPECT_NE(tb.find("MATADOR-TB PASS"), std::string::npos);
    EXPECT_NE(tb.find("initiation interval"), std::string::npos);
    // 2 datapoints x 3 packets of stimulus.
    EXPECT_NE(tb.find("stimulus[5]"), std::string::npos);
    EXPECT_EQ(tb.find("stimulus[6]"), std::string::npos);
    // Expected predictions baked in.
    EXPECT_NE(tb.find("expected[1]"), std::string::npos);
}

TEST(Testbench, IlaStubTapsAxiAndResult) {
    const auto d = demo_design();
    const std::string ila = generate_ila_stub(d);
    EXPECT_NE(ila.find("probe0(s_axis_tvalid & s_axis_tready)"), std::string::npos);
    EXPECT_NE(ila.find("result_valid"), std::string::npos);
    EXPECT_NE(ila.find("no BRAM"), std::string::npos);
}

}  // namespace
