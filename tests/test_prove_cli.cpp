// End-to-end tests of `matador prove`, the formal-verification gate: the
// built CLI (its path comes from CMake as MATADOR_CLI_PATH) is spawned as
// a child process on a small trained model.  The report must not depend
// on the worker count, an injected netlist fault must be refuted with a
// confirmed counterexample, and exported miters must round-trip through
// the AIGER importer byte for byte.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "cli_child.hpp"
#include "util/json.hpp"

namespace fs = std::filesystem;

namespace {

using namespace matador::cli_test;
using matador::util::Json;

/// `doc` with every "seconds" member removed, at any depth.
Json drop_seconds(const Json& doc) {
    if (doc.is_array()) {
        Json out = Json::array();
        for (const Json& v : doc.as_array()) out.push_back(drop_seconds(v));
        return out;
    }
    if (!doc.is_object()) return doc;
    Json out = Json::object();
    for (const auto& [key, value] : doc.as_object())
        if (key != "seconds") out.set(key, drop_seconds(value));
    return out;
}

/// One small trained model shared by every test (the noisy-xor smoke
/// model: a two-stage chain at bus width 8).
class ProveCli : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        dir_ = fs::temp_directory_path() /
               ("matador_prove_cli_" + std::to_string(getpid()));
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        ASSERT_EQ(run({"train", "--dataset", "noisy-xor", "--examples", "40",
                       "--clauses_per_class", "8", "--epochs", "2",
                       "--model-out", model()}),
                  0);
    }
    static void TearDownTestSuite() { fs::remove_all(dir_); }

    static std::string model() { return (dir_ / "ci.tm").string(); }
    static std::string path(const std::string& name) { return (dir_ / name).string(); }

    /// `prove` on the shared model at bus width 8 plus `extra` flags.
    static int prove(const std::vector<std::string>& extra, const std::string& out) {
        std::vector<std::string> args = {"prove", "--model", model(), "--bus_width", "8"};
        args.insert(args.end(), extra.begin(), extra.end());
        return run(args, out);
    }

    static fs::path dir_;
};

fs::path ProveCli::dir_;

TEST_F(ProveCli, JsonReportIsIdenticalAtOneAndFourThreads) {
    // Induction depth 1 over the two stages: one base case, one step.
    ASSERT_EQ(prove({"--json", "--train-threads", "1"}, path("t1.json")), 0);
    ASSERT_EQ(prove({"--json", "--train-threads", "4"}, path("t4.json")), 0);
    const Json t1 = Json::parse(read_file(path("t1.json")));
    const Json t4 = Json::parse(read_file(path("t4.json")));
    EXPECT_TRUE(t1.at("equivalent").as_bool());
    EXPECT_EQ(t1.at("induction").as_array().size(), 2u);
    EXPECT_EQ(drop_seconds(t1).dump(), drop_seconds(t4).dump());
}

TEST_F(ProveCli, InjectedFaultIsRefutedWithConfirmedCounterexample) {
    EXPECT_NE(prove({"--inject-fault", "0"}, path("mutated.txt")), 0);
    const std::string text = read_file(path("mutated.txt"));
    EXPECT_NE(text.find("NOT PROVED"), std::string::npos) << text;
    EXPECT_NE(text.find("[confirmed]"), std::string::npos) << text;
}

TEST_F(ProveCli, ExportedMitersRoundTripThroughTheAigerImporter) {
    for (const std::string ext : {".aag", ".aig"}) {
        const std::string miter = path("miter" + ext);
        const std::string back = path("miter_rt" + ext);
        ASSERT_EQ(prove({"--miter-out", miter}, "/dev/null"), 0) << ext;
        ASSERT_EQ(run({"aig", "import", miter, "--out", back}), 0) << ext;
        const std::string bytes = read_file(miter);
        EXPECT_FALSE(bytes.empty()) << ext;
        EXPECT_EQ(bytes, read_file(back)) << ext;
    }
}

}  // namespace
