// End-to-end tests of `matador lint`, the level-0 verify rung as a hard
// gate: the built CLI (its path comes from CMake as MATADOR_CLI_PATH) is
// spawned as a child process on a small trained model.  The design it
// generates must lint clean at --fail-on warning, the JSON report must be
// versioned, warning-free and the same at any worker count, the emitted
// comb modules must lint clean as standalone files, and a file outside the
// structural subset must be a nonzero exit.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "cli_child.hpp"
#include "util/json.hpp"

namespace fs = std::filesystem;

namespace {

using namespace matador::cli_test;
using matador::util::Json;

/// The noisy-xor smoke model (a two-stage chain at bus width 8) and its
/// generated RTL, shared by every test.
class LintCli : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        dir_ = fs::temp_directory_path() / ("matador_lint_cli_" + std::to_string(getpid()));
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        ASSERT_EQ(run({"train", "--dataset", "noisy-xor", "--examples", "40",
                       "--clauses_per_class", "8", "--epochs", "2", "--model-out", model()}),
                  0);
        ASSERT_EQ(run({"generate", "--model", model(), "--bus_width", "8", "--rtl-out", rtl()}),
                  0);
    }
    static void TearDownTestSuite() { fs::remove_all(dir_); }

    static std::string model() { return (dir_ / "ci.tm").string(); }
    static std::string rtl() { return (dir_ / "rtl").string(); }
    static std::string path(const std::string& name) { return (dir_ / name).string(); }

    /// `lint` of the shared model's design at bus width 8 plus `extra`.
    static int lint_design(const std::vector<std::string>& extra, const std::string& out) {
        std::vector<std::string> args = {"lint", "--model", model(), "--bus_width", "8"};
        args.insert(args.end(), extra.begin(), extra.end());
        return run(args, out);
    }

    static fs::path dir_;
};

fs::path LintCli::dir_;

TEST_F(LintCli, GeneratedDesignIsCleanAtFailOnWarning) {
    EXPECT_EQ(lint_design({"--fail-on", "warning"}, path("lint.txt")), 0)
        << read_file(path("lint.txt"));
}

TEST_F(LintCli, JsonReportIsVersionedCleanAndThreadInvariant) {
    ASSERT_EQ(lint_design({"--json", "--train-threads", "1"}, path("t1.json")), 0);
    ASSERT_EQ(lint_design({"--json", "--train-threads", "4"}, path("t4.json")), 0);
    const std::string t1 = read_file(path("t1.json"));
    const Json report = Json::parse(t1);
    EXPECT_EQ(report.at("format").as_string(), "matador-lint-report");
    EXPECT_EQ(report.at("version").as_count(), 1u);
    for (const Json& f : report.at("findings").as_array()) {
        const std::string severity = f.at("severity").as_string();
        EXPECT_TRUE(severity != "error" && severity != "warning") << f.dump();
    }
    EXPECT_GT(report.at("stats").at("ternary").at("outputs_checked").as_count(), 0u);
    // The pooled lint merges its jobs in a fixed order: the same bytes at
    // any worker count.
    EXPECT_EQ(read_file(path("t4.json")), t1);
}

TEST_F(LintCli, EmittedCombModulesLintCleanAndTopIsAnError) {
    std::vector<std::string> args = {"lint"};
    for (const auto& entry : fs::directory_iterator(rtl())) {
        const std::string name = entry.path().filename().string();
        if (name.starts_with("hcb_") && name.ends_with("_comb.v"))
            args.push_back(entry.path().string());
    }
    ASSERT_GT(args.size(), 2u) << "expected a comb module per HCB in " << rtl();
    std::sort(args.begin() + 1, args.end());
    args.insert(args.end(), {"--fail-on", "warning"});
    EXPECT_EQ(run(args, path("comb.txt")), 0) << read_file(path("comb.txt"));
    // The top module lies outside the structural subset that standalone
    // lint parses: a parse-error finding, so a nonzero exit.
    EXPECT_NE(run({"lint", (fs::path(rtl()) / "matador_top.v").string()}, path("top.txt")), 0);
    EXPECT_NE(read_file(path("top.txt")).find("error [parse-error]"), std::string::npos)
        << read_file(path("top.txt"));
}

}  // namespace
