// End-to-end test of the artifact store's disk tier through the CLI: the
// built `matador` (its path comes from CMake as MATADOR_CLI_PATH) runs the
// same sweep twice over one fresh --cache-dir, and the second process must
// train and generate nothing.  `matador cache` must then count, list and
// clear the entries.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "cli_child.hpp"

namespace fs = std::filesystem;

namespace {

using namespace matador::cli_test;

/// The line of `text` that starts with `prefix` ("" when there is none).
std::string line_starting(const std::string& text, const std::string& prefix) {
    const auto pos = text.find(prefix);
    if (pos == std::string::npos || (pos > 0 && text[pos - 1] != '\n')) return "";
    return text.substr(pos, text.find('\n', pos) - pos);
}

TEST(CacheCli, RestartedSweepRehydratesFromDiskAndCacheCommandsWork) {
    const fs::path dir =
        fs::temp_directory_path() / ("matador_cache_cli_" + std::to_string(getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string cache = (dir / "cache").string();
    const auto matador = [&](std::vector<std::string> args, const std::string& name) {
        const fs::path out = dir / name;
        EXPECT_EQ(run(args, out.string()), 0) << name;
        return read_file(out);
    };
    const std::vector<std::string> sweep = {
        "sweep", "--dataset", "noisy-xor", "--examples", "40",
        "--clauses_per_class", "8", "--epochs", "2",
        "--skip_rtl_verification", "true", "--sim_datapoints", "4",
        "--sweep", "bus_width=8,16", "--jobs", "2", "--cache-dir", cache};

    const std::string pass1 = matador(sweep, "pass1.txt");
    EXPECT_NE(line_starting(pass1, "train cache: misses=1 "), "") << pass1;

    // A second process over the same cache: everything comes from disk.
    const std::string pass2 = matador(sweep, "pass2.txt");
    EXPECT_NE(line_starting(pass2, "train cache: misses=0 "), "") << pass2;
    const std::string generate = line_starting(pass2, "generate cache: misses=0 ");
    EXPECT_NE(generate.find("disk_hits=2"), std::string::npos) << pass2;
    EXPECT_NE(line_starting(pass2, "proof cache: "), "") << pass2;

    const std::string stats = matador({"cache", "stats", "--cache-dir", cache}, "stats.txt");
    EXPECT_NE(stats.find("  train:    1 entries"), std::string::npos) << stats;
    EXPECT_NE(stats.find("  generate: 2 entries"), std::string::npos) << stats;
    const std::string ls = matador({"cache", "ls", "--cache-dir", cache}, "ls.txt");
    EXPECT_NE(ls.find("generate"), std::string::npos) << ls;
    matador({"cache", "clear", "--cache-dir", cache}, "clear.txt");
    const std::string empty = matador({"cache", "ls", "--cache-dir", cache}, "empty.txt");
    EXPECT_NE(empty.find("no artifacts"), std::string::npos) << empty;
    fs::remove_all(dir);
}

}  // namespace
