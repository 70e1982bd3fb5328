// End-to-end test of the sweep's tracing contract through the CLI: the built
// `matador` (its path comes from CMake as MATADOR_CLI_PATH) runs one grid as
// a traced two-shard sweep and as a plain threaded sweep, and every point's
// result must be bit-identical.  Tracing and sharding never perturb results.
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

TEST(SweepCli, TracedShardedSweepMatchesPlainSweep) {
    const fs::path dir =
        fs::temp_directory_path() / ("matador_sweep_cli_" + std::to_string(getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    const auto sweep = [&](const std::string& name, std::vector<std::string> extra) {
        const fs::path out = dir / (name + ".json");
        std::vector<std::string> args = {
            "sweep", "--dataset", "noisy-xor", "--examples", "40",
            "--clauses_per_class", "8", "--epochs", "2",
            "--skip_rtl_verification", "true", "--sim_datapoints", "4",
            "--sweep", "bus_width=8,16", "--sweep", "clock_mhz=50,60",
            "--out", out.string()};
        args.insert(args.end(), extra.begin(), extra.end());
        EXPECT_EQ(run(args), 0) << name;
        return Json::parse(read_file(out));
    };
    const fs::path trace = dir / "t.json";
    const Json traced = sweep("traced", {"--shards", "2", "--cache-dir",
                                         (dir / "cache").string(), "--trace-out",
                                         trace.string()});
    const Json plain = sweep("plain", {"--jobs", "2"});

    const auto& a = traced.at("points").as_array();
    const auto& b = plain.at("points").as_array();
    ASSERT_EQ(a.size(), 4u);
    ASSERT_EQ(b.size(), 4u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].at("index").as_count(), b[i].at("index").as_count()) << i;
        EXPECT_EQ(a[i].at("ok").as_bool(), b[i].at("ok").as_bool()) << i;
        EXPECT_EQ(a[i].at("result").dump(), b[i].at("result").dump()) << i;
    }

    const Json doc = Json::parse(read_file(trace));
    EXPECT_EQ(doc.at("otherData").at("format").as_string(), "matador-trace");
    fs::remove_all(dir);
}

}  // namespace
