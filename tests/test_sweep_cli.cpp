// End-to-end tests of the distributed sweep through the CLI: the built
// `matador` (its path comes from CMake as MATADOR_CLI_PATH) runs one grid as
// a plain threaded sweep, as a traced two-shard sweep, as an untraced
// coordinator sweep and as two standalone shard processes merged with
// `sweep-merge`.  Every point's result must be bit-identical: tracing and
// sharding never perturb results, and a second sharded pass rehydrates
// every model and design from the disk tier.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "cli_child.hpp"
#include "util/json.hpp"

namespace fs = std::filesystem;

namespace {

using namespace matador::cli_test;
using matador::util::Json;

/// The CI grid: noisy-xor, 2 bus widths x 2 clocks = 4 points.
std::vector<std::string> grid_args() {
    return {"--dataset", "noisy-xor", "--examples", "40", "--clauses_per_class", "8",
            "--epochs", "2", "--skip_rtl_verification", "true", "--sim_datapoints", "4",
            "--sweep", "bus_width=8,16", "--sweep", "clock_mhz=50,60"};
}

/// `matador sweep <grid> extra...`, stdout to `stdout_path`; its exit code.
int sweep(const std::vector<std::string>& extra, const std::string& stdout_path) {
    std::vector<std::string> args = {"sweep"};
    for (auto v : {grid_args(), extra}) args.insert(args.end(), v.begin(), v.end());
    return run(args, stdout_path);
}

/// index, ok and result of every point, in order.
void expect_same_points(const Json& a, const Json& b) {
    const auto& pa = a.at("points").as_array();
    const auto& pb = b.at("points").as_array();
    ASSERT_EQ(pa.size(), 4u);
    ASSERT_EQ(pb.size(), 4u);
    for (std::size_t i = 0; i < pa.size(); ++i) {
        EXPECT_EQ(pa[i].at("index").as_count(), pb[i].at("index").as_count()) << i;
        EXPECT_EQ(pa[i].at("ok").as_bool(), pb[i].at("ok").as_bool()) << i;
        EXPECT_EQ(pa[i].at("result").dump(), pb[i].at("result").dump()) << i;
    }
}

/// The Table-I rows ("MATADOR ...") of a sweep's text output.
std::string table_rows(const std::string& text) {
    std::istringstream in(text);
    std::string rows;
    for (std::string line; std::getline(in, line);)
        if (line.find("MATADOR") != std::string::npos) rows += line + "\n";
    return rows;
}

TEST(SweepCli, StandaloneShardsMergeFromTheDiskTier) {
    const fs::path dir =
        fs::temp_directory_path() / ("matador_sweep_shards_" + std::to_string(getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string cache = (dir / "cache").string();
    const auto path = [&](const std::string& name) { return (dir / name).string(); };

    // Reference: the grid in one process.  Then an untraced coordinator
    // forks two local shards over the queue in the cache and merges.
    ASSERT_EQ(sweep({"--jobs", "2", "--out", path("single.json")}, path("single.txt")), 0);
    ASSERT_EQ(sweep({"--shards", "2", "--cache-dir", cache, "--out", path("sharded.json")},
                    path("sharded.txt")),
              0);
    expect_same_points(Json::parse(read_file(path("single.json"))),
                       Json::parse(read_file(path("sharded.json"))));
    const std::string rows = table_rows(read_file(path("single.txt")));
    ASSERT_FALSE(rows.empty());
    EXPECT_EQ(table_rows(read_file(path("sharded.txt"))), rows);

    // A second pass over the same store: a fresh queue, two standalone
    // shard processes (the multi-machine form, traced so that each drops
    // its metrics), and an explicit merge.  Every model and design must
    // come from the disk tier.
    fs::remove_all(dir / "cache" / "queue");
    std::vector<pid_t> shards;
    for (const char* id : {"0", "1"}) {
        std::vector<std::string> args = {"sweep"};
        const auto grid = grid_args();
        args.insert(args.end(), grid.begin(), grid.end());
        for (const std::string extra : {"--shard-id", id, "--shards", "2", "--cache-dir"})
            args.push_back(extra);
        args.push_back(cache);
        args.push_back("--trace-out");
        args.push_back(path(std::string("shard") + id + ".trace.json"));
        shards.push_back(spawn(args, "/dev/null", path(std::string("shard") + id + ".txt")).pid);
    }
    for (const pid_t pid : shards) EXPECT_EQ(wait_exit(pid, 120.0), 0);
    ASSERT_EQ(run({"sweep-merge", "--cache-dir", cache}, path("merged.txt")), 0);
    const std::string merged = read_file(path("merged.txt"));
    EXPECT_NE(merged.find("train cache: misses=0"), std::string::npos) << merged;
    EXPECT_NE(merged.find("generate cache: misses=0"), std::string::npos) << merged;
    EXPECT_EQ(table_rows(merged), rows);

    // The shards' metrics drops merge: every point counted once.
    ASSERT_EQ(run({"metrics", cache, "--json"}, path("metrics.json")), 0);
    const Json metrics = Json::parse(read_file(path("metrics.json")));
    std::size_t points_run = 0;
    for (const Json& c : metrics.at("counters").as_array())
        if (c.at("name").as_string() == "shard_points_run") points_run += c.at("value").as_count();
    EXPECT_EQ(points_run, 4u);
    ASSERT_EQ(run({"metrics", cache, "--prometheus"}, path("metrics.prom")), 0);
    EXPECT_NE(read_file(path("metrics.prom")).find("# TYPE shard_points_run counter"),
              std::string::npos);

    // Every model the sweep cached lints clean at both swept bus widths.
    std::size_t models = 0;
    for (const auto& entry : fs::directory_iterator(dir / "cache" / "train")) {
        const fs::path model = entry.path() / "model.tm";
        if (!fs::exists(model)) continue;
        ++models;
        for (const char* bw : {"8", "16"})
            EXPECT_EQ(run({"lint", "--model", model.string(), "--bus_width", bw, "--fail-on",
                           "warning"}),
                      0)
                << model << " at bus width " << bw;
    }
    EXPECT_GT(models, 0u);
    fs::remove_all(dir);
}

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
