// End-to-end tests of `matador prove`, the formal-verification gate: the
// built CLI (its path comes from CMake as MATADOR_CLI_PATH) is spawned as
// a child process on a small trained model.  A plain proof must print
// EQUIVALENT and export the solver's metrics, `verify --verify_sat true`
// must pass, the report must not depend on the worker count or on
// tracing, a trace must name every induction case, an injected netlist
// fault must be refuted with a confirmed counterexample, and exported
// miters must round-trip through the AIGER importer byte for byte.
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

TEST_F(ProveCli, PlainProofIsEquivalentAndExportsSolverMetrics) {
    // Every output proved with a replayed RUP trace plus induction over
    // the chain, and the prover's effort exported through the metrics
    // registry.
    ASSERT_EQ(prove({"--induction", "2", "--metrics-out", path("prove_metrics.json")},
                    path("plain.txt")),
              0);
    const std::string text = read_file(path("plain.txt"));
    EXPECT_NE(text.find("EQUIVALENT"), std::string::npos) << text;
    const Json metrics = Json::parse(read_file(path("prove_metrics.json")));
    EXPECT_EQ(metrics.at("format").as_string(), "matador-metrics");
    EXPECT_EQ(metrics.at("version").as_count(), 1u);
    std::vector<std::string> counters, histograms;
    for (const Json& c : metrics.at("counters").as_array())
        counters.push_back(c.at("name").as_string());
    for (const Json& h : metrics.at("histograms").as_array())
        histograms.push_back(h.at("name").as_string());
    for (const char* name : {"sat_decisions", "sat_conflicts"})
        EXPECT_NE(std::find(counters.begin(), counters.end(), name), counters.end()) << name;
    EXPECT_NE(std::find(histograms.begin(), histograms.end(), "sat_proof_seconds"),
              histograms.end());
}

TEST_F(ProveCli, VerifyWithTheSatTierPasses) {
    // The same proofs as a rung of the verify stage.
    EXPECT_EQ(run({"verify", "--model", model(), "--bus_width", "8", "--verify_vectors", "2",
                   "--verify_sat", "true"}),
              0);
}

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

TEST_F(ProveCli, TracedProofMatchesUntracedAndNamesEveryCase) {
    ASSERT_EQ(prove({"--json"}, path("plain.json")), 0);
    ASSERT_EQ(prove({"--json", "--trace-out", path("prove.trace.json")}, path("traced.json")), 0);
    const Json plain = Json::parse(read_file(path("plain.json")));
    const Json traced = Json::parse(read_file(path("traced.json")));
    EXPECT_EQ(drop_seconds(plain).dump(), drop_seconds(traced).dump());

    // One induction span per report case, in any order, each naming its
    // case and verdict and carrying the lemma and search counts.
    std::vector<std::string> want, got;
    for (const Json& c : traced.at("induction").as_array())
        want.push_back(std::string(c.at("is_base").as_bool() ? "induction-base " : "induction-step ") +
                       std::to_string(c.at("index").as_count()) + " " +
                       c.at("result").as_string());
    const Json trace = Json::parse(read_file(path("prove.trace.json")));
    std::size_t miter_spans = 0;
    for (const Json& ev : trace.at("traceEvents").as_array()) {
        const std::string name = ev.at("name").as_string();
        if (name == "hcb-miter") {
            EXPECT_TRUE(ev.at("args").contains("hcb"));
            ++miter_spans;
        }
        if (name != "induction-base" && name != "induction-step") continue;
        const Json& args = ev.at("args");
        for (const char* key : {"lemmas", "decisions", "conflicts"})
            EXPECT_TRUE(args.contains(key)) << name << " lacks " << key;
        got.push_back(name + " " + std::to_string(args.at("index").as_count()) + " " +
                      args.at("result").as_string());
    }
    ASSERT_FALSE(want.empty());
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want);
    // One miter build per HCB that has outputs.
    std::vector<std::size_t> hcbs;
    for (const Json& o : traced.at("outputs").as_array()) hcbs.push_back(o.at("hcb").as_count());
    hcbs.erase(std::unique(hcbs.begin(), hcbs.end()), hcbs.end());
    EXPECT_EQ(miter_spans, hcbs.size());
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
