// End-to-end tests of `matador train`'s determinism contract: the built CLI
// (its path comes from CMake as MATADOR_CLI_PATH) is spawned as a child
// process, and the exported model files must be byte-identical at one and
// at four trainer threads, and with and without tracing.
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

TEST(TrainCli, ModelFileIsIdenticalAtOneAndFourThreads) {
    const fs::path dir = fs::temp_directory_path() /
                         ("matador_train_cli_" + std::to_string(getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    const auto train = [&](const std::string& threads) {
        const std::string model = (dir / ("t" + threads + ".tm")).string();
        EXPECT_EQ(run({"train", "--dataset", "kws6-like", "--examples", "30",
                       "--clauses_per_class", "20", "--epochs", "3",
                       "--eval-every", "1", "--patience", "2",
                       "--train-threads", threads, "--model-out", model}),
                  0);
        return read_file(model);
    };
    const std::string t1 = train("1");
    const std::string t4 = train("4");
    EXPECT_FALSE(t1.empty());
    EXPECT_EQ(t1, t4);
    fs::remove_all(dir);
}

// A split fraction outside [0, 1] is an error, not a silent full-set fit.
TEST(TrainCli, TrainFractionOutsideUnitIntervalIsRefused) {
    EXPECT_NE(run({"train", "--dataset", "iris-like", "--examples", "30",
                   "--clauses_per_class", "4", "--epochs", "1",
                   "--train-fraction", "-1"}),
              0);
}

// Tracing must never perturb training.  The set is 3,570 training examples
// of 6 classes, so an epoch spans 4 segments and hands classes between
// workers.
TEST(TrainCli, TracedModelIsIdenticalToUntraced) {
    const fs::path dir = fs::temp_directory_path() /
                         ("matador_train_cli_trace_" + std::to_string(getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    const auto train = [&](const std::string& name, std::vector<std::string> extra) {
        const std::string model = (dir / (name + ".tm")).string();
        std::vector<std::string> args = {
            "train", "--dataset", "kws6-like", "--examples", "700",
            "--clauses_per_class", "20", "--epochs", "2", "--train-threads", "4",
            "--model-out", model};
        args.insert(args.end(), extra.begin(), extra.end());
        EXPECT_EQ(run(args), 0);
        return read_file(model);
    };
    const fs::path trace = dir / "trace.json";
    const std::string plain = train("plain", {});
    const std::string traced = train("traced", {"--trace-out", trace.string()});
    EXPECT_FALSE(plain.empty());
    EXPECT_EQ(plain, traced);

    const auto doc = matador::util::Json::parse(read_file(trace));
    std::size_t segment_spans = 0, dataset_spans = 0;
    for (const auto& ev : doc.at("traceEvents").as_array()) {
        segment_spans += ev.at("name").as_string() == "train-segment";
        dataset_spans += ev.at("name").as_string() == "make-dataset";
    }
    EXPECT_GT(segment_spans, 0u);
    // Set-up is on the timeline too: one span for the dataset synthesis.
    EXPECT_EQ(dataset_spans, 1u);
    fs::remove_all(dir);
}

}  // namespace
