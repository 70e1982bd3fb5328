// End-to-end test of `matador train`'s determinism contract: the built CLI
// (its path comes from CMake as MATADOR_CLI_PATH) is spawned as a child
// process at one and at four trainer threads, with early stopping on, and
// the two exported model files must be byte-identical.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "cli_child.hpp"

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

}  // namespace
