// End-to-end tests of `matador serve` through real pipes: the built CLI
// (its path comes from CMake as MATADOR_CLI_PATH) is spawned as a child
// process, exactly as a client would run it.
#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli_child.hpp"
#include "util/json.hpp"

namespace fs = std::filesystem;

namespace {

using namespace matador::cli_test;
using matador::util::Json;

/// One trained model plus `eval`'s golden predictions and the request
/// stream that should reproduce them, shared by every test.
class ServeCli : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        signal(SIGPIPE, SIG_IGN);  // a dead child must fail a check, not us
        dir_ = fs::temp_directory_path() /
               ("matador_serve_cli_" + std::to_string(getpid()));
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        ASSERT_EQ(run({"train", "--dataset", "iris-like", "--examples", "150",
                       "--clauses_per_class", "20", "--epochs", "5",
                       "--model-out", model()}),
                  0);
        ASSERT_EQ(run({"eval", "--model", model(), "--dataset", "iris-like",
                       "--examples", "150", "--predictions-out", golden(),
                       "--dump-requests", requests()}),
                  0);
    }
    static void TearDownTestSuite() { fs::remove_all(dir_); }

    static std::string model() { return (dir_ / "iris.tm").string(); }
    static std::string golden() { return (dir_ / "offline.txt").string(); }
    static std::string requests() { return (dir_ / "requests.ndjson").string(); }

    static fs::path dir_;
};

fs::path ServeCli::dir_;

TEST_F(ServeCli, OneOutstandingRequestIsAnsweredWithoutAnotherLine) {
    std::istringstream reqs(read_file(requests()));
    std::string first;
    ASSERT_TRUE(std::getline(reqs, first));
    std::istringstream preds(read_file(golden()));
    std::string want;
    ASSERT_TRUE(std::getline(preds, want));

    Child child = spawn({"serve", "--model", model()});
    first += "\n";
    ASSERT_EQ(write(child.to_stdin, first.data(), first.size()),
              ssize_t(first.size()));

    // Keep stdin open and send nothing more: the reply must come anyway.
    std::string reply;
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    while (reply.find('\n') == std::string::npos && Clock::now() < deadline) {
        pollfd p{child.from_stdout, POLLIN, 0};
        if (poll(&p, 1, 50) <= 0) continue;
        char buf[4096];
        const ssize_t n = read(child.from_stdout, buf, sizeof buf);
        if (n <= 0) break;
        reply.append(buf, std::size_t(n));
    }
    close(child.to_stdin);
    ASSERT_NE(reply.find('\n'), std::string::npos)
        << "no reply within 5 s to a lone request (got '" << reply << "')";
    const Json r = Json::parse(reply.substr(0, reply.find('\n')));
    EXPECT_TRUE(r.at("ok").as_bool()) << reply;
    EXPECT_EQ(r.at("id").as_double(), 0.0);
    EXPECT_EQ(std::to_string(std::uint32_t(r.at("prediction").as_double())),
              want);

    char buf[4096];
    while (read(child.from_stdout, buf, sizeof buf) > 0) {
    }
    close(child.from_stdout);
    EXPECT_EQ(wait_exit(child.pid, 30.0), 0);
}

TEST_F(ServeCli, ServedPredictionsAreByteIdenticalToEval) {
    const std::string replies = (dir_ / "replies.ndjson").string();
    const Child child = spawn({"serve", "--model", model()}, requests(), replies);
    ASSERT_EQ(wait_exit(child.pid, 60.0), 0);

    std::istringstream lines(read_file(replies));
    std::string served;
    std::size_t k = 0;
    for (std::string line; std::getline(lines, line); ++k) {
        const Json r = Json::parse(line);
        ASSERT_TRUE(r.at("ok").as_bool()) << line;
        ASSERT_EQ(r.at("id").as_double(), double(k)) << "replies out of order";
        served += std::to_string(std::uint32_t(r.at("prediction").as_double()));
        served += "\n";
    }
    EXPECT_GT(k, 0u);
    EXPECT_EQ(served, read_file(golden()));
}

TEST_F(ServeCli, StatusFileAndHotSwapSession) {
    // The status snapshot a labelled session leaves behind reads back in
    // both renderings.
    const std::string status = (dir_ / "status.json").string();
    const Child child = spawn({"serve", "--model", model(), "--status-file",
                               status},
                              requests(), "/dev/null");
    ASSERT_EQ(wait_exit(child.pid, 60.0), 0);
    EXPECT_EQ(run({"serve-status", status}), 0);
    const std::string status_json = (dir_ / "status_out.json").string();
    ASSERT_EQ(run({"serve-status", status, "--json"}, status_json), 0);
    const Json doc = Json::parse(read_file(status_json));
    EXPECT_EQ(doc.at("format").as_string(), "matador-serve-status");
    ASSERT_FALSE(doc.at("models").as_array().empty());
    const std::string hash =
        doc.at("models").as_array()[0].at("hash").as_string();

    // Re-point the default alias at the model's own hash mid-session, keep
    // predicting, then shut down.
    std::istringstream reqs(read_file(requests()));
    std::string first;
    ASSERT_TRUE(std::getline(reqs, first));
    Json swap = Json::object();
    swap.set("op", "swap");
    swap.set("alias", "default");
    swap.set("target", hash);
    const std::string session = (dir_ / "swap_session.ndjson").string();
    {
        std::ofstream out(session);
        out << first << "\n"
            << swap.dump() << "\n"
            << first << "\n"
            << R"({"op": "shutdown", "id": 99})" << "\n";
    }
    const std::string replies = (dir_ / "swap_replies.ndjson").string();
    const Child swapper = spawn({"serve", "--model", model()}, session, replies);
    ASSERT_EQ(wait_exit(swapper.pid, 60.0), 0);

    std::vector<Json> rs;
    std::istringstream lines(read_file(replies));
    for (std::string line; std::getline(lines, line);)
        rs.push_back(Json::parse(line));
    ASSERT_EQ(rs.size(), 4u);
    for (const Json& r : rs) EXPECT_TRUE(r.at("ok").as_bool()) << r.dump();
    EXPECT_EQ(rs[0].at("prediction").as_double(),
              rs[2].at("prediction").as_double());
    EXPECT_EQ(rs[1].at("op").as_string(), "swap");
    EXPECT_EQ(rs[3].at("id").as_double(), 99.0);
}

TEST_F(ServeCli, EvalRefusesAFeatureWidthMismatch) {
    // A model/dataset width mismatch is a typed error, not garbage
    // predictions: eval diagnoses it before predicting anything.
    const std::string err = (dir_ / "mismatch.txt").string();
    EXPECT_NE(run({"eval", "--model", model(), "--dataset", "noisy-xor"},
                  "/dev/null", err),
              0);
    EXPECT_NE(read_file(err).find("feature-mismatch"), std::string::npos)
        << read_file(err);
}

}  // namespace
