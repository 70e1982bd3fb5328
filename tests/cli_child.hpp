// Spawning the built `matador` CLI from a test: its path comes from CMake
// as MATADOR_CLI_PATH, and the child runs exactly as a user would run it.
#pragma once

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

extern char** environ;

namespace matador::cli_test {

using Clock = std::chrono::steady_clock;

/// A spawned `matador` with optional pipes to its stdin and stdout.
struct Child {
    pid_t pid = -1;
    int to_stdin = -1;     ///< write end, when stdin is a pipe
    int from_stdout = -1;  ///< read end, when stdout is a pipe
};

/// Spawn `matador args...`.  An empty `stdin_path` / `stdout_path` gives
/// a pipe on that side; stderr goes to `stderr_path`.
inline Child spawn(const std::vector<std::string>& args,
                   const std::string& stdin_path = "",
                   const std::string& stdout_path = "",
                   const std::string& stderr_path = "/dev/null") {
    int in_pipe[2] = {-1, -1};
    int out_pipe[2] = {-1, -1};
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    if (stdin_path.empty()) {
        EXPECT_EQ(pipe(in_pipe), 0);
        posix_spawn_file_actions_adddup2(&actions, in_pipe[0], 0);
        posix_spawn_file_actions_addclose(&actions, in_pipe[1]);
    } else {
        posix_spawn_file_actions_addopen(&actions, 0, stdin_path.c_str(),
                                         O_RDONLY, 0);
    }
    if (stdout_path.empty()) {
        EXPECT_EQ(pipe(out_pipe), 0);
        posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
        posix_spawn_file_actions_addclose(&actions, out_pipe[0]);
    } else {
        posix_spawn_file_actions_addopen(&actions, 1, stdout_path.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
    }
    posix_spawn_file_actions_addopen(&actions, 2, stderr_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);

    std::vector<std::string> argv_s = {MATADOR_CLI_PATH};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (auto& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);

    Child child;
    EXPECT_EQ(posix_spawn(&child.pid, argv[0], &actions, nullptr, argv.data(),
                          environ),
              0);
    posix_spawn_file_actions_destroy(&actions);
    if (stdin_path.empty()) {
        close(in_pipe[0]);
        child.to_stdin = in_pipe[1];
    }
    if (stdout_path.empty()) {
        close(out_pipe[1]);
        child.from_stdout = out_pipe[0];
    }
    return child;
}

/// Exit code of `pid`, or -1 if it had to be killed after `seconds`.
inline int wait_exit(pid_t pid, double seconds) {
    const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
    int status = 0;
    while (waitpid(pid, &status, WNOHANG) == 0) {
        if (Clock::now() > deadline) {
            kill(pid, SIGKILL);
            waitpid(pid, &status, 0);
            return -1;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Run `matador args...` to completion with stdout to `stdout_path` and
/// stderr to `stderr_path`; its exit code, or -1 if it had to be killed
/// after 120 s.
inline int run(const std::vector<std::string>& args,
               const std::string& stdout_path = "/dev/null",
               const std::string& stderr_path = "/dev/null") {
    const Child child = spawn(args, "/dev/null", stdout_path, stderr_path);
    return wait_exit(child.pid, 120.0);
}

inline std::string read_file(const std::filesystem::path& path) {
    std::ifstream f(path, std::ios::binary);
    std::ostringstream s;
    s << f.rdbuf();
    return s.str();
}

}  // namespace matador::cli_test
