// Re-executing a test binary as its own child process.  The thread pool's
// size is latched at first use, so a test that compares or pins thread
// counts runs a fresh copy of its binary with KINET_NUM_THREADS set, in a
// child mode selected by a command-line flag handled in that test's main().
#ifndef KINETGAN_TESTS_RUN_SELF_H
#define KINETGAN_TESTS_RUN_SELF_H

#include <cstdio>
#include <string>
#include <unistd.h>

namespace kinet::testing {

/// Path of this test binary, or "" where /proc/self/exe is unavailable.
inline std::string self_exe() {
    char exe[4096];
    const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    return len > 0 ? std::string(exe, static_cast<std::size_t>(len)) : std::string();
}

/// Re-executes this binary as `env <exe> flag` and returns its stdout, with
/// "exit status <rc>" appended when the child fails.
inline std::string run_self(const std::string& env, const std::string& flag) {
    const std::string cmd = env + " '" + self_exe() + "' " + flag + " 2>/dev/null";
    FILE* pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr) {
        return "popen failed";
    }
    std::string out;
    char buf[256];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
        out += buf;
    }
    const int rc = pclose(pipe);
    if (rc != 0) {
        out += "exit status " + std::to_string(rc) + "\n";
    }
    return out;
}

}  // namespace kinet::testing

#endif  // KINETGAN_TESTS_RUN_SELF_H
