// Runs a tool binary through the shell and captures its exit code,
// stdout and stderr, for the suites that pin command-line behaviour.
#pragma once

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace sunfloor::cli {

struct CliRun {
    int exit_code = -1;
    std::string out;  ///< stdout
    std::string err;  ///< stderr
};

/// Run `binary args`; stdout is read from a pipe, stderr from a
/// temporary file.
inline CliRun run_tool(const std::string& binary, const std::string& args) {
    std::string err_path =
        (std::filesystem::temp_directory_path() / "sunfloor_stderr_XXXXXX")
            .string();
    const int fd = mkstemp(err_path.data());
    if (fd >= 0) close(fd);
    const std::string cmd = binary + " " + args + " 2>" + err_path;
    CliRun run;
    if (FILE* pipe = popen(cmd.c_str(), "r")) {
        char buf[4096];
        std::size_t n = 0;
        while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0)
            run.out.append(buf, n);
        const int status = pclose(pipe);
        run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    std::ostringstream err;
    err << std::ifstream(err_path).rdbuf();
    run.err = err.str();
    std::remove(err_path.c_str());
    return run;
}

}  // namespace sunfloor::cli
