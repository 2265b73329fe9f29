// perfbench_launch — runs one command and reports the command's own wall
// time and peak RSS.
//
//   perfbench_launch REPORT PROGRAM [ARGS...]
//
// Writes "<wall seconds> <peak RSS in KiB>" to REPORT and exits with the
// command's exit code (128 + the signal number when a signal ended it).
//
// The harness cannot take a command's peak RSS from its own wait4: a child
// the harness forks or vforks inherits the harness's peak RSS at exec, so
// ru_maxrss reports the larger of the two. This launcher is small, so what
// its child inherits from it stays below any command it measures.

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: perfbench_launch REPORT PROGRAM [ARGS...]\n");
    return 2;
  }
  const pid_t launcher = getpid();
  const auto start = std::chrono::steady_clock::now();
  const pid_t child = fork();
  if (child < 0) {
    std::perror("perfbench_launch: fork");
    return 2;
  }
  if (child == 0) {
    // The command dies with the launcher, so stopping the launcher stops it.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != launcher) _exit(127);
    execvp(argv[2], argv + 2);
    std::perror("perfbench_launch: exec");
    _exit(127);
  }
  int status = 0;
  struct rusage usage {};
  if (wait4(child, &status, 0, &usage) < 0) {
    std::perror("perfbench_launch: wait4");
    return 2;
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  FILE* report = std::fopen(argv[1], "w");
  if (report == nullptr || std::fprintf(report, "%.9f %ld\n", wall, usage.ru_maxrss) < 0 ||
      std::fclose(report) != 0) {
    std::perror("perfbench_launch: report");
    return 2;
  }
  return WIFSIGNALED(status) ? 128 + WTERMSIG(status) : WEXITSTATUS(status);
}
