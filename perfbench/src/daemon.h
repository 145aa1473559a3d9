// One `otsched serve` process: spawned with its stdout on a pipe, timed
// from exec to its "listening on" line, sampled through /proc, stopped
// with SIGTERM and reaped.  The destructor SIGKILLs and reaps a daemon
// that was never stopped, and the child asks the kernel to kill it if
// the benchmark dies first, so no daemon outlives a run.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Figures read from /proc/<pid>.
struct ProcSample {
  double cpu_s = 0.0;                 // schedstat on-CPU time
  std::int64_t ctx_switches = 0;      // voluntary + nonvoluntary
  std::int64_t syscw = 0;             // write-family syscalls (/proc/io)
  double hwm_mb = 0.0;                // VmHWM
};

/// Reads a sample of `pid` ("self" works too).  Missing files read 0.
ProcSample ReadProc(const std::string& pid);

/// The CPUs this process may run on, in increasing order.
std::vector<int> AllowedCpus();

/// Pins the calling thread (and the threads and processes it starts
/// afterwards) to `cpus`; false on error.
bool PinToCpus(const std::vector<int>& cpus);
inline bool PinToCpu(int cpu) { return PinToCpus({cpu}); }

class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Starts `exe args...` in `cwd` and waits (up to `timeout_s`) for
  /// its "listening on" line.  Lines printed before it (the recovery
  /// summary) land in pre_listen_lines().  False + diagnostic on
  /// failure.
  /// `cpu` >= 0 pins the daemon to that CPU.
  bool start(const std::string& exe, const std::vector<std::string>& args,
             const std::string& cwd, int cpu, double timeout_s, std::string* error);

  /// Seconds from just before exec to reading "listening on".
  double setup_s() const { return setup_s_; }
  const std::vector<std::string>& pre_listen_lines() const {
    return pre_listen_;
  }
  ProcSample sample() const { return ReadProc(std::to_string(pid_)); }

  /// SIGTERM, wait for exit (up to `timeout_s`), collect the rest of
  /// stdout.  Returns true when the daemon exited 0 after printing its
  /// "drained: N jobs submitted, N finished" line; `drained` gets N
  /// submitted / N finished (-1 when missing).
  bool stop(double timeout_s, std::int64_t* submitted,
            std::int64_t* finished, std::string* error);

 private:
  void kill_now();

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string out_;
  double setup_s_ = 0.0;
  std::vector<std::string> pre_listen_;
};

}  // namespace perfbench
