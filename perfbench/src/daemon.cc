#include "daemon.h"

#include <fcntl.h>
#include <sched.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "spans.h"

namespace perfbench {
namespace {

std::int64_t FieldAfter(const std::string& text, const std::string& key) {
  const std::size_t at = text.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoll(text.c_str() + at + key.size(), nullptr, 10);
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(SpanRecorder::NowNs() - start_ns) / 1e9;
}

/// Starts argv[0] with stdout on `out_fd`, in `cwd`, on `cpus` (null:
/// anywhere), killed when this process dies.  vfork: the child borrows
/// this process's memory until it execs, so set-up time does not grow
/// with the benchmark's own size (a fork copies its page tables); the
/// child therefore only makes system calls.  Returns the pid, or -1.
pid_t Spawn(char* const* argv, const char* cwd, int out_fd, const cpu_set_t* cpus) {
  const pid_t parent = ::getpid();
  const pid_t pid = ::vfork();
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(out_fd, STDOUT_FILENO);
    if (::chdir(cwd) != 0) ::_exit(127);
    if (cpus != nullptr && ::sched_setaffinity(0, sizeof(*cpus), cpus) != 0) ::_exit(127);
    ::execv(argv[0], argv);
    ::_exit(127);
  }
  return pid;
}

}  // namespace

ProcSample ReadProc(const std::string& pid) {
  const std::string base = "/proc/" + pid + "/";
  ProcSample sample;
  sample.cpu_s = static_cast<double>(std::strtoll(
                     Slurp(base + "schedstat").c_str(), nullptr, 10)) /
                 1e9;
  const std::string status = Slurp(base + "status");
  sample.ctx_switches = FieldAfter(status, "\nvoluntary_ctxt_switches:") +
                        FieldAfter(status, "\nnonvoluntary_ctxt_switches:");
  sample.hwm_mb =
      static_cast<double>(FieldAfter(status, "\nVmHWM:")) / 1024.0;
  std::string io = "\n";
  io += Slurp(base + "io");
  sample.syscw = FieldAfter(io, "\nsyscw:");
  return sample;
}

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

bool PinToCpus(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  return ::sched_setaffinity(0, sizeof(set), &set) == 0;
}

Daemon::~Daemon() { kill_now(); }

void Daemon::kill_now() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
}

bool Daemon::start(const std::string& exe, const std::vector<std::string>& args,
                   const std::string& cwd, int cpu, double timeout_s,
                   std::string* error) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  std::vector<std::string> argv_storage;
  argv_storage.push_back(exe);
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  if (cpu >= 0) CPU_SET(cpu, &cpus);

  const std::int64_t start_ns = SpanRecorder::NowNs();
  const pid_t pid = Spawn(argv.data(), cwd.c_str(), pipe_fds[1], cpu >= 0 ? &cpus : nullptr);
  if (pid < 0) {
    *error = std::string("vfork: ") + std::strerror(errno);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return false;
  }
  ::close(pipe_fds[1]);
  pid_ = pid;
  out_fd_ = pipe_fds[0];

  while (true) {
    const std::size_t newline = out_.find('\n');
    if (newline != std::string::npos) {
      const std::string line = out_.substr(0, newline);
      out_.erase(0, newline + 1);
      if (line.rfind("listening on ", 0) == 0) {
        setup_s_ = SecondsSince(start_ns);
        return true;
      }
      pre_listen_.push_back(line);
      continue;
    }
    const double left = timeout_s - SecondsSince(start_ns);
    if (left <= 0) {
      *error = "daemon did not print 'listening on' within timeout";
      kill_now();
      return false;
    }
    pollfd fd{out_fd_, POLLIN, 0};
    ::poll(&fd, 1, static_cast<int>(left * 1000) + 1);
    char buffer[4096];
    const ssize_t got = ::read(out_fd_, buffer, sizeof(buffer));
    if (got > 0) {
      out_.append(buffer, static_cast<std::size_t>(got));
    } else if (got == 0) {
      *error = "daemon exited before listening";
      kill_now();
      return false;
    }
  }
}

bool Daemon::stop(double timeout_s, std::int64_t* submitted,
                  std::int64_t* finished, std::string* error) {
  *submitted = -1;
  *finished = -1;
  if (pid_ <= 0) {
    *error = "daemon not running";
    return false;
  }
  ::kill(pid_, SIGTERM);
  const std::int64_t start_ns = SpanRecorder::NowNs();
  while (true) {
    pollfd fd{out_fd_, POLLIN, 0};
    ::poll(&fd, 1, 100);
    char buffer[4096];
    const ssize_t got = ::read(out_fd_, buffer, sizeof(buffer));
    if (got > 0) {
      out_.append(buffer, static_cast<std::size_t>(got));
      continue;
    }
    if (got == 0) break;  // daemon closed stdout: it is exiting
    if (SecondsSince(start_ns) > timeout_s) {
      *error = "daemon did not exit after SIGTERM";
      kill_now();
      return false;
    }
  }
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  ::close(out_fd_);
  out_fd_ = -1;
  const std::size_t at = out_.find("drained: ");
  if (at != std::string::npos) {
    long long s = -1;
    long long f = -1;
    if (std::sscanf(out_.c_str() + at,
                    "drained: %lld jobs submitted, %lld finished", &s,
                    &f) == 2) {
      *submitted = s;
      *finished = f;
    }
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    *error = "daemon exited abnormally (status " + std::to_string(status) + ")";
    return false;
  }
  if (*submitted < 0) {
    *error = "daemon printed no drained line";
    return false;
  }
  return true;
}

}  // namespace perfbench
