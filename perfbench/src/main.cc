// perfbench_driver: runs one benchmark workload and prints its report.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --otsched PATH --workdir DIR
//
// The last stdout line is the report document (report.h); perfbench/
// run.py builds this binary, calls it and turns the report into the
// benchmark's result line.  Exit 0 when the workload ran (its checks may
// still have failed — the report says so), 1 when it could not run, 2
// on bad arguments.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "daemon.h"
#include "report.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S --trace 0|1 "
               "--otsched PATH --workdir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--otsched") {
      options.otsched = value;
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else {
      return Usage();
    }
  }
  if (options.workdir.empty() || options.seconds <= 0) return Usage();
  const bool serve = perfbench::IsServeWorkload(options.workload);
  if (!serve && !perfbench::IsSweepWorkload(options.workload)) return Usage();
  if (serve && options.otsched.empty()) return Usage();
  // Sockets and journals are named relative to the workdir: unix socket
  // paths are short that way wherever the checkout lives.
  if (::chdir(options.workdir.c_str()) != 0) {
    std::fprintf(stderr, "cannot enter %s\n", options.workdir.c_str());
    return 1;
  }
  options.workdir = ".";

  // Serve workloads pin the load generator and the daemon to two
  // different CPUs, so run-to-run placement does not change what is
  // measured: the last two allowed ones, since the first carries most of
  // the rest of the system's work.
  const std::vector<int> cpus = perfbench::AllowedCpus();
  options.cpus = cpus;
  if (serve && cpus.size() >= 2) {
    perfbench::PinToCpu(cpus[cpus.size() - 2]);
    options.daemon_cpu = cpus.back();
  }

  perfbench::Report report;
  const bool ran = serve ? perfbench::RunServeWorkload(options, &report)
                         : perfbench::RunSweepWorkload(options, &report);
  std::printf("%s\n", report.to_json().c_str());
  return ran ? 0 : 1;
}
