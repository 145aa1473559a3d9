// The benchmark's workloads (see perfbench/README.md for why each one
// exists and which layer it is meant to load).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string otsched;  // path of the otsched binary
  std::string workdir;  // scratch directory for sockets, journals, spans
  int daemon_cpu = -1;  // serve: CPU the daemon is pinned to (-1 = none)
  std::vector<int> cpus;  // the CPUs the run may use, before any pinning
};

bool IsServeWorkload(const std::string& name);
bool IsSweepWorkload(const std::string& name);

/// Runs a serve workload against real `otsched serve` processes.
/// Returns false (with a diagnostic in report->failures) when the run
/// could not be carried out at all.
bool RunServeWorkload(const RunOptions& options, Report* report);

/// Runs the faulted sweep through BatchRunner in process.
bool RunSweepWorkload(const RunOptions& options, Report* report);

}  // namespace perfbench
