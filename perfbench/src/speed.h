// The host's speed, read with a fixed reference kernel that belongs to
// the benchmark: no otsched code runs in it, so no change to the
// program moves it.  A shared host's CPUs change speed from second to
// second and drift by a quarter or more over minutes; a time measured
// on a CPU and scaled by the kernel's time on that CPU just before reads
// the program, not the host.
#pragma once

#include <vector>

namespace perfbench {

/// The kernel's time, in ms, at the speed the end-to-end figures are
/// quoted at ("reference speed"): between the ~3.2 ms of the fast and
/// the ~4.8 ms of the slow speed level of the 4-vCPU host of
/// perfbench/README.md.
constexpr double kReferenceProbeMs = 4.0;

/// Runs the reference kernel on every CPU of `cpus` at once, one pinned
/// thread each, and returns the mean of their times in ms; a CPU's time
/// is the median of three passes.  A pass mixes the kinds of work the
/// scheduler, the driver and the wire protocol do: a scatter over an
/// L2-sized table, a binary heap, decimal formatting and parsing, a
/// chase of dependent loads, and node-based maps.  An empty list runs
/// one thread wherever the system puts it.
double ProbeMs(const std::vector<int>& cpus);

/// How many times slower than reference speed the host ran when the
/// probe read `probe_ms`.  A duration at reference speed is the measured
/// one divided by this; a rate, multiplied.
inline double Slowdown(double probe_ms) { return probe_ms / kReferenceProbeMs; }

}  // namespace perfbench
