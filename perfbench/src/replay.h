// The traced replay of one serve session's effective stream.
//
// Jobs are submitted with release 0 ("now"), so the effective release
// each reply echoes is the slot the daemon accepted the job in.  That
// lets the replay rebuild the daemon's submit/advance interleaving in
// process: job k is submitted when the driver reaches its effective
// release, and the driver advances at most `chunk` slots between
// arrivals — the serve loop's tick.  Each call crosses a layer boundary
// through the library's public functions (ParseSubmitRequest,
// JournalWriter, SimDriver, Scheduler via a forwarding wrapper,
// FormatFinishedReply, MetricsRegistry::to_json) inside a span, and
// every flow the replay produces is checked against the daemon's reply.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

struct ReplayInput {
  std::string policy;
  int m = 16;
  std::uint64_t seed = 0;
  std::int64_t chunk = 128;            // the daemon's --chunk default
  std::vector<std::string> lines;      // submission lines (no newline), wire-id order
  std::vector<std::int64_t> release;   // effective releases, wire-id order
  std::vector<std::int64_t> flow;      // the daemon's flows, wire-id order
  std::string journal_path;            // "" = no journal layer
  std::int64_t rotate_every = 0;       // records between rotations; 0 = never
};

struct ReplayResult {
  double wall_s = 0.0;
  std::int64_t jobs = 0;
  std::int64_t slots = 0;
  std::int64_t cycles = 0;
  std::int64_t commits = 0;
  std::int64_t journal_records = 0;
  std::int64_t journal_bytes = 0;   // appended by commits (not rotations)
  std::int64_t renders = 0;
  std::int64_t parse_errors = 0;
  std::int64_t peak_arena_nodes = 0;
  std::int64_t mismatches = 0;   // flows or interleaving that disagree
  std::string first_mismatch;
  std::vector<double> commit_ms;
  double commit_cpu_ns = 0.0;    // CPU the commits burned (write + fsync)
  std::map<std::string, SpanRecorder::LayerTime> layers;  // traced only
};

/// Replays `input`; spans go to `recorder` (a disabled recorder gives
/// the untraced timing).
ReplayResult Replay(const ReplayInput& input, SpanRecorder& recorder);

}  // namespace perfbench
