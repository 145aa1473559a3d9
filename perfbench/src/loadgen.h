// The benchmark's load generator: one thread, one poll loop, up to a few
// unix-socket connections to the daemon plus an occasional one-shot
// `GET /metrics` scrape.
//
// Closed loop: each connection keeps at most `window` jobs in flight and
// sends the next one when a reply frees a slot; latency runs from send
// to reply.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct StreamConfig {
  std::string socket_path;                        // relative to the cwd
  const std::vector<std::string>* lines = nullptr;  // job k's line ("t<k>")
  int connections = 1;
  int window = 1024;          // in-flight cap per connection
  double scrape_every_s = 0;  // 0: no periodic scrape
  double timeout_s = 60.0;    // give up waiting for replies after this
  /// false: the lines carry no tag, so replies are only counted (the
  /// journal preparation stream, whose recovered replies must not park).
  bool tagged = true;
};

/// One job's reply, as parsed off the wire.
struct Reply {
  std::int64_t job_id = -1;
  std::int64_t release = -1;
  std::int64_t finish = -1;
  std::int64_t flow = -1;
  int count = 0;  // replies seen for this tag (1 = exactly once)
};

struct StreamResult {
  std::vector<Reply> replies;          // by job index
  std::vector<std::int64_t> sent_ns;   // when the line was queued to send
  std::vector<std::int64_t> reply_ns;  // first reply (0 = none)
  std::int64_t error_replies = 0;      // {"error": ...} lines
  std::int64_t unknown_replies = 0;    // unparseable or unknown tag
  std::int64_t untagged_replies = 0;   // replies counted on untagged streams
  std::vector<std::string> first_errors;  // a few, for diagnostics
  std::vector<double> scrape_ms;
  std::int64_t scrape_failures = 0;
  double wall_s = 0.0;                 // first send to last reply
  double cpu_s = 0.0;                  // generator thread CPU time
  bool timed_out = false;

  std::vector<double> latency_ms() const;  // answered jobs, reply - send
};

StreamResult RunStream(const StreamConfig& config);

/// Blocking one-shot `GET /metrics`; returns the body ("" + diagnostic
/// on failure) and the round trip in `ms`.
std::string ScrapeMetrics(const std::string& socket_path, double* ms,
                          std::string* error);

/// Integer value of `"key": <int>` in a flat JSON text (the /metrics
/// document or a reply line); `fallback` when absent.
std::int64_t JsonInt(const std::string& text, const std::string& key,
                     std::int64_t fallback);

}  // namespace perfbench
