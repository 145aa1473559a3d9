// Serve workloads: spawn `otsched serve`, drive it with the load
// generator round after round for the run's seconds, each round after
// a speed probe of the daemon's CPU, then check every reply and, on
// traced runs, replay one round in process for the per-layer figures.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>

#include "daemon.h"
#include "jobs.h"
#include "loadgen.h"
#include "replay.h"
#include "sched/registry.h"
#include "serve/journal.h"
#include "serve/server.h"
#include "sim/batch_runner.h"
#include "sim/engine.h"
#include "spans.h"
#include "speed.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using otsched::Dag;

// Validity limit: a run past it measured the generator, not the daemon,
// and is reported as invalid instead of as numbers.
constexpr double kMaxLoadgenCpuShare = 0.75;

// Journal records between rotations in the traced journal replay, as
// `--snapshot-every`; a 20k-job stream still rotates.
constexpr std::int64_t kRotateEvery = 2048;

// serve_alg_a sessions stream 1500 quicksort out-trees each, taking
// turns over four sets.  Sessions stay short, so the speed probe just
// before one still describes the host during it, while a run averages
// over 6000 of the seed's trees, whose mix moves alg-a's throughput and
// latency (perfbench/README.md, "Reference speed").
constexpr int kAlgAJobs = 1500;
constexpr int kAlgASets = 4;

/// The jobs one session streams: job k's line is tagged "t<k>".
struct Stream {
  std::vector<Dag> jobs;
  std::vector<std::string> lines;
};

Stream MakeStream(std::vector<Dag> jobs) {
  Stream stream;
  stream.jobs = std::move(jobs);
  for (std::size_t k = 0; k < stream.jobs.size(); ++k) {
    stream.lines.push_back(SubmitLine(stream.jobs[k], JobTag(static_cast<std::int64_t>(k))));
  }
  return stream;
}

struct ServeSpec {
  std::string policy;
  int m = 16;
  std::uint64_t policy_seed = 1;
  int connections = 1;
  int window = 1024;
  double scrape_every_s = 0.0;  // periodic /metrics scrape
  /// The traced run also measures the journal layer on this stream: no
  /// end-to-end workload runs the journal (perfbench/README.md says why).
  bool journal_layer = false;
  std::vector<Stream> streams;          // session k streams streams[k % size], all one size
  std::vector<std::string> prep_lines;  // the prepared journal's stream
};

ServeSpec MakeSpec(const std::string& workload, std::uint64_t seed) {
  ServeSpec spec;
  if (workload == "serve_fifo") {
    spec.policy = "fifo/first-ready";
    spec.streams.push_back(MakeStream(MakeTreeJobs(seed, 20000, 16)));
    spec.connections = 1;
    spec.window = 1024;
    spec.scrape_every_s = 0.05;
    spec.journal_layer = true;
    for (const Dag& dag : MakeTreeJobs(seed + 0x9e3779b9ULL, 20000, 16)) {
      spec.prep_lines.push_back(SubmitLine(dag, ""));
    }
  } else {  // serve_alg_a
    spec.policy = "alg-a/general";
    std::vector<Dag> jobs = MakeQuicksortJobs(seed, kAlgAJobs * kAlgASets, 256);
    for (int set = 0; set < kAlgASets; ++set) {
      spec.streams.push_back(MakeStream(std::vector<Dag>(jobs.begin() + set * kAlgAJobs,
                                                         jobs.begin() + (set + 1) * kAlgAJobs)));
    }
    spec.connections = 4;
    spec.window = 64;
  }
  return spec;
}

std::vector<std::string> ServeArgs(const ServeSpec& spec) {
  return {"serve", "--listen", "unix:serve.sock", "--m", std::to_string(spec.m),
          "--policy", spec.policy, "--seed", std::to_string(spec.policy_seed)};
}

/// Copies `from` to `to` and fsyncs the copy, so writing it back is
/// set-up work and not the first commit of the session that opens it.
bool CopyFile(const std::string& from, const std::string& to) {
  const int in = ::open(from.c_str(), O_RDONLY | O_CLOEXEC);
  const int out = ::open(to.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  bool ok = in >= 0 && out >= 0;
  char buffer[1 << 16];
  while (ok) {
    const ssize_t got = ::read(in, buffer, sizeof(buffer));
    if (got <= 0) {
      ok = got == 0;
      break;
    }
    ok = ::write(out, buffer, static_cast<std::size_t>(got)) == got;
  }
  ok = ok && ::fsync(out) == 0;
  if (in >= 0) ::close(in);
  if (out >= 0) ok = ::close(out) == 0 && ok;
  return ok;
}

/// One daemon session: spawn, stream, scrape, stop.
struct Round {
  double probe_ms = 0.0;   // the reference kernel on the daemon's CPU, just before
  double setup_s = 0.0;
  double session_s = 0.0;  // exec to exit
  StreamResult stream;
  ProcSample before;
  ProcSample after;
  std::string metrics;  // final /metrics body
  double final_scrape_ms = 0.0;
  std::int64_t drained_submitted = -1;
  std::int64_t drained_finished = -1;
  std::string error;  // the session could not run to the end
};

Round RunRound(const ServeSpec& spec, const Stream& stream, const RunOptions& options) {
  Round round;
  round.probe_ms = ProbeMs({options.daemon_cpu});
  Daemon daemon;
  const std::int64_t start_ns = SpanRecorder::NowNs();
  if (!daemon.start(options.otsched, ServeArgs(spec), options.workdir, options.daemon_cpu, 60.0,
                    &round.error)) {
    return round;
  }
  round.setup_s = daemon.setup_s();
  StreamConfig config;
  config.socket_path = "serve.sock";
  config.lines = &stream.lines;
  config.connections = spec.connections;
  config.window = spec.window;
  config.scrape_every_s = spec.scrape_every_s;
  round.before = daemon.sample();
  round.stream = RunStream(config);
  round.after = daemon.sample();
  std::string scrape_error;
  round.metrics = ScrapeMetrics(config.socket_path, &round.final_scrape_ms, &scrape_error);
  if (round.metrics.empty()) round.error = scrape_error;
  std::string stop_error;
  if (!daemon.stop(30.0, &round.drained_submitted, &round.drained_finished, &stop_error)) {
    round.error = stop_error;
  }
  round.session_s = SecondsBetween(start_ns, SpanRecorder::NowNs());
  if (round.stream.timed_out && round.error.empty()) {
    round.error = "stream timed out: " +
                  (round.stream.first_errors.empty() ? std::string("no replies")
                                                     : round.stream.first_errors.front());
  }
  return round;
}

/// The prepared journal: a drained 20k-job untagged stream, written by a
/// daemon with the workload's identity and no rotation.
struct Prepared {
  std::string path;
  std::int64_t jobs = 0;
  std::int64_t slot = 0;  // last journaled slot
  std::int64_t bytes = 0;
};

bool PrepareJournal(const ServeSpec& spec, const RunOptions& options,
                    Prepared* prepared, std::string* error) {
  prepared->path = "prepared.journal";
  const std::string full = options.workdir + "/" + prepared->path;
  ::unlink(full.c_str());
  Daemon daemon;
  std::vector<std::string> args = ServeArgs(spec);
  args.insert(args.end(), {"--journal", prepared->path});
  if (!daemon.start(options.otsched, args, options.workdir, options.daemon_cpu, 60.0, error)) {
    return false;
  }
  StreamConfig config;
  config.socket_path = "serve.sock";
  config.lines = &spec.prep_lines;
  config.window = 1024;
  config.tagged = false;
  const StreamResult stream = RunStream(config);
  std::int64_t submitted = 0;
  std::int64_t finished = 0;
  if (!daemon.stop(30.0, &submitted, &finished, error)) return false;
  if (stream.untagged_replies != static_cast<std::int64_t>(spec.prep_lines.size()) ||
      finished != submitted) {
    *error = "journal preparation stream incomplete";
    return false;
  }
  otsched::serve::JournalReadResult read;
  if (!otsched::serve::ReadJournal(full, &read, error)) return false;
  for (const auto& record : read.records) {
    if (record.type == otsched::serve::JournalRecord::Type::kJob) ++prepared->jobs;
    if (record.type == otsched::serve::JournalRecord::Type::kAdvance) {
      prepared->slot = record.advance.slot;
    }
  }
  prepared->bytes = read.valid_bytes;
  return true;
}

/// Checks one round's replies; fills the effective stream (wire-id
/// order) for the offline simulation and the replay.  Each failed item
/// counts one failed operation.
struct Effective {
  std::vector<std::int64_t> job_of_wire;  // job index k by wire order
  std::vector<std::int64_t> release;
  std::vector<std::int64_t> flow;
  bool complete = false;
};

Effective CheckReplies(const Stream& jobs, const Round& round, Report* report) {
  Effective effective;
  const StreamResult& stream = round.stream;
  const std::int64_t n = static_cast<std::int64_t>(jobs.jobs.size());
  report->fail(stream.error_replies, "error replies: " +
                   (stream.first_errors.empty() ? "" : stream.first_errors.front()));
  report->fail(stream.unknown_replies, "replies with an unknown tag");
  std::int64_t missing = 0;
  std::int64_t duplicate = 0;
  std::int64_t bad = 0;
  effective.job_of_wire.assign(static_cast<std::size_t>(n), -1);
  for (std::int64_t k = 0; k < n; ++k) {
    const Reply& reply = stream.replies[static_cast<std::size_t>(k)];
    if (reply.count == 0) {
      ++missing;
      continue;
    }
    if (reply.count > 1) ++duplicate;
    const std::int64_t wire = reply.job_id;
    if (reply.flow != reply.finish - reply.release || reply.release < 0 ||
        reply.flow < 1 || wire < 0 || wire >= n ||
        effective.job_of_wire[static_cast<std::size_t>(wire)] != -1) {
      ++bad;
      continue;
    }
    effective.job_of_wire[static_cast<std::size_t>(wire)] = k;
  }
  report->fail(missing, "jobs without a reply");
  report->fail(duplicate, "jobs with duplicate replies");
  report->fail(bad, "replies with flow != finish - release, a bad release or a reused id");
  if (missing + duplicate + bad > 0) return effective;
  for (std::int64_t w = 0; w < n; ++w) {
    const Reply& reply =
        stream.replies[static_cast<std::size_t>(effective.job_of_wire[static_cast<std::size_t>(w)])];
    effective.release.push_back(reply.release);
    effective.flow.push_back(reply.flow);
  }
  // Jobs asked for release 0, so effective releases are accept slots and
  // never decrease in wire order.
  for (std::int64_t w = 1; w < n; ++w) {
    if (effective.release[static_cast<std::size_t>(w)] <
        effective.release[static_cast<std::size_t>(w - 1)]) {
      report->fail(1, "effective releases decrease in wire order");
      return effective;
    }
  }
  effective.complete = true;
  return effective;
}

/// An offline Simulate of the effective stream must reproduce every
/// flow; returns the number it does not.
std::int64_t OfflineMismatches(const ServeSpec& spec, const Stream& stream,
                               const Effective& effective) {
  otsched::Instance instance;
  for (std::size_t w = 0; w < effective.job_of_wire.size(); ++w) {
    instance.add_job(otsched::Job(
        stream.jobs[static_cast<std::size_t>(effective.job_of_wire[w])],
        effective.release[w]));
  }
  std::unique_ptr<otsched::Scheduler> policy =
      otsched::MakePolicy(spec.policy, spec.policy_seed);
  const otsched::SimResult result =
      otsched::Simulate(instance, spec.m, *policy, otsched::FlowOnlyOptions());
  std::int64_t wrong = 0;
  for (std::size_t w = 0; w < effective.flow.size(); ++w) {
    if (result.flows.flow[w] != effective.flow[w]) ++wrong;
  }
  return wrong;
}

/// The journal layer on this workload's stream, for the traced run (no
/// end-to-end workload runs the journal): the writer, in a traced replay
/// of the stream with the journal on that rotates every kRotateEvery
/// records, and the reader, ReadJournal and the daemon's own recovery
/// over a prepared journal.  CPU-bound times are at reference speed
/// (`slow` is the replay's slowdown); commits wait on the disk and are
/// reported as measured.
void MeasureJournalLayer(const ServeSpec& spec, const RunOptions& options, ReplayInput input,
                         double slow, Report* report) {
  input.journal_path = options.workdir + "/replay.journal";
  input.rotate_every = kRotateEvery;
  SpanRecorder spans(true);
  const ReplayResult traced = Replay(input, spans);
  report->fail(traced.mismatches, "journaled replay: " + traced.first_mismatch);
  spans.write_tsv(options.workdir + "/spans-" + options.workload + "-journal.tsv");
  otsched::serve::JournalReadResult written;
  std::string error;
  if (!otsched::serve::ReadJournal(input.journal_path, &written, &error)) {
    report->fail(1, "the replay's journal does not re-read: " + error);
  } else {
    report->fail(written.torn_tail ? 1 : 0, "the replay's journal has a torn tail");
  }
  report->attempted += 2;
  auto layer = [&](const std::string& name) {
    const auto it = traced.layers.find(name);
    return it == traced.layers.end() ? SpanRecorder::LayerTime{} : it->second;
  };
  const double records = static_cast<double>(std::max<std::int64_t>(traced.journal_records, 1));
  const Percentile commit_p50 = PercentileOf(traced.commit_ms, 50);
  const Percentile commit_p99 = PercentileOf(traced.commit_ms, 99);
  report->add("journal.records_per_commit",
              records / static_cast<double>(std::max<std::int64_t>(traced.commits, 1)), "count");
  report->add("journal.commit_ms_p50", commit_p50.value, "ms",
              static_cast<std::int64_t>(commit_p50.samples));
  report->add("journal.commit_ms_p99", commit_p99.value, "ms",
              static_cast<std::int64_t>(commit_p99.samples));
  report->add("journal.encode_ns_per_record", layer("journal.append").self_ns / slow / records,
              "ns");
  report->add("journal.bytes_per_job",
              static_cast<double>(traced.journal_bytes) /
                  static_cast<double>(std::max<std::int64_t>(traced.jobs, 1)),
              "B");
  report->add("journal.rotations", static_cast<double>(layer("journal.rotate").count), "count");

  // Reader: ReadJournal over a prepared journal of a drained 20k-job
  // stream; replay: the daemon's own recovery (ScheduleServer::start
  // with --recover) over a copy of it, in process.
  Prepared prepared;
  if (!PrepareJournal(spec, options, &prepared, &error)) {
    report->fail(1, "journal preparation failed: " + error);
    return;
  }
  const std::string copy = options.workdir + "/recover-probe.journal";
  report->fail(CopyFile(options.workdir + "/" + prepared.path, copy) ? 0 : 1,
               "cannot copy the prepared journal");
  otsched::serve::JournalReadResult read;
  const std::int64_t read_start = SpanRecorder::NowNs();
  const bool read_ok = otsched::serve::ReadJournal(copy, &read, &error);
  const double read_s = SecondsBetween(read_start, SpanRecorder::NowNs());
  report->fail(read_ok ? 0 : 1, "prepared journal does not re-read: " + error);
  otsched::serve::ServeOptions serve_options;
  serve_options.listen = "unix:recover-probe.sock";
  serve_options.m = spec.m;
  serve_options.policy = spec.policy;
  serve_options.seed = spec.policy_seed;
  serve_options.recover_path = copy;
  const std::int64_t replay_start = SpanRecorder::NowNs();
  double replay_s = 0.0;
  {
    otsched::serve::ScheduleServer server(serve_options,
                                          otsched::MakePolicy(spec.policy, spec.policy_seed));
    std::string start_error;
    report->fail(server.start(&start_error) ? 0 : 1, "in-process recovery failed: " + start_error);
    replay_s = SecondsBetween(replay_start, SpanRecorder::NowNs());
  }
  report->attempted += 3;
  report->add("journal.read_mb_per_s", static_cast<double>(prepared.bytes) / 1e6 / read_s * slow,
              "MB/s");
  report->add("journal.replay_s", replay_s / slow, "s");
}

}  // namespace

bool IsServeWorkload(const std::string& name) {
  return name == "serve_fifo" || name == "serve_alg_a";
}

bool RunServeWorkload(const RunOptions& options, Report* report) {
  const ServeSpec spec = MakeSpec(options.workload, options.seed);
  const std::int64_t n = static_cast<std::int64_t>(spec.streams.front().jobs.size());
  auto stream_of = [&](std::size_t round) -> const Stream& {
    return spec.streams[round % spec.streams.size()];
  };

  // Measure: whole sessions until the run's seconds are spent (at least
  // three, so every median has a middle).
  std::vector<Round> rounds;
  const std::int64_t measure_start = SpanRecorder::NowNs();
  while (rounds.size() < 3 ||
         SecondsBetween(measure_start, SpanRecorder::NowNs()) + rounds.back().session_s <=
             options.seconds) {
    rounds.push_back(RunRound(spec, stream_of(rounds.size()), options));
    report->attempted += n + 1 + static_cast<std::int64_t>(rounds.back().stream.scrape_ms.size()) +
                         rounds.back().stream.scrape_failures;
    if (!rounds.back().error.empty()) {
      report->fail(1, "session failed: " + rounds.back().error);
      return false;
    }
  }

  // Output checks, outside the timed sessions.
  std::vector<Effective> effective;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Round& round = rounds[i];
    report->fail(round.stream.scrape_failures, "failed /metrics scrapes");
    report->fail(round.drained_submitted == n && round.drained_finished == n ? 0 : 1,
                 "daemon drained " + std::to_string(round.drained_finished) + "/" +
                     std::to_string(round.drained_submitted) + " jobs");
    effective.push_back(CheckReplies(stream_of(i), round, report));
  }
  // The offline simulations, the costly check, run on all the allowed
  // CPUs at once.
  const std::vector<int> pinned = AllowedCpus();
  PinToCpus(options.cpus);
  const std::vector<std::int64_t> wrong =
      otsched::BatchRunner(options.cpus.size())
          .Map<std::int64_t>(rounds.size(), [&](std::size_t i) -> std::int64_t {
            return effective[i].complete ? OfflineMismatches(spec, stream_of(i), effective[i]) : -1;
          });
  PinToCpus(pinned);
  for (const std::int64_t count : wrong) {
    report->attempted += 1;  // the offline replay
    if (count < 0) {
      report->fail(1, "no offline check: the reply stream is incomplete");
    } else {
      report->fail(count, "flows an offline Simulate of the effective stream does not reproduce");
    }
  }

  // Validity, decided on every session: the generator was not the bound.
  std::vector<double> loadgen_share;
  for (const Round& round : rounds) {
    loadgen_share.push_back(round.stream.cpu_s / std::max(round.stream.wall_s, 1e-9));
  }
  const double worst_share = *std::max_element(loadgen_share.begin(), loadgen_share.end());
  if (worst_share > kMaxLoadgenCpuShare) {
    report->invalid.push_back("load generator CPU share " + std::to_string(worst_share) +
                              " in a session, over " + std::to_string(kMaxLoadgenCpuShare));
  }
  char validity[128];
  std::snprintf(validity, sizeof(validity), "worst session: generator CPU share %.3f (limit %.2f)",
                worst_share, kMaxLoadgenCpuShare);
  report->note("validity", validity);

  // End-to-end metrics at reference speed (speed.h): each session's
  // figures scaled by the slowdown its probe read, then the median over
  // all sessions.  The p50 pools every reply of every session; the p99
  // is each session's own, then their median, so the few sessions the
  // host stalls for 10 ms at a time do not own the tail of the pool.
  std::vector<double> slowdown;
  std::vector<double> jobs_per_s;
  std::vector<double> setup_s;
  std::vector<double> rss_mb;
  std::vector<double> sessions_per_s;
  std::vector<double> latency_ms;
  std::vector<double> p99_ms;
  std::vector<double> scrape_ms;
  FILE* tsv = std::fopen("sessions.tsv", "w");
  if (tsv != nullptr) {
    std::fprintf(tsv, "probe_ms\tjobs_per_s\tsetup_s\tsession_s\tpeak_rss_mb\tp50_ms\tp99_ms\n");
  }
  for (const Round& round : rounds) {
    const double slow = Slowdown(round.probe_ms);
    slowdown.push_back(slow);
    jobs_per_s.push_back(static_cast<double>(n) / round.stream.wall_s * slow);
    setup_s.push_back(round.setup_s / slow);
    rss_mb.push_back(round.after.hwm_mb);
    sessions_per_s.push_back(slow / round.session_s);
    std::vector<double> session_ms = round.stream.latency_ms();
    for (double& ms : session_ms) ms /= slow;
    p99_ms.push_back(PercentileOf(session_ms, 99).value);
    latency_ms.insert(latency_ms.end(), session_ms.begin(), session_ms.end());
    scrape_ms.insert(scrape_ms.end(), round.stream.scrape_ms.begin(), round.stream.scrape_ms.end());
    scrape_ms.push_back(round.final_scrape_ms);
    if (tsv != nullptr) {
      const std::vector<double> raw = round.stream.latency_ms();
      std::fprintf(tsv, "%.6f\t%.3f\t%.6f\t%.6f\t%.3f\t%.4f\t%.4f\n", round.probe_ms,
                   static_cast<double>(n) / round.stream.wall_s, round.setup_s, round.session_s,
                   round.after.hwm_mb, PercentileOf(raw, 50).value, PercentileOf(raw, 99).value);
    }
  }
  if (tsv != nullptr) std::fclose(tsv);
  const auto rounds_count = static_cast<std::int64_t>(rounds.size());
  char speed[128];
  std::snprintf(speed, sizeof(speed), "median slowdown %.3f over %lld sessions (probe %.3f ms)",
                MedianOf(slowdown), static_cast<long long>(rounds_count),
                MedianOf(slowdown) * kReferenceProbeMs);
  report->note("host_speed", speed);
  if (!options.trace) {
    const Percentile p50 = PercentileOf(latency_ms, 50);
    report->add("jobs_per_s", MedianOf(jobs_per_s), "1/s", rounds_count);
    report->add("latency_p50_ms", p50.value, "ms", static_cast<std::int64_t>(p50.samples));
    report->add("latency_p99_ms", MedianOf(p99_ms), "ms", static_cast<std::int64_t>(p50.samples));
    report->add("setup_s", MedianOf(setup_s), "s", rounds_count);
    report->add("peak_rss_mb", MedianOf(rss_mb), "MB", rounds_count);
    report->add("cells_per_s", MedianOf(sessions_per_s), "1/s", rounds_count);
    return true;
  }

  // ---- Traced run: per-layer figures. ----
  // The daemon's /proc figures per session, CPU time at reference speed.
  auto per_job = [&](auto get) {
    std::vector<double> values;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      values.push_back(get(rounds[i], slowdown[i]) / static_cast<double>(n));
    }
    return MedianOf(values);
  };
  const double cpu_us_per_job = per_job([](const Round& r, double slow) {
    return (r.after.cpu_s - r.before.cpu_s) * 1e6 / slow;
  });
  std::vector<double> cpu_share;
  for (const Round& round : rounds) {
    cpu_share.push_back((round.after.cpu_s - round.before.cpu_s) / round.stream.wall_s);
  }
  std::int64_t parse_errors = 0;
  for (const Round& round : rounds) {
    parse_errors += JsonInt(round.metrics, "serve.parse_errors", 0);
  }

  // Replay the last round's effective stream.
  const Effective& last = effective.back();
  if (!last.complete) {
    report->fail(1, "no replay: the reply stream is incomplete");
    return true;
  }
  ReplayInput input;
  input.policy = spec.policy;
  input.m = spec.m;
  input.seed = spec.policy_seed;
  for (std::size_t w = 0; w < last.job_of_wire.size(); ++w) {
    // The daemon parses each line without its newline.
    const std::string& line =
        stream_of(rounds.size() - 1).lines[static_cast<std::size_t>(last.job_of_wire[w])];
    input.lines.push_back(line.substr(0, line.size() - 1));
  }
  input.release = last.release;
  input.flow = last.flow;
  // Untraced and traced replays alternate three times and the fastest
  // of each is kept, so neither warming caches nor a disturbed moment of
  // the host is billed to tracing.  The replay runs on this thread's CPU,
  // probed just before.
  const double replay_slow = Slowdown(ProbeMs({}));
  double untraced_s = 0.0;
  ReplayResult traced;
  std::unique_ptr<SpanRecorder> recorder;
  for (int rep = 0; rep < 3; ++rep) {
    SpanRecorder off(false);
    const ReplayResult plain = Replay(input, off);
    report->fail(plain.mismatches, "untraced replay: " + plain.first_mismatch);
    untraced_s = rep == 0 ? plain.wall_s : std::min(untraced_s, plain.wall_s);
    auto spans = std::make_unique<SpanRecorder>(true);
    ReplayResult result = Replay(input, *spans);
    report->fail(result.mismatches, "traced replay: " + result.first_mismatch);
    if (rep == 0 || result.wall_s < traced.wall_s) {
      traced = std::move(result);
      recorder = std::move(spans);
    }
  }
  report->attempted += 6;
  recorder->write_tsv(options.workdir + "/spans-" + options.workload + ".tsv");

  // Replayed layer times at reference speed.
  auto self_ns = [&](const std::string& name) {
    const auto it = traced.layers.find(name);
    return it == traced.layers.end() ? 0.0 : it->second.self_ns / replay_slow;
  };
  auto total_ns = [&](const std::string& name) {
    const auto it = traced.layers.find(name);
    return it == traced.layers.end() ? 0.0 : it->second.total_ns / replay_slow;
  };
  const double jobs = static_cast<double>(std::max<std::int64_t>(traced.jobs, 1));
  const double slots = static_cast<double>(std::max<std::int64_t>(traced.slots, 1));

  // Daemon-side layer time per job (µs), from the replay's self times
  // with the tracing overhead taken out in proportion (the untraced
  // replay's wall time over the traced one's).
  const double untrace = untraced_s / traced.wall_s;
  auto us_per_job = [&](double ns) { return ns * untrace / jobs / 1e3; };
  const double protocol_us = us_per_job(self_ns("protocol.parse") + self_ns("protocol.format"));
  const double driver_us = us_per_job(self_ns("driver.submit") + self_ns("driver.advance") +
                                      self_ns("driver.take_finished") + self_ns("driver.retire"));
  const double sched_us = us_per_job(self_ns("sched.pick") + self_ns("sched.on_arrival"));
  const double metrics_us = us_per_job(self_ns("metrics.render"));
  const double residual_us = cpu_us_per_job - (protocol_us + driver_us + sched_us + metrics_us);

  report->add("server.cpu_share", MedianOf(cpu_share), "ratio", rounds_count);
  report->add("server.cpu_us_per_job", cpu_us_per_job, "us", rounds_count);
  report->add("server.ctx_switches_per_job",
              per_job([](const Round& r, double) {
                return static_cast<double>(r.after.ctx_switches - r.before.ctx_switches);
              }),
              "count", rounds_count);
  report->add("server.syscw_per_job", per_job([](const Round& r, double) {
                return static_cast<double>(r.after.syscw - r.before.syscw);
              }),
              "count", rounds_count);
  report->add("server.residual_us_per_job", residual_us, "us");
  report->add("protocol.parse_ns_per_line", self_ns("protocol.parse") / jobs, "ns");
  report->add("protocol.format_ns_per_reply", self_ns("protocol.format") / jobs, "ns");
  report->add("protocol.parse_errors", static_cast<double>(parse_errors + traced.parse_errors),
              "count");
  if (spec.journal_layer) {
    MeasureJournalLayer(spec, options, input, replay_slow, report);
  } else {
    report->not_applicable({"journal.records_per_commit", "journal.commit_ms_p50",
                            "journal.commit_ms_p99", "journal.encode_ns_per_record",
                            "journal.bytes_per_job", "journal.rotations", "journal.read_mb_per_s",
                            "journal.replay_s"},
                           "the journal layer is measured on serve_fifo's stream");
  }
  report->add("driver.submit_ns_per_job", self_ns("driver.submit") / jobs, "ns");
  report->add("driver.advance_ns_per_slot", self_ns("driver.advance") / slots, "ns");
  report->add("driver.slots_per_job", slots / jobs, "count");
  report->add("driver.finish_ns_per_job",
              (self_ns("driver.take_finished") + self_ns("driver.retire")) / jobs, "ns");
  report->add("driver.peak_arena_nodes", static_cast<double>(traced.peak_arena_nodes), "count");
  report->add("sched.pick_ns_per_slot", total_ns("sched.pick") / slots, "ns");
  report->add("sched.arrival_ns_per_job", total_ns("sched.on_arrival") / jobs, "ns");
  report->add("sched.pick_share_of_advance",
              total_ns("driver.advance") > 0 ? total_ns("sched.pick") / total_ns("driver.advance")
                                             : 0.0,
              "ratio");
  const Percentile scrape_p50 = PercentileOf(scrape_ms, 50);
  report->add("metrics.render_us",
              traced.renders > 0 ? self_ns("metrics.render") / static_cast<double>(traced.renders) / 1e3
                                 : 0.0,
              "us");
  report->add("metrics.scrape_ms_p50", scrape_p50.value, "ms",
              static_cast<std::int64_t>(scrape_p50.samples));
  report->add("loadgen.cpu_share", MedianOf(loadgen_share), "ratio", rounds_count);
  report->add("trace.overhead_share", (traced.wall_s - untraced_s) / untraced_s, "ratio");
  report->not_applicable({"driver.rollback_cost_ratio", "driver.wasted_share", "driver.rollbacks",
                          "driver.checkpoints", "observer.cost_ratio", "batch.cell_ms_p50",
                          "batch.cell_ms_p99", "batch.worker_busy_share", "batch.merge_ms",
                          "batch.cell_failures"},
                         "serve runs a healthy, observer-less driver and no batch");

  // The bounding layer: most daemon time per job.
  const std::vector<std::pair<std::string, double>> layers = {
      {"serve/server (poll, sockets, bookkeeping)", residual_us},
      {"serve/protocol", protocol_us},
      {"sim/driver", driver_us},
      {"sched", sched_us},
      {"common/metrics", metrics_us}};
  double total_us = 0.0;
  for (const auto& layer : layers) total_us += std::max(layer.second, 0.0);
  const auto top = std::max_element(layers.begin(), layers.end(),
                                     [](const auto& a, const auto& b) { return a.second < b.second; });
  char share[64];
  std::snprintf(share, sizeof(share), "%.0f%%", 100.0 * top->second / std::max(total_us, 1e-9));
  report->note("bounding_layer", top->first + " (" + share + " of the daemon's time per job)");
  std::string breakdown;
  for (const auto& layer : layers) {
    char item[160];
    std::snprintf(item, sizeof(item), "%s%s %.2f us/job", breakdown.empty() ? "" : "; ",
                  layer.first.c_str(), layer.second);
    breakdown += item;
  }
  report->note("layer_us_per_job", breakdown);
  return true;
}

}  // namespace perfbench
