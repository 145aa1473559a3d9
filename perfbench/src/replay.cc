#include "replay.h"

#include <unistd.h>

#include <algorithm>
#include <memory>

#include "common/metrics.h"
#include "sched/registry.h"
#include "serve/journal.h"
#include "serve/protocol.h"
#include "sim/driver.h"
#include "sim/observer.h"
#include "timed_scheduler.h"

namespace perfbench {
namespace {

using otsched::Scheduler;
using otsched::Time;

}  // namespace

ReplayResult Replay(const ReplayInput& input, SpanRecorder& recorder) {
  namespace serve = otsched::serve;
  ReplayResult result;
  const std::int32_t parse_span = recorder.intern("protocol.parse");
  const std::int32_t format_span = recorder.intern("protocol.format");
  const std::int32_t append_span = recorder.intern("journal.append");
  const std::int32_t commit_span = recorder.intern("journal.commit");
  const std::int32_t rotate_span = recorder.intern("journal.rotate");
  const std::int32_t submit_span = recorder.intern("driver.submit");
  const std::int32_t advance_span = recorder.intern("driver.advance");
  const std::int32_t take_span = recorder.intern("driver.take_finished");
  const std::int32_t retire_span = recorder.intern("driver.retire");
  const std::int32_t render_span = recorder.intern("metrics.render");

  std::unique_ptr<Scheduler> scheduler = otsched::MakePolicy(input.policy, input.seed);
  if (recorder.enabled()) {
    scheduler = std::make_unique<TimedScheduler>(std::move(scheduler), &recorder);
  }
  otsched::SimDriver driver(input.m, *scheduler, otsched::RunContext(otsched::FlowOnlyOptions()));
  otsched::MetricsRegistry registry;

  std::unique_ptr<serve::JournalWriter> journal;
  const serve::JournalOpen open{input.policy, input.m,
                                static_cast<std::int64_t>(input.seed)};
  std::int64_t last_snapshot_records = 0;
  std::string error;
  if (!input.journal_path.empty()) {
    ::unlink(input.journal_path.c_str());
    journal = serve::JournalWriter::Open(input.journal_path, &error);
    if (journal == nullptr) {
      ++result.mismatches;
      result.first_mismatch = error;
      return result;
    }
    journal->append(open);
    if (!journal->commit(&error)) {
      ++result.mismatches;
      result.first_mismatch = "journal commit: " + error;
      return result;
    }
    last_snapshot_records = journal->records_committed();
  }

  const std::int64_t n = static_cast<std::int64_t>(input.lines.size());
  // The daemon's driver may carry a finished history (a recovered
  // journal): start where its first new job was accepted.
  const Time base_slot = n > 0 ? input.release.front() : 0;
  if (base_slot > 0) driver.warm_start(base_slot);
  std::int64_t submitted_work = 0;
  std::int64_t finished = 0;
  Time last_journaled_slot = driver.now();
  const std::int64_t start_ns = SpanRecorder::NowNs();

  auto mismatch = [&](const std::string& what) {
    if (result.mismatches++ == 0) result.first_mismatch = what;
  };

  std::vector<std::string> tags;
  tags.reserve(static_cast<std::size_t>(n));
  std::int64_t next = 0;
  while (next < n || !driver.idle()) {
    // Accept every job the daemon accepted at this slot.
    while (next < n && input.release[static_cast<std::size_t>(next)] == driver.now()) {
      std::optional<serve::SubmitRequest> request;
      {
        SpanScope span(recorder, parse_span, next);
        request = serve::ParseSubmitRequest(input.lines[static_cast<std::size_t>(next)], &error);
      }
      if (!request.has_value()) {
        ++result.parse_errors;
        mismatch("parse error: " + error);
        return result;
      }
      const otsched::NodeId nodes = request->dag.node_count();
      if (journal != nullptr) {
        SpanScope span(recorder, append_span, next);
        serve::JournalJob record;
        record.id = next;
        record.release = driver.now();
        record.tag = request->tag;
        record.nodes = nodes;
        for (otsched::NodeId v = 0; v < nodes; ++v) {
          for (const otsched::NodeId child : request->dag.children(v)) {
            record.edges.emplace_back(v, child);
          }
        }
        journal->append(record);
        ++result.journal_records;
      }
      submitted_work += nodes;
      tags.push_back(request->tag);
      {
        SpanScope span(recorder, submit_span, next);
        driver.submit(otsched::Job(std::move(request->dag), driver.now(),
                                   request->tag));
      }
      ++next;
    }
    if (next < n && input.release[static_cast<std::size_t>(next)] < driver.now()) {
      mismatch("job " + std::to_string(next) + " accepted at slot " +
               std::to_string(input.release[static_cast<std::size_t>(next)]) +
               " but the replay is past it");
      return result;
    }
    if (driver.idle()) {
      if (next < n) {
        mismatch("replay idle at slot " + std::to_string(driver.now()) +
                 " before job " + std::to_string(next) + "'s accept slot");
        return result;
      }
      break;
    }
    Time budget = input.chunk;
    if (next < n) {
      budget = std::min<Time>(budget,
                              input.release[static_cast<std::size_t>(next)] - driver.now());
    }
    {
      SpanScope span(recorder, advance_span);
      result.slots += driver.advance(budget);
    }
    ++result.cycles;
    std::vector<otsched::SimDriver::FinishedJob> done;
    {
      SpanScope span(recorder, take_span);
      done = driver.take_finished();
    }
    for (const otsched::SimDriver::FinishedJob& job : done) {
      const std::size_t k = static_cast<std::size_t>(job.job);
      {
        SpanScope span(recorder, format_span, job.job);
        const std::string reply = serve::FormatFinishedReply(
            job.job, tags[k], job.release, job.finish, job.flow);
        if (reply.empty()) mismatch("empty reply");
      }
      if (job.flow != input.flow[k]) {
        mismatch("job " + std::to_string(k) + " flow " +
                 std::to_string(job.flow) + " in replay, " +
                 std::to_string(input.flow[k]) + " from the daemon");
      }
      ++finished;
    }
    {
      SpanScope span(recorder, retire_span);
      driver.retire_finished();
    }
    result.peak_arena_nodes = std::max(result.peak_arena_nodes, driver.arena_nodes());
    if (journal != nullptr) {
      if (driver.now() != last_journaled_slot) {
        SpanScope span(recorder, append_span);
        journal->append(serve::JournalAdvance{driver.now()});
        last_journaled_slot = driver.now();
        ++result.journal_records;
      }
      if (journal->dirty()) {
        const std::int64_t commit_start = SpanRecorder::NowNs();
        const std::int64_t cpu_start = ThreadCpuNs();
        const std::int64_t bytes_before = journal->bytes_committed();
        {
          SpanScope span(recorder, commit_span);
          if (!journal->commit(&error)) mismatch("journal commit: " + error);
        }
        result.commit_cpu_ns += static_cast<double>(ThreadCpuNs() - cpu_start);
        result.journal_bytes += journal->bytes_committed() - bytes_before;
        result.commit_ms.push_back(
            SecondsBetween(commit_start, SpanRecorder::NowNs()) * 1e3);
        ++result.commits;
      }
      // The daemon's quiescent-point rotation (--snapshot-every records).
      if (input.rotate_every > 0 && driver.idle() && finished == next &&
          journal->records_committed() - last_snapshot_records >= input.rotate_every) {
        serve::JournalSnapshot snapshot;
        snapshot.slot = driver.now();
        snapshot.jobs_submitted = next;
        snapshot.jobs_finished = finished;
        snapshot.total_work = submitted_work;
        SpanScope span(recorder, rotate_span);
        if (!journal->rotate(open, snapshot, &error)) {
          mismatch("journal rotate: " + error);
        }
        last_snapshot_records = journal->records_committed();
      }
    }
    // The /metrics document the daemon keeps current, rendered at the
    // cadence of a periodic scrape.
    registry.counter("serve.jobs_submitted").set(next);
    registry.counter("serve.jobs_finished").set(finished);
    registry.gauge("serve.pending_work").set(static_cast<double>(driver.pending_work()));
    registry.gauge("serve.arena_nodes").set(static_cast<double>(driver.arena_nodes()));
    registry.gauge("serve.slot").set(static_cast<double>(driver.now()));
    if (result.cycles % 64 == 0) {
      SpanScope span(recorder, render_span);
      if (registry.to_json().empty()) mismatch("empty metrics document");
      ++result.renders;
    }
  }
  result.wall_s = SecondsBetween(start_ns, SpanRecorder::NowNs());
  result.jobs = next;
  if (finished != n) {
    mismatch("replay finished " + std::to_string(finished) + " of " +
             std::to_string(n) + " jobs");
  }
  if (recorder.enabled()) result.layers = recorder.by_name();
  return result;
}

}  // namespace perfbench
