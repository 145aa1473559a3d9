// A Job is a DAG of unit-time subjobs plus a release time (Section 3).
#pragma once

#include <memory>
#include <mutex>
#include <string>

#include "dag/dag.h"
#include "dag/metrics.h"

namespace otsched {

class Job {
 public:
  Job() = default;
  Job(Dag dag, Time release, std::string name = "");
  /// A job released at `release` that shares `shape`'s DAG and metrics
  /// cache instead of copying them.
  Job(const Job& shape, Time release, std::string name = "");

  const Dag& dag() const { return body_->dag; }
  Time release() const { return release_; }
  const std::string& name() const { return name_; }

  /// Lazily-computed metrics (work, span, heights, depths, W(d)); cached
  /// because many schedulers/analyses consult the same job repeatedly.
  /// Thread-safe: the fill runs once, shared by every copy of the Job.
  const DagMetrics& metrics() const;

  std::int64_t work() const { return dag().node_count(); }
  std::int64_t span() const { return metrics().span; }

 private:
  // The DAG and its metrics cache, shared so that Instances can be copied
  // cheaply into sweep workers.  Copies sharing one body may call
  // metrics() from several threads; the once_flag makes the lazy fill
  // race-free.
  struct Body {
    explicit Body(Dag d) : dag(std::move(d)) {}
    const Dag dag;
    std::once_flag metrics_once;
    std::unique_ptr<const DagMetrics> metrics;
  };
  std::shared_ptr<Body> body_ = std::make_shared<Body>(Dag());
  Time release_ = 0;
  std::string name_;
};

}  // namespace otsched
