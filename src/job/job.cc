#include "job/job.h"

#include "common/assert.h"

namespace otsched {

Job::Job(Dag dag, Time release, std::string name)
    : body_(std::make_shared<Body>(std::move(dag))),
      release_(release),
      name_(std::move(name)) {
  OTSCHED_CHECK(release >= 0, "release times are nonnegative (Section 3)");
}

Job::Job(const Job& shape, Time release, std::string name)
    : body_(shape.body_), release_(release), name_(std::move(name)) {
  OTSCHED_CHECK(release >= 0, "release times are nonnegative (Section 3)");
}

const DagMetrics& Job::metrics() const {
  std::call_once(body_->metrics_once, [body = body_.get()] {
    body->metrics =
        std::make_unique<const DagMetrics>(ComputeMetrics(body->dag));
  });
  return *body_->metrics;
}

}  // namespace otsched
