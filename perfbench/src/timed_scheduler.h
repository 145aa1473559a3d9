// A Scheduler that forwards every call to the policy it owns.  With a
// recorder it times pick() and on_arrival() as spans (under whatever
// span is open, e.g. the driver's advance); with an end stamp it records
// when it was destroyed — the end of a BatchRunner cell, which drops its
// policy as soon as the cell's simulation returns.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.h"
#include "spans.h"

namespace perfbench {

class TimedScheduler final : public otsched::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<otsched::Scheduler> inner, SpanRecorder* recorder,
                 std::int64_t* end_ns = nullptr)
      : inner_(std::move(inner)),
        recorder_(recorder),
        end_ns_(end_ns),
        pick_(recorder != nullptr ? recorder->intern("sched.pick") : -1),
        arrival_(recorder != nullptr ? recorder->intern("sched.on_arrival") : -1) {}
  ~TimedScheduler() override {
    if (end_ns_ != nullptr) *end_ns_ = SpanRecorder::NowNs();
  }
  TimedScheduler(const TimedScheduler&) = delete;
  TimedScheduler& operator=(const TimedScheduler&) = delete;

  std::string name() const override { return inner_->name(); }
  bool requires_clairvoyance() const override { return inner_->requires_clairvoyance(); }
  bool supports_fluctuating_capacity() const override {
    return inner_->supports_fluctuating_capacity();
  }
  bool supports_job_rollback() const override { return inner_->supports_job_rollback(); }
  bool supports_warm_start() const override { return inner_->supports_warm_start(); }
  void reset(int m, otsched::JobId job_count) override { inner_->reset(m, job_count); }
  void on_arrival(otsched::JobId id, const otsched::SchedulerView& view) override {
    if (recorder_ == nullptr) return inner_->on_arrival(id, view);
    SpanScope span(*recorder_, arrival_, id);
    inner_->on_arrival(id, view);
  }
  void pick(const otsched::SchedulerView& view, std::vector<otsched::SubjobRef>& out) override {
    if (recorder_ == nullptr) return inner_->pick(view, out);
    SpanScope span(*recorder_, pick_);
    inner_->pick(view, out);
  }

 private:
  std::unique_ptr<otsched::Scheduler> inner_;
  SpanRecorder* recorder_;
  std::int64_t* end_ns_;
  std::int32_t pick_;
  std::int32_t arrival_;
};

}  // namespace perfbench
