/// \file trace.hpp
/// \brief In-memory span recorder for the traced benchmark run.
///
/// Spans are recorded around calls into HYDE's public functions from the
/// benchmark's own code (nothing inside src/ is instrumented). Each span has
/// a name, start, duration, thread, job id and parent span. Parents come
/// from a per-thread stack of open spans; a span opened on a fresh thread
/// (a batch job on a worker) names its parent explicitly. Spans stay in
/// memory until the run ends and are then written as Chrome trace-event
/// JSON, which Perfetto and chrome://tracing open directly.

#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point stop;
  int thread = 0;
  int job = -1;
  int id = 0;
  int parent = -1;  ///< -1 for a root span
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span on the calling thread and returns its id. The parent is
  /// the innermost span open on this thread, or \p parent when none is.
  int begin(const std::string& name, int parent = -1);
  /// Closes span \p id, and any span opened after it on this thread that is
  /// still open (they end at the same instant).
  void end(int id);

  /// Sets the job id stamped on spans the calling thread opens.
  static void set_thread_job(int job);

  std::vector<Span> spans() const;

  /// Writes every closed span as Chrome trace-event JSON ("X" events with
  /// microsecond timestamps; id, parent and job in args) plus thread-name
  /// metadata. Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path, const std::string& label) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  const Clock::time_point origin_ = Clock::now();
};

/// RAII span; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int parent = -1)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->begin(name, parent) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
