#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <set>

namespace perfbench {

namespace {

std::atomic<int> next_thread{1};

struct ThreadState {
  int thread = next_thread.fetch_add(1);
  int job = -1;
  std::vector<int> open;  ///< ids of spans open on this thread, innermost last
};

ThreadState& self() {
  thread_local ThreadState state;
  return state;
}

double micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

int Tracer::begin(const std::string& name, int parent) {
  ThreadState& me = self();
  Span span;
  span.name = name;
  span.thread = me.thread;
  span.job = me.job;
  span.parent = me.open.empty() ? parent : me.open.back();
  span.start = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  span.id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(span));
  me.open.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::end(int id) {
  const Clock::time_point now = Clock::now();
  ThreadState& me = self();
  if (std::find(me.open.begin(), me.open.end(), id) == me.open.end()) return;
  std::lock_guard<std::mutex> lock(mu_);
  while (!me.open.empty()) {
    const int top = me.open.back();
    me.open.pop_back();
    spans_[static_cast<std::size_t>(top)].stop = now;
    if (top == id) break;
  }
}

void Tracer::set_thread_job(int job) { self().job = job; }

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::write_chrome_json(const std::string& path,
                               const std::string& label) const {
  const std::vector<Span> all = spans();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"label\": \"%s\"},\n"
                    " \"traceEvents\": [\n",
               label.c_str());
  std::set<int> threads;
  bool first = true;
  for (const Span& s : all) {
    if (s.stop < s.start) continue;  // never closed
    threads.insert(s.thread);
    const std::string cat = s.name.substr(0, s.name.find('.'));
    std::fprintf(out,
                 "%s  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                 "\"args\": {\"id\": %d, \"parent\": %d, \"job\": %d}}",
                 first ? "" : ",\n", s.name.c_str(), cat.c_str(),
                 micros(origin_, s.start), micros(s.start, s.stop), s.thread,
                 s.id, s.parent, s.job);
    first = false;
  }
  for (int thread : threads) {
    std::fprintf(out,
                 "%s  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": %d, \"args\": {\"name\": \"%s %d\"}}",
                 first ? "" : ",\n", thread,
                 thread == 1 ? "main" : "worker", thread);
    first = false;
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
