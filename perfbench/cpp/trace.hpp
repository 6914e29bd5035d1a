#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

/// \file trace.hpp
/// In-memory span recorder for the traced run. Every request has one
/// root span; each call into a library layer gets a child span that
/// carries the root's id. A span's self time is its duration minus the
/// durations of its children: the replay that creates children is
/// sequential, so children never overlap one another. Spans stay in
/// memory until write() at the end of the run.

namespace perfbench {

class Tracer {
 public:
  static constexpr int kRoot = -1;

  /// Opens a span named \p name (a string literal) under \p parent, or a
  /// new request root when \p parent is kRoot. Returns the span id.
  int open(const char* name, int parent);
  void close(int span);
  /// Adds a span whose interval was timed elsewhere: a request root
  /// measured on live traffic (\p parent = kRoot), or a child timed by
  /// the library's own phase timer. Returns the span id.
  int add(const char* name, int parent, std::int64_t start_ns,
          std::int64_t duration_ns);
  /// Adds \p amount to the named counter (work counts taken at the same
  /// boundaries as the spans).
  void count(const std::string& name, double amount);

  std::int64_t now_ns() const { return ns_at(Clock::now()); }
  /// \p t on this tracer's time axis.
  std::int64_t ns_at(Clock::time_point t) const;
  std::int64_t start_ns(int span) const;
  std::int64_t duration_ns(int span) const;

  struct Layer {
    double self_ms = 0;
    std::int64_t calls = 0;
  };
  /// Self time and call count summed per span name.
  std::map<std::string, Layer> layers() const;
  /// Summed self time of every non-root span, in ms.
  double stage_self_ms() const;
  /// Summed duration of every root span, in ms.
  double root_ms() const;
  /// Summed self time of the stages of request root \p root, in ms: the
  /// durations of its direct children, which their own children's self
  /// times add up to.
  double stage_ms(int root) const;
  double counter(const std::string& name) const;
  std::size_t roots() const { return roots_; }

  /// Writes one line per span: id, root, parent, name, start, end (ns).
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int root;
    int parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::vector<double> child_ns() const;

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::size_t roots_ = 0;
  std::map<std::string, double> counters_;
};

/// RAII span: opened on construction, closed on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int parent)
      : tracer_(tracer), id_(tracer.open(name, parent)) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
