#pragma once

/// \file trace.hpp
/// Spans recorded by the benchmark around its calls into the library's
/// layers (nothing inside src/ is instrumented for this).  A span carries a
/// name, start and end, the span that caused it, and the id of the
/// operation it belongs to.  Spans are held in memory and written out as a
/// Chrome trace when the run ends.  A disabled tracer records nothing.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";    ///< static string: "<layer>.<call>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;  ///< < 0 while the span is open
  std::int64_t parent = -1; ///< index of the causing span, -1 for a root
  std::uint64_t op = 0;     ///< operation id shared by one request's spans
  std::uint32_t tid = 0;    ///< small per-thread id
};

/// Nanoseconds on the steady clock.
[[nodiscard]] std::int64_t now_ns();

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Open a span now; returns its id (-1 when disabled).
  std::int64_t begin(const char* name, std::int64_t parent = -1, std::uint64_t op = 0);
  /// Close span `id` now (no-op for -1).
  void end(std::int64_t id);
  /// Record an already-timed span; returns its id (-1 when disabled).
  std::int64_t add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                   std::int64_t parent = -1, std::uint64_t op = 0);

  [[nodiscard]] std::vector<Span> spans() const;
  /// Closed spans named `name`, as durations in seconds, in record order.
  [[nodiscard]] std::vector<double> durations(const char* name) const;

  /// Write every span as a Chrome trace ("X" events, microseconds).
  /// Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, std::int64_t parent = -1, std::uint64_t op = 0)
      : t_(t), id_(t.begin(name, parent, op)) {}
  ~ScopedSpan() { t_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::int64_t id() const noexcept { return id_; }

 private:
  Tracer& t_;
  std::int64_t id_;
};

/// Self time of every span, in seconds, indexed like `spans`: its duration
/// minus the part of its interval covered by the union of its direct
/// children (each child clipped to the parent's interval).  Open spans have
/// self time 0.
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

}  // namespace perfbench
