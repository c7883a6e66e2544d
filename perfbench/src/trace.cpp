#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
std::uint32_t thread_tag() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t tag = next.fetch_add(1, std::memory_order_relaxed);
  return tag;
}
}  // namespace

std::int64_t Tracer::begin(const char* name, std::int64_t parent, std::uint64_t op) {
  if (!enabled_) return -1;
  return add(name, now_ns(), -1, parent, op);
}

void Tracer::end(std::int64_t id) {
  if (id < 0) return;
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::int64_t Tracer::add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                         std::int64_t parent, std::uint64_t op) {
  if (!enabled_) return -1;
  const std::uint32_t tid = thread_tag();
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, op, tid});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

std::vector<double> Tracer::durations(const char* name) const {
  const std::string want(name);
  std::vector<double> out;
  std::lock_guard<std::mutex> lk(mu_);
  for (const Span& s : spans_)
    if (s.end_ns >= 0 && want == s.name)
      out.push_back(1e-9 * static_cast<double>(s.end_ns - s.start_ns));
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = all.empty() ? 0 : all.front().start_ns;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (s.end_ns < 0) continue;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%zu,\"parent\":%lld,\"op\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, s.tid, 1e-3 * static_cast<double>(s.start_ns - t0),
                 1e-3 * static_cast<double>(s.end_ns - s.start_ns), i,
                 static_cast<long long>(s.parent), static_cast<unsigned long long>(s.op));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  const std::size_t n = spans.size();
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(n);
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<std::size_t>(s.parent) >= n || s.end_ns < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = p.end_ns < 0 ? s.end_ns : std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<double> self(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (spans[i].end_ns < 0) continue;
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (run_hi < run_lo || lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = 1e-9 * static_cast<double>(spans[i].end_ns - spans[i].start_ns - covered);
  }
  return self;
}

}  // namespace perfbench
