// Shared pieces of the benchmark: clock, exact order statistics, the metric
// table every workload fills, and the in-memory span buffer of traced runs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t ns_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

inline double seconds_since(Clock::time_point t0) {
  return static_cast<double>(ns_since(t0)) / 1e9;
}

// Nearest-rank quantile of `v` (0 < q <= 1); reorders v. Exact: the result is
// one of the samples.
template <class T>
T quantile(std::vector<T>& v, double q) {
  if (v.empty()) return T{};
  auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()) +
                                       0.999999999);
  rank = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Latency samples pooled over a run at 1 µs resolution: quantiles are exact
// to the microsecond, with the exact sample count. Samples of kMaxUs and
// above share the last bucket. The counts live in one calloc'd block, so
// only the buckets a run hits are ever touched.
class LatencyHistogram {
 public:
  static constexpr std::size_t kMaxUs = std::size_t{1} << 22;  // ~4.2 s

  LatencyHistogram()
      : counts_(static_cast<std::uint32_t*>(
            std::calloc(kMaxUs + 1, sizeof(std::uint32_t)))) {
    if (!counts_) std::abort();
  }
  ~LatencyHistogram() { std::free(counts_); }
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  void add_ns(std::int64_t ns) {
    const auto us = static_cast<std::size_t>(std::max<std::int64_t>(ns, 0) / 1000);
    ++counts_[std::min(us, kMaxUs)];
    ++count_;
  }

  std::uint64_t count() const { return count_; }

  // Nearest-rank q-quantile in µs (0 < q <= 1); 0 when empty.
  double quantile_us(double q) const {
    if (count_ == 0) return 0.0;
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))));
    std::uint64_t seen = 0;
    for (std::size_t us = 0; us <= kMaxUs; ++us) {
      seen += counts_[us];
      if (seen >= rank) return static_cast<double>(us);
    }
    return static_cast<double>(kMaxUs);
  }

 private:
  std::uint32_t* counts_;
  std::uint64_t count_ = 0;
};

// One reported figure: value, unit, and how many samples it summarizes.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;
  std::string note;
};

struct Result {
  std::vector<Metric> end_to_end;  // reported with --trace 0
  std::vector<Metric> per_layer;   // reported with --trace 1
  std::vector<Metric> info;        // printed in the table only
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;
  std::string spans_file;

  void fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

// Span of a traced run: one call across a layer boundary the benchmark
// decorates. `parent` is the index of the enclosing span in the same buffer
// (-1: called from the runtime loop itself); `op` is the first op id the span
// handled, -1 when the boundary does not know it.
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;
  std::int64_t op;
};

// Fixed-capacity span buffer owned by one thread; spans past the capacity are
// counted, not stored, so tracing never allocates on the hot path.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t capacity = 0) { spans_.reserve(capacity); }

  std::int32_t push(const Span& s) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return -1;
    }
    spans_.push_back(s);
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  Span* at(std::int32_t i) { return i < 0 ? nullptr : &spans_[static_cast<std::size_t>(i)]; }
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

// Writes every buffer as tab-separated rows: thread, index, name, start_ns,
// end_ns, parent, op. `header` lines are written first, prefixed by '#'.
inline bool write_spans(const std::string& path,
                        const std::vector<std::string>& header,
                        const std::vector<const SpanBuffer*>& buffers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  for (const auto& h : header) std::fprintf(f, "# %s\n", h.c_str());
  std::fprintf(f, "thread\tindex\tname\tstart_ns\tend_ns\tparent\top\n");
  for (std::size_t t = 0; t < buffers.size(); ++t) {
    const auto& v = buffers[t]->spans();
    for (std::size_t i = 0; i < v.size(); ++i)
      std::fprintf(f, "%zu\t%zu\t%s\t%lld\t%lld\t%d\t%lld\n", t, i, v[i].name,
                   static_cast<long long>(v[i].start_ns),
                   static_cast<long long>(v[i].end_ns), v[i].parent,
                   static_cast<long long>(v[i].op));
    if (buffers[t]->dropped())
      std::fprintf(f, "# thread %zu: %llu spans past capacity not stored\n", t,
                   static_cast<unsigned long long>(buffers[t]->dropped()));
  }
  return std::fclose(f) == 0;
}

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

Result run_sim_ring(const RunArgs& args);
Result run_live(const RunArgs& args);

}  // namespace perfbench
