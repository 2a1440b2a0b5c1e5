// Shared plumbing of perf_bench: the sampler, the metric report and its
// JSON writer, the span tracer, the output checks and the environment stamp.
//
// Everything here lives on the benchmark side of the library's public
// entry points. Spans are recorded around calls into the library, never
// inside it, so a layer's time is what its public functions cost a caller.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "support/config.hpp"
#include "support/matrix.hpp"
#include "support/random.hpp"

namespace perf {

using strassen::index_t;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Independent, reproducible random stream number `stream` of a run seed.
inline strassen::Rng stream_rng(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return strassen::Rng(z ^ (z >> 31));
}

// ---------------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------------

/// Order statistics of a sample after its warm-up prefix was dropped.
struct Summary {
  double median = 0, q1 = 0, q3 = 0, min = 0;
  std::size_t count = 0;
};

/// Linear interpolation between closest ranks of a sorted sample.
inline double quantile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double pos = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

/// Median, quartiles, minimum and count of `samples` without its first
/// `warmup` entries.
inline Summary summarize(const std::vector<double>& samples,
                         std::size_t warmup = 0) {
  std::vector<double> v(samples.begin() + static_cast<std::ptrdiff_t>(
                                              std::min(warmup, samples.size())),
                        samples.end());
  std::sort(v.begin(), v.end());
  Summary s;
  s.count = v.size();
  if (v.empty()) return s;
  s.median = quantile(v, 0.5);
  s.q1 = quantile(v, 0.25);
  s.q3 = quantile(v, 0.75);
  s.min = v.front();
  return s;
}

/// Times fn() `reps` times after `warmup` untimed calls; returns the summary
/// of the per-call wall seconds.
template <class F>
Summary sample(F&& fn, int reps, int warmup = 1) {
  for (int i = 0; i < warmup; ++i) fn();
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    t.push_back(seconds_between(t0, Clock::now()));
  }
  return summarize(t);
}

// ---------------------------------------------------------------------------
// Metric report
// ---------------------------------------------------------------------------

/// One named value with its unit, plus the sample it was reduced from when
/// it is a median.
struct Metric {
  double value = 0;
  std::string unit;
  bool sampled = false;
  Summary summary;
};

/// JSON string literal (the report only carries plain ASCII names).
inline std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

/// Every digit of a double, as JSON (non-finite values have no JSON form and
/// are written as null, which the harness refuses).
inline std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Named metrics of one run, in insertion order.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    Metric& m = slot(name);
    m.value = value;
    m.unit = unit;
  }
  void set(const std::string& name, const Summary& s, const std::string& unit,
           double scale = 1.0) {
    Metric& m = slot(name);
    m.value = s.median * scale;
    m.unit = unit;
    m.sampled = true;
    m.summary = {s.median * scale, s.q1 * scale, s.q3 * scale, s.min * scale,
                 s.count};
  }
  void put(const std::string& name, const Metric& m) { slot(name) = m; }
  bool has(const std::string& name) const { return index_.count(name) != 0; }
  const Metric& get(const std::string& name) const {
    return items_[index_.at(name)].second;
  }

  /// `name value unit` per line.
  void print_lines(std::FILE* f) const {
    for (const auto& [name, m] : items_) {
      std::fprintf(f, "%s %.10g %s\n", name.c_str(), m.value, m.unit.c_str());
    }
  }

  /// {"name": {"value": v, "unit": u[, "q1", "q3", "min", "count"]}, ...}
  std::string json(bool with_samples) const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const auto& [name, m] = items_[i];
      out += (i ? ", " : "") + json_str(name) + ": {\"value\": " +
             json_num(m.value) + ", \"unit\": " + json_str(m.unit);
      if (with_samples && m.sampled) {
        out += ", \"q1\": " + json_num(m.summary.q1) +
               ", \"q3\": " + json_num(m.summary.q3) +
               ", \"min\": " + json_num(m.summary.min) +
               ", \"count\": " + std::to_string(m.summary.count);
      }
      out += "}";
    }
    return out + "}";
  }

 private:
  Metric& slot(const std::string& name) {
    auto it = index_.find(name);
    if (it != index_.end()) return items_[it->second].second;
    index_[name] = items_.size();
    items_.emplace_back(name, Metric{});
    return items_.back().second;
  }

  std::vector<std::pair<std::string, Metric>> items_;
  std::map<std::string, std::size_t> index_;
};

// ---------------------------------------------------------------------------
// Span tracer
// ---------------------------------------------------------------------------

/// In-memory spans, written as Chrome trace-event JSON at exit. A span's
/// name is "<layer>.<what>"; the layer is the library module whose public
/// function the span wraps ("bench" for the benchmark's own work).
class Tracer {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Span {
    const char* name;
    Clock::time_point start, end;
    std::uint32_t parent;
    std::uint64_t tid;  // display row: 0 for the caller, 1 + id for requests
  };

  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {
    if (on_) spans_.reserve(1 << 18);
  }

  bool on() const { return on_; }

  /// Opens a span now; returns its id (kNone when tracing is off).
  std::uint32_t open(const char* name, std::uint32_t parent = kNone) {
    return add(name, Clock::now(), Clock::time_point{}, parent);
  }
  void close(std::uint32_t id) {
    if (id == kNone) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id].end = Clock::now();
  }
  /// Records a span whose interval is already known.
  std::uint32_t add(const char* name, Clock::time_point start,
                    Clock::time_point end, std::uint32_t parent,
                    std::uint64_t tid = 0) {
    if (!on_) return kNone;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start, end, parent, tid});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }

  std::size_t size() const { return spans_.size(); }

  /// Per-layer self time in seconds: each span's duration minus the part of
  /// it covered by its children, summed by layer.
  std::map<std::string, double> self_seconds() const {
    std::vector<std::vector<std::uint32_t>> kids(spans_.size());
    for (std::uint32_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent != kNone) kids[spans_[i].parent].push_back(i);
    }
    std::map<std::string, double> out;
    for (std::uint32_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
      for (const std::uint32_t k : kids[i]) {
        iv.emplace_back(std::max(spans_[k].start, s.start),
                        std::min(spans_[k].end, s.end));
      }
      std::sort(iv.begin(), iv.end());
      double covered = 0;
      Clock::time_point reach = s.start;
      for (const auto& [a, b] : iv) {
        const Clock::time_point from = std::max(a, reach);
        if (b > from) {
          covered += seconds_between(from, b);
          reach = b;
        }
      }
      out[layer(s.name)] += seconds_between(s.start, s.end) - covered;
    }
    return out;
  }

  /// Spans whose interval is not inside their parent's.
  std::size_t nesting_errors() const {
    std::size_t bad = 0;
    for (const Span& s : spans_) {
      if (s.parent == kNone) continue;
      const Span& p = spans_[s.parent];
      if (s.start < p.start || s.end > p.end || s.end < s.start) ++bad;
    }
    return bad;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(
          f,
          "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
          "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": "
          "%zu, \"parent\": %lld}}\n",
          i ? "," : "", s.name, layer(s.name).c_str(),
          static_cast<unsigned long long>(s.tid),
          1e6 * seconds_between(epoch_, s.start),
          1e6 * seconds_between(s.start, s.end), i,
          s.parent == kNone ? -1LL : static_cast<long long>(s.parent));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

  static std::string layer(const char* name) {
    const std::string n(name);
    return n.substr(0, n.find('.'));
  }

 private:
  bool on_;
  Clock::time_point epoch_;
  std::mutex mu_;  // guards spans_ (the serving collector and the caller)
  std::vector<Span> spans_;
};

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, std::uint32_t parent = Tracer::kNone)
      : t_(t), id_(t.open(name, parent)) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { t_.close(id_); }
  std::uint32_t id() const { return id_; }

 private:
  Tracer& t_;
  std::uint32_t id_;
};

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

/// Largest relative residual a correct double-precision product may show
/// under the Freivalds check below. Strassen's forward error grows with the
/// recursion depth (Higham), but stays many orders of magnitude below this
/// at the sizes the workloads run; a single wrong entry of C moves the
/// residual by roughly |error| / (|alpha| ||A|| ||B||), far above it.
inline constexpr double kGemmTolerance = 1e-12;

/// Largest relative eigen residual and orthogonality defect an ISDA solve
/// may show.
inline constexpr double kEigenTolerance = 1e-9;

using LVec = std::vector<long double>;

/// y = op-free column-major M (rows x cols, ld) times x, in long double.
inline LVec matvec(const double* m, index_t rows, index_t cols, index_t ld,
                   const LVec& x) {
  LVec y(static_cast<std::size_t>(rows), 0.0L);
  for (index_t j = 0; j < cols; ++j) {
    const long double xj = x[static_cast<std::size_t>(j)];
    const double* col = m + j * ld;
    for (index_t i = 0; i < rows; ++i) y[static_cast<std::size_t>(i)] += col[i] * xj;
  }
  return y;
}

/// Infinity norm (largest absolute row sum) of a column-major matrix.
inline long double norm_inf(const double* m, index_t rows, index_t cols,
                            index_t ld) {
  LVec rs(static_cast<std::size_t>(rows), 0.0L);
  for (index_t j = 0; j < cols; ++j) {
    for (index_t i = 0; i < rows; ++i) {
      rs[static_cast<std::size_t>(i)] += std::fabs(m[i + j * ld]);
    }
  }
  return rows ? *std::max_element(rs.begin(), rs.end()) : 0.0L;
}

inline long double norm_inf(const LVec& v) {
  long double n = 0;
  for (const long double x : v) n = std::max(n, std::fabs(x));
  return n;
}

/// Freivalds reference of one product C = alpha*A*B + beta*C0 for a fixed
/// random vector x: Cx must equal ref = alpha*A(Bx) + beta*C0x up to the
/// rounding of the product, measured against scale.
struct FreivaldsRef {
  LVec x, ref;
  long double scale = 1;

  FreivaldsRef() = default;
  /// A is m x k (lda), B is k x n (ldb), C0 is m x n (ldc0; null when
  /// beta == 0). x has entries in [0.5, 1.5], so every column of C counts.
  FreivaldsRef(index_t m, index_t n, index_t k, double alpha, const double* a,
               index_t lda, const double* b, index_t ldb, double beta,
               const double* c0, index_t ldc0, strassen::Rng& rng) {
    x.resize(static_cast<std::size_t>(n));
    for (long double& v : x) v = rng.uniform(0.5, 1.5);
    const LVec bx = matvec(b, k, n, ldb, x);
    ref = matvec(a, m, k, lda, bx);
    for (long double& v : ref) v *= alpha;
    scale = std::fabs(alpha) * norm_inf(a, m, k, lda) * norm_inf(b, k, n, ldb) *
            norm_inf(x);
    if (beta != 0.0) {
      const LVec cx = matvec(c0, m, n, ldc0, x);
      for (std::size_t i = 0; i < ref.size(); ++i) ref[i] += beta * cx[i];
      scale += std::fabs(beta) * norm_inf(c0, m, n, ldc0) * norm_inf(x);
    }
    if (scale == 0) scale = 1;
  }

  /// Relative residual of C over all rows, or over `rows` rows spread from
  /// `first` (the sampled check of serving tickets).
  double residual(const double* c, index_t m, index_t n, index_t ldc,
                  index_t rows = 0, std::uint64_t first = 0) const {
    const bool all = rows <= 0 || rows >= m;
    const index_t count = all ? m : rows;
    long double worst = 0;
    for (index_t r = 0; r < count; ++r) {
      const index_t i =
          all ? r : static_cast<index_t>((first + static_cast<std::uint64_t>(r) *
                                                      static_cast<std::uint64_t>(m / rows)) %
                                         static_cast<std::uint64_t>(m));
      long double y = 0;
      for (index_t j = 0; j < n; ++j) y += c[i + j * ldc] * x[static_cast<std::size_t>(j)];
      const long double d = std::fabs(y - ref[static_cast<std::size_t>(i)]);
      if (std::isnan(d)) return std::nan("");
      worst = std::max(worst, d);
    }
    return static_cast<double>(worst / scale);
  }
};

/// Residuals of an eigendecomposition A = Q diag(w) Q^T, checked by random
/// projection: ||A(Qx) - Q(wx)|| / (||A|| ||x||) and ||Q^T(Qx) - x|| / ||x||.
struct EigenResiduals {
  double residual = 0, orthogonality = 0;
};

inline EigenResiduals eigen_residuals(const strassen::Matrix& a,
                                      const strassen::Matrix& q,
                                      const std::vector<double>& w,
                                      strassen::Rng& rng) {
  const index_t n = a.rows();
  LVec x(static_cast<std::size_t>(n));
  for (long double& v : x) v = rng.uniform(0.5, 1.5);
  const LVec qx = matvec(q.data(), n, n, q.ld(), x);
  const LVec aqx = matvec(a.data(), n, n, a.ld(), qx);
  LVec wx = x;
  for (std::size_t i = 0; i < wx.size(); ++i) wx[i] *= w[i];
  const LVec qwx = matvec(q.data(), n, n, q.ld(), wx);
  LVec qtqx(static_cast<std::size_t>(n), 0.0L);  // Q^T (Qx)
  for (index_t j = 0; j < n; ++j) {
    long double s = 0;
    for (index_t i = 0; i < n; ++i) s += q(i, j) * qx[static_cast<std::size_t>(i)];
    qtqx[static_cast<std::size_t>(j)] = s;
  }
  long double r = 0, o = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const long double dr = std::fabs(aqx[i] - qwx[i]);
    const long double dorth = std::fabs(qtqx[i] - x[i]);
    if (std::isnan(dr) || std::isnan(dorth)) return {std::nan(""), std::nan("")};
    r = std::max(r, dr);
    o = std::max(o, dorth);
  }
  const long double xn = norm_inf(x);
  long double an = norm_inf(a.data(), n, n, a.ld());
  if (an == 0) an = 1;
  return {static_cast<double>(r / (an * xn)), static_cast<double>(o / xn)};
}

}  // namespace perf
