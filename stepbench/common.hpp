// Shared pieces of the step benchmark: run options, timing and statistics
// helpers, the correctness-check ledger, in-memory spans, and the result
// record every workload returns.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/model.hpp"

namespace stepbench {

using Clock = std::chrono::steady_clock;

/// Global ranks every workload runs on (rank threads of one comm::World).
constexpr int kRanks = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string source_commit = "unknown";
  std::string source_digest = "unknown";
};

/// Steady-clock instant at main() entry: setup_s is measured from here.
Clock::time_point process_start();

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}
inline std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Peak resident set size of the process so far (VmHWM), in MB (1e6 bytes).
double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Named correctness checks. Each comparison check also runs a negative
/// control: the same comparator fed deliberately perturbed data must reject
/// it, so a check that can no longer fail is itself reported as a failure.
class Checks {
 public:
  void expect(const std::string& name, bool ok, const std::string& detail);
  /// `rejected` is the comparator's verdict on perturbed data (true = it
  /// reported a mismatch, as it must).
  void control(const std::string& name, bool rejected);
  bool all_passed() const { return failures_ == 0; }
  const std::vector<std::string>& lines() const { return lines_; }

 private:
  std::vector<std::string> lines_;
  int failures_ = 0;
};

/// Largest |got - want| / max(1, |want|) over two arrays (the exactness
/// suite's element-wise form); huge on a size mismatch or a NaN.
double worst_rel_diff(const float* got, std::size_t n, const float* want,
                      std::size_t m);

/// One span: a call into a module's public function, timed from outside.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;        ///< index of the enclosing span in the same log
  std::int64_t id = -1;   ///< step index or request index
};

/// Per-thread span log, kept in memory and written at the end of the run.
/// A null log (untraced runs) makes ScopedSpan a no-op.
class SpanLog {
 public:
  int open(const char* name, std::int64_t id);
  void close(int index);
  /// Add an already finished span (lifetimes that overlap, such as
  /// in-flight requests, cannot nest on the open/close stack).
  int record(const char* name, Clock::time_point start, Clock::time_point end,
             int parent, std::int64_t id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::int64_t id = -1)
      : log_(log), index_(log ? log->open(name, id) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

/// Write every log (one per rank thread or client thread) as JSON.
void write_spans(const std::string& path, const Options& opt,
                 const std::vector<std::string>& log_names,
                 const std::vector<const SpanLog*>& logs);

/// What a workload hands back to main().
struct Result {
  bool ran = false;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  Checks checks;
  std::vector<Metric> metrics;  ///< end-to-end or per-layer, per --trace
  std::string strategy;         ///< compact strategy string that ran
  int thread_budget = 0;        ///< parallel::num_threads() on a rank thread
  std::string model_settings;   ///< effective ModelOptions (provenance)
  std::vector<std::string> notes;  ///< reference figures for the README
};

/// Every per-layer metric of the traced run, in ledger order, with the
/// given values; a layer the workload does not exercise reads 0. Throws on
/// a name that is not in the ledger.
std::vector<Metric> ledger_metrics(const std::map<std::string, double>& values);

/// Compact strategy text: runs of identical grids as "a-b:NxCxHxW".
std::string compact_strategy(const distconv::core::Strategy& s);

/// Effective model options of a built model (progress mode, overlap).
std::string model_settings(const distconv::core::Model& model);

/// Naive direct convolution (batch, all channels; zero padding), the
/// benchmark's own reference for one conv layer per workload.
distconv::Tensor<float> naive_conv(const distconv::Tensor<float>& x,
                                   const distconv::Tensor<float>& w,
                                   const distconv::kernels::ConvParams& p);

Result run_training(const Options& opt);
Result run_serving(const Options& opt);

}  // namespace stepbench
