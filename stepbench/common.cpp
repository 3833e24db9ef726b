#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace stepbench {

namespace {
// Initialized during static initialization, before main() runs.
const Clock::time_point g_process_start = Clock::now();
}  // namespace

Clock::time_point process_start() { return g_process_start; }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // kB -> MB
    }
  }
  return 0;
}

void Checks::expect(const std::string& name, bool ok,
                    const std::string& detail) {
  if (!ok) ++failures_;
  lines_.push_back(std::string(ok ? "PASS " : "FAIL ") + name + ": " + detail);
}

void Checks::control(const std::string& name, bool rejected) {
  if (!rejected) ++failures_;
  lines_.push_back(std::string(rejected ? "PASS " : "FAIL ") + name +
                   " (negative control): perturbed data " +
                   (rejected ? "rejected" : "ACCEPTED"));
}

double worst_rel_diff(const float* got, std::size_t n, const float* want,
                      std::size_t m) {
  if (n != m || n == 0) return std::numeric_limits<double>::max();
  double r = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double e = std::fabs(static_cast<double>(got[i]) - want[i]) /
                     std::max(1.0, std::fabs(static_cast<double>(want[i])));
    if (std::isnan(e)) return std::numeric_limits<double>::max();
    r = std::max(r, e);
  }
  return r;
}

int SpanLog::open(const char* name, std::int64_t id) {
  Span s;
  s.name = name;
  s.start_ns = to_ns(Clock::now());
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.id = id >= 0 ? id : (stack_.empty() ? -1 : spans_[stack_.back()].id);
  spans_.push_back(s);
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void SpanLog::close(int index) {
  spans_[index].end_ns = to_ns(Clock::now());
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

int SpanLog::record(const char* name, Clock::time_point start,
                    Clock::time_point end, int parent, std::int64_t id) {
  Span s;
  s.name = name;
  s.start_ns = to_ns(start);
  s.end_ns = to_ns(end);
  s.parent = parent;
  s.id = id;
  spans_.push_back(s);
  return static_cast<int>(spans_.size()) - 1;
}

void write_spans(const std::string& path, const Options& opt,
                 const std::vector<std::string>& log_names,
                 const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "stepbench: cannot write %s\n", path.c_str());
    return;
  }
  const std::int64_t t0 = to_ns(process_start());
  out << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
      << ", \"time_origin\": \"process start\", \"logs\": {";
  for (std::size_t l = 0; l < logs.size(); ++l) {
    out << (l ? ", " : "") << "\"" << log_names[l] << "\": [";
    const auto& spans = logs[l]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << (i ? ",\n  " : "\n  ") << "{\"name\": \"" << s.name
          << "\", \"start_ns\": " << (s.start_ns - t0)
          << ", \"end_ns\": " << (s.end_ns - t0) << ", \"parent\": "
          << s.parent << ", \"id\": " << s.id << "}";
    }
    out << "]";
  }
  out << "}}\n";
}

std::vector<Metric> ledger_metrics(const std::map<std::string, double>& values) {
  static const std::pair<const char*, const char*> kLedger[] = {
      {"core.forward_ms", "ms"},
      {"core.backward_ms", "ms"},
      {"core.sgd_ms", "ms"},
      {"core.grad_tail_ms", "ms"},
      {"core.rank_skew_ms", "ms"},
      {"core.activation_mb", "MB"},
      {"kernels.conv_fwd_ms", "ms"},
      {"kernels.conv_bwd_data_ms", "ms"},
      {"kernels.conv_bwd_filter_ms", "ms"},
      {"kernels.conv_gflop", "GFLOP"},
      {"tensor.halo_ms", "ms"},
      {"tensor.halo_mb", "MB"},
      {"tensor.shuffle_ms", "ms"},
      {"tensor.shuffle_mb", "MB"},
      {"comm.allreduce_ms", "ms"},
      {"comm.allreduce_mb", "MB"},
      {"comm.reduce_scatter_ms", "ms"},
      {"comm.allgather_ms", "ms"},
      {"comm.wait_ms", "ms"},
      {"perf.strategy_opt_ms", "ms"},
      {"perf.plan_ms", "ms"},
      {"perf.plan_misses", "count"},
      {"data.generate_ms", "ms"},
      {"serve.queue_ms", "ms"},
      {"serve.batch_wait_ms", "ms"},
      {"serve.forward_ms", "ms"},
      {"serve.respond_ms", "ms"},
      {"serve.batch_fill", "ratio"},
      {"serve.generator_late_ms", "ms"},
      {"obs.trace_overhead_ms", "ms"},
  };
  std::vector<Metric> out;
  std::size_t used = 0;
  for (const auto& [name, unit] : kLedger) {
    const auto it = values.find(name);
    used += it != values.end();
    out.push_back({name, it != values.end() ? it->second : 0.0, unit});
  }
  if (used != values.size()) {
    throw std::invalid_argument("ledger_metrics: a value names no ledger metric");
  }
  return out;
}

std::string compact_strategy(const distconv::core::Strategy& s) {
  std::ostringstream out;
  const auto grid_str = [](const distconv::ProcessGrid& g) {
    return std::to_string(g.n) + "x" + std::to_string(g.c) + "x" +
           std::to_string(g.h) + "x" + std::to_string(g.w);
  };
  std::size_t i = 0;
  while (i < s.grids.size()) {
    std::size_t j = i;
    while (j + 1 < s.grids.size() &&
           grid_str(s.grids[j + 1]) == grid_str(s.grids[i])) {
      ++j;
    }
    if (i) out << " | ";
    out << i << "-" << j << ":" << grid_str(s.grids[i]);
    i = j + 1;
  }
  return out.str();
}

std::string model_settings(const distconv::core::Model& model) {
  const auto& o = model.options();
  return std::string("comm_progress=") + distconv::comm::to_string(o.comm_progress) +
         " overlap_allreduce=" + (o.overlap_allreduce ? "on" : "off") +
         " overlap_halo=" + (o.overlap_halo ? "on" : "off");
}

distconv::Tensor<float> naive_conv(const distconv::Tensor<float>& x,
                                   const distconv::Tensor<float>& w,
                                   const distconv::kernels::ConvParams& p) {
  const auto& xs = x.shape();
  const auto& ws = w.shape();
  const std::int64_t oh = p.out_h(xs.h), ow = p.out_w(xs.w);
  distconv::Tensor<float> y(distconv::Shape4{xs.n, ws.n, oh, ow});
  for (std::int64_t n = 0; n < xs.n; ++n)
    for (std::int64_t f = 0; f < ws.n; ++f)
      for (std::int64_t i = 0; i < oh; ++i)
        for (std::int64_t j = 0; j < ow; ++j) {
          double acc = 0;
          for (std::int64_t c = 0; c < xs.c; ++c)
            for (int a = 0; a < p.kh; ++a)
              for (int b = 0; b < p.kw; ++b) {
                const std::int64_t h = i * p.sh - p.ph + a;
                const std::int64_t v = j * p.sw - p.pw + b;
                if (h < 0 || h >= xs.h || v < 0 || v >= xs.w) continue;
                acc += static_cast<double>(x(n, c, h, v)) * w(f, c, a, b);
              }
          y(n, f, i, j) = static_cast<float>(acc);
        }
  return y;
}

}  // namespace stepbench
