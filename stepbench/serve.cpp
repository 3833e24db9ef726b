// serve_fleet: a trained checkpoint served by serve::Router over two replica
// groups of two ranks, with a fixed batcher policy.
//
// Setup trains a small ResNet from the model zoo for a few steps on 4
// ranks, checkpoints it, starts the first fleet and warms it up. The timed
// part runs on several fleet instances in turn (each a fresh World and
// Router loading the same checkpoint, so allocation and thread placement
// differ between instances and their luck averages out): each serves an
// open-loop Poisson segment at a fixed rate below saturation (latency timed
// from each request's due time) and then drains a preloaded burst
// (saturated throughput), kRounds times in an untraced run. Every response
// is then checked bitwise against a single-rank forward of the same
// checkpoint.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <future>
#include <map>
#include <sstream>
#include <thread>

#include "comm/world.hpp"
#include "common.hpp"
#include "core/checkpoint.hpp"
#include "core/layers.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "models/models.hpp"
#include "obs/metrics.hpp"
#include "serve/replica.hpp"
#include "serve/router.hpp"
#include "support/parallel.hpp"

namespace stepbench {

using namespace distconv;

namespace {

constexpr int kMaxBatch = 8;
constexpr int kReplicas = 2;
constexpr int kClasses = 10;
constexpr int kImage = 32;
constexpr int kWidth = 4;  ///< ResNet base width
constexpr int kTopK = 3;
constexpr int kTrainSteps = 20;
constexpr int kPool = 256;       ///< distinct request samples, cycled
constexpr int kFleets = 4;       ///< fleet instances per run
constexpr int kWarmup = 64;      ///< requests each fleet serves before timing
constexpr double kRate = 250.0;  ///< open-loop arrival rate, requests/s
constexpr int kBurst = 2048;     ///< preloaded requests per burst
/// Rounds of (open-loop segment, burst) per fleet in an untraced run. A
/// burst drains in about 0.35 s, so rounds spread the bursts over the run
/// instead of sampling the host's speed at four moments.
constexpr int kRounds = 4;
/// Greedy batching (dispatch whatever is queued once a replica is free) and
/// no double-buffered prefetch: no batcher timer and no progress-engine op
/// enters the latency.
constexpr std::int64_t kMaxDelayUs = 0;
constexpr bool kDoubleBuffer = false;
const char* const kTag = "classifier";
const char* const kCheckLayer = "res2a_branch2b";
/// Element-wise tolerance of the naive-convolution comparison.
constexpr double kNaiveConvTol = 1e-4;

struct Request {
  int sample = 0;
  Clock::time_point due, submitted;
  std::future<serve::InferenceResult> fut;
  serve::InferenceResult res;
  bool ok = false;
  Clock::time_point done() const {
    return submitted + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(res.latency_seconds));
  }
};

struct Phase {
  std::vector<Request> reqs;
  int failed = 0;
};

struct StageSums {
  double queue_us = 0, batch_wait_us = 0, forward_us = 0, respond_us = 0;
  double count = 0, requests = 0, batches = 0;

  StageSums operator-(const StageSums& o) const {
    return {queue_us - o.queue_us,     batch_wait_us - o.batch_wait_us,
            forward_us - o.forward_us, respond_us - o.respond_us,
            count - o.count,           requests - o.requests,
            batches - o.batches};
  }
  StageSums& operator+=(const StageSums& o) {
    queue_us += o.queue_us;
    batch_wait_us += o.batch_wait_us;
    forward_us += o.forward_us;
    respond_us += o.respond_us;
    count += o.count;
    requests += o.requests;
    batches += o.batches;
    return *this;
  }
};

/// Sums of the program's serve.replica.<g>.stage.*_us histograms and
/// request/batch counters over every replica and rank.
StageSums stage_sums() {
  const obs::metrics::Snapshot snap = obs::metrics::snapshot();
  StageSums s;
  for (int g = 0; g < kReplicas; ++g) {
    const std::string prefix = serve::replica_metric_prefix(g);
    for (const auto& entry : snap.histograms) {
      const auto& hists = entry.second;
      const auto sum = [&](const char* stage, double* total, double* count) {
        const auto it = hists.find(prefix + ".stage." + stage + "_us");
        if (it == hists.end()) return;
        *total += static_cast<double>(it->second.sum);
        if (count != nullptr) *count += static_cast<double>(it->second.count);
      };
      sum("queue", &s.queue_us, &s.count);
      sum("batch_wait", &s.batch_wait_us, nullptr);
      sum("forward", &s.forward_us, nullptr);
      sum("respond", &s.respond_us, nullptr);
    }
    s.requests += static_cast<double>(snap.counter_total(prefix + ".requests"));
    s.batches += static_cast<double>(snap.counter_total(prefix + ".batches"));
  }
  return s;
}

/// The model zoo's bottleneck ResNet, one block per stage, at a serving
/// batch of kMaxBatch.
core::NetworkSpec classifier_spec() {
  models::ResNetConfig rc;
  rc.batch = kMaxBatch;
  rc.image = kImage;
  rc.classes = kClasses;
  rc.stages = {1, 1, 1, 1};
  rc.base_width = kWidth;
  return models::make_resnet(rc);
}

/// Train the model for a few steps on 4 ranks and serialize the checkpoint.
std::string train_checkpoint(const core::NetworkSpec& spec,
                             const data::ClassificationDataset& ds,
                             std::uint64_t seed) {
  std::string blob;
  comm::World world(kRanks);
  world.run([&](comm::Comm& comm) {
    core::Model model(spec, comm,
                      core::Strategy::sample_parallel(spec.size(), kRanks), seed);
    core::Trainer trainer(
        model, core::TrainerOptions{kernels::SgdConfig{0.05f, 0.9f, 0.0f}, 1});
    Tensor<float> images(Shape4{kMaxBatch, 3, kImage, kImage});
    std::vector<int> labels;
    for (int s = 0; s < kTrainSteps; ++s) {
      ds.batch((s % 4) * kMaxBatch, images, labels);
      trainer.step_softmax(images, labels);
    }
    if (comm.rank() == 0) blob = core::serialize_checkpoint(model);
  });
  return blob;
}

/// Single-rank forward of the checkpoint over the request pool (kMaxBatch
/// samples per inference forward), plus the naive-convolution check of one
/// conv layer on the first of those forwards.
std::vector<std::vector<serve::Prediction>> oracle(
    const core::NetworkSpec& spec, const std::string& blob,
    const std::vector<Tensor<float>>& pool, Checks& checks) {
  std::vector<std::vector<serve::Prediction>> topk(pool.size());
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    core::Model model(spec, comm, core::Strategy::sample_parallel(spec.size(), 1), 1);
    std::istringstream in(blob);
    core::load_checkpoint(model, in);
    const int layer = models::layer_index(spec, kCheckLayer);
    const int parent = spec.layer(layer).parents()[0];
    const std::int64_t per = pool[0].size();
    for (std::size_t first = 0; first < pool.size(); first += kMaxBatch) {
      Tensor<float> input(model.rt(0).out_shape);
      for (std::size_t k = 0; k < kMaxBatch && first + k < pool.size(); ++k) {
        std::copy(pool[first + k].data(), pool[first + k].data() + per,
                  input.data() + k * per);
      }
      model.set_input(0, input);
      model.forward(core::Mode::kInference);
      const Tensor<float> logits = model.gather_output(model.output_layer());
      for (std::size_t k = 0; k < kMaxBatch && first + k < pool.size(); ++k) {
        topk[first + k] =
            serve::topk_softmax(logits.data() + k * kClasses, kClasses, kTopK);
      }
      if (first != 0) continue;
      const auto* conv =
          dynamic_cast<const core::Conv2dLayer*>(&spec.layer(layer));
      const Tensor<float> x = model.gather_output(parent);
      const Tensor<float> y = model.gather_output(layer);
      const Tensor<float>& w = model.rt(layer).params[0];
      const Tensor<float> want = naive_conv(x, w, conv->conv_params());
      const auto n = static_cast<std::size_t>(y.size());
      const double diff = worst_rel_diff(y.data(), n, want.data(), want.size());
      char buf[160];
      std::snprintf(buf, sizeof(buf), "max |diff| / max(1, |ref|) = %.3g <= %.1g",
                    diff, kNaiveConvTol);
      const std::string name = std::string("conv ") + kCheckLayer;
      checks.expect(name + " vs naive convolution", diff <= kNaiveConvTol, buf);
      Tensor<float> w_bad = w;
      // Every tap of filter 0: one input channel alone may be all zero.
      const std::int64_t filter_taps = w_bad.size() / w_bad.shape().n;
      for (std::int64_t i = 0; i < filter_taps; ++i) w_bad.data()[i] += 0.05f;
      const Tensor<float> bad = naive_conv(x, w_bad, conv->conv_params());
      checks.control(name + " with a perturbed weight",
                     worst_rel_diff(y.data(), n, bad.data(), bad.size()) >
                         kNaiveConvTol);
    }
  });
  return topk;
}

bool same_topk(const std::vector<serve::Prediction>& a,
               const std::vector<serve::Prediction>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k].cls != b[k].cls || a[k].prob != b[k].prob) return false;  // bitwise
  }
  return true;
}

/// Top-k shape: kTopK entries, descending probabilities in [0, 1], and a
/// top-1 probability of at least 1 / classes. Trailing probabilities of a
/// confident prediction (logit gap above ~104) underflow to exactly 0 in
/// float, so 0 is a valid trailing value.
bool well_formed(const std::vector<serve::Prediction>& t) {
  if (static_cast<int>(t.size()) != kTopK) return false;
  if (!(t[0].prob >= 1.0f / kClasses)) return false;
  for (std::size_t k = 0; k < t.size(); ++k) {
    if (!(t[k].prob >= 0.0f && t[k].prob <= 1.0f)) return false;
    if (k > 0 && t[k].prob > t[k - 1].prob) return false;
  }
  return true;
}

int rounds(const Options& opt) { return opt.trace ? 1 : kRounds; }

/// Everything one fleet instance served.
struct Fleet {
  Phase warm, open_traced;
  std::vector<Phase> open, burst;  ///< one of each per round
  StageSums open_stages, burst_stages;  ///< traced runs only
  int thread_budget = 0;
  std::string error;
};

/// Drives one fleet instance: build it, warm it up, then each round's
/// open-loop segment (untraced, and with --trace 1 a traced one after it)
/// and burst. `on_warm` runs once the warm-up has completed.
class FleetRunner {
 public:
  FleetRunner(const Options& opt, const std::string& blob,
              const std::vector<Tensor<float>>& pool,
              const std::vector<double>& offsets)
      : opt_(opt), blob_(blob), pool_(pool), offsets_(offsets) {}

  void run(Fleet& fleet, SpanLog* log, const std::function<void()>& on_warm) {
    serve::Router router;
    serve::FleetModel fm;
    fm.tag = kTag;
    fm.spec = classifier_spec();
    fm.strategy = core::Strategy::sample_parallel(fm.spec.size(), kRanks / kReplicas);
    fm.checkpoint = blob_;
    fm.opts.batcher.max_batch = kMaxBatch;
    fm.opts.batcher.max_delay_us = kMaxDelayUs;
    fm.opts.batcher.max_queue = 2 * kBurst;
    fm.opts.batcher.deadline_us = 0;
    fm.opts.top_k = kTopK;
    fm.opts.continuous = false;
    fm.opts.double_buffer = kDoubleBuffer;
    fm.replicas = kReplicas;
    router.add_model(std::move(fm));

    // The replicas run on a thread of their own; the client runs on the
    // caller's thread, the same one for every fleet, so each fleet's
    // requests reuse the heap the previous fleet's requests freed.
    std::promise<void> fleet_up;
    std::atomic<bool> released{false};
    std::atomic<bool> server_failed{false};
    std::exception_ptr server_error;
    std::thread server([&] {
      try {
        comm::World world(router.total_ranks());
        world.run([&](comm::Comm& comm) {
          if (comm.rank() == 0) fleet.thread_budget = parallel::num_threads();
          if (!released.exchange(true)) fleet_up.set_value();
          router.serve(comm);
        });
      } catch (...) {
        server_error = std::current_exception();
        server_failed = true;
      }
      if (!released.exchange(true)) fleet_up.set_value();
    });
    fleet_up.get_future().wait();
    if (!server_failed) {
      try {
        burst(router, fleet.warm, kWarmup);
        on_warm();
        if (opt_.trace) obs::metrics::set_enabled(false);
        fleet.open.resize(rounds(opt_));
        fleet.burst.resize(rounds(opt_));
        for (int i = 0; i < rounds(opt_); ++i) {
          open_loop(router, fleet.open[i]);
          if (!opt_.trace) {
            burst(router, fleet.burst[i], kBurst);
            continue;
          }
          obs::metrics::set_enabled(true);
          const StageSums s0 = stage_sums();
          {
            ScopedSpan span(log, "serve.open_loop");
            open_loop(router, fleet.open_traced);
          }
          const StageSums s1 = stage_sums();
          {
            ScopedSpan span(log, "serve.burst");
            burst(router, fleet.burst[i], kBurst);
          }
          fleet.open_stages = s1 - s0;
          fleet.burst_stages = stage_sums() - s1;
        }
      } catch (const std::exception& e) {
        fleet.error = e.what();
      }
    }
    router.shutdown();
    server.join();
    if (server_error != nullptr) std::rethrow_exception(server_error);
  }

 private:
  /// Picks the request's sample and copies it, as a client would hold it.
  Tensor<float> next_sample(Request& r) {
    r.sample = next_sample_++ % kPool;
    return pool_[r.sample];
  }

  void submit(serve::Router& router, Phase& ph, Request& r, Tensor<float> copy) {
    r.submitted = Clock::now();
    try {
      r.fut = router.submit(kTag, std::move(copy));
    } catch (const std::exception&) {
      ++ph.failed;
    }
  }

  static void settle(Phase& ph) {
    for (auto& r : ph.reqs) {
      if (!r.fut.valid()) continue;
      try {
        r.res = r.fut.get();
        r.ok = true;
      } catch (const std::exception&) {
        ++ph.failed;
      }
    }
  }

  void open_loop(serve::Router& router, Phase& ph) {
    ph.reqs.resize(offsets_.size());
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < offsets_.size(); ++i) {
      Request& r = ph.reqs[i];
      r.due = t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(offsets_[i]));
      Tensor<float> copy = next_sample(r);
      std::this_thread::sleep_until(r.due);
      submit(router, ph, r, std::move(copy));
    }
    settle(ph);
  }

  /// Every sample is copied before the first submit, so the whole burst is
  /// resident at once whatever the replicas drain while it is queued.
  void burst(serve::Router& router, Phase& ph, int count) {
    ph.reqs.resize(count);
    std::vector<Tensor<float>> copies;
    copies.reserve(ph.reqs.size());
    for (auto& r : ph.reqs) copies.push_back(next_sample(r));
    for (std::size_t i = 0; i < ph.reqs.size(); ++i) {
      submit(router, ph, ph.reqs[i], std::move(copies[i]));
      ph.reqs[i].due = ph.reqs[i].submitted;
    }
    settle(ph);
  }

  const Options& opt_;
  const std::string& blob_;
  const std::vector<Tensor<float>>& pool_;
  const std::vector<double>& offsets_;
  int next_sample_ = 0;
};

/// Latency of each served request measured from when it was due.
void add_latencies(const Phase& ph, std::vector<double>& out) {
  for (const auto& r : ph.reqs) {
    if (r.ok) out.push_back(ms_between(r.due, r.done()));
  }
}

/// Completions per second from the moment the whole burst is queued (the
/// client then only waits) to its last completion.
double drain_rate(const Phase& b) {
  Clock::time_point queued = Clock::time_point::min(), last = queued;
  for (const auto& r : b.reqs) queued = std::max(queued, r.submitted);
  std::int64_t done = 0;
  for (const auto& r : b.reqs) {
    if (!r.ok || r.done() <= queued) continue;
    last = std::max(last, r.done());
    ++done;
  }
  return static_cast<double>(done) /
         std::max(1e-9, std::chrono::duration<double>(last - queued).count());
}

}  // namespace

Result run_serving(const Options& opt) {
  Result res;
  const core::NetworkSpec spec = classifier_spec();
  res.strategy =
      compact_strategy(core::Strategy::sample_parallel(spec.size(), kRanks / kReplicas)) +
      " per replica group, " + std::to_string(kReplicas) + " groups";
  res.model_settings = "replicas=" + std::to_string(kReplicas) +
                       " max_batch=" + std::to_string(kMaxBatch) +
                       " max_delay_us=" + std::to_string(kMaxDelayUs) +
                       " continuous=off double_buffer=" +
                       (kDoubleBuffer ? "on" : "off");

  data::ClassificationConfig dc;
  dc.size = kImage;
  dc.channels = 3;
  dc.classes = kClasses;
  dc.seed = opt.seed;
  const data::ClassificationDataset ds(dc);
  const std::string blob = train_checkpoint(spec, ds, opt.seed);

  const auto gen_t0 = Clock::now();
  std::vector<Tensor<float>> pool;
  for (int i = 0; i < kPool; ++i) {
    Tensor<float> s(Shape4{1, 3, kImage, kImage});
    ds.sample(100000 + i, s);
    pool.push_back(std::move(s));
  }
  const double generate_ms = ms_between(gen_t0, Clock::now());

  // Open-loop schedule of each segment: Poisson arrivals at kRate.
  const double open_s =
      (opt.trace ? 0.4 : 0.75) * opt.seconds / (kFleets * rounds(opt));
  const int n_open = std::max(1, static_cast<int>(kRate * open_s));
  std::vector<double> offsets(n_open);
  Rng rng(opt.seed, 7);
  double t = 0;
  for (int i = 0; i < n_open; ++i) {
    offsets[i] = t;
    t += -std::log(std::max(1e-12, 1.0 - rng.uniform())) / kRate;
  }

  double setup_s = 0;
  std::vector<Fleet> fleets(kFleets);
  SpanLog client_log;
  if (opt.trace) obs::metrics::reset();
  for (int f = 0; f < kFleets; ++f) {
    FleetRunner runner(opt, blob, pool, offsets);
    runner.run(fleets[f], opt.trace ? &client_log : nullptr, [&] {
      if (f == 0) setup_s = seconds_since(process_start());
    });
  }
  const double rss_mb = peak_rss_mb();
  res.thread_budget = fleets[0].thread_budget;
  res.ran = true;

  // --- correctness -----------------------------------------------------------
  const auto expected = oracle(spec, blob, pool, res.checks);
  std::int64_t submitted = 0, resolved = 0, attempted = 0, failed = 0;
  std::int64_t mismatched = 0, malformed = 0;
  const Request* sample_ok = nullptr;
  for (const Fleet& fleet : fleets) {
    if (!fleet.error.empty()) res.checks.expect("fleet client ran to its end", false, fleet.error);
    std::vector<const Phase*> phases = {&fleet.warm, &fleet.open_traced};
    for (const auto* group : {&fleet.open, &fleet.burst}) {
      for (const Phase& ph : *group) phases.push_back(&ph);
    }
    for (const Phase* ph : phases) {
      submitted += static_cast<std::int64_t>(ph->reqs.size());
      failed += ph->failed;
      if (ph != &fleet.warm) attempted += static_cast<std::int64_t>(ph->reqs.size());
      for (const auto& r : ph->reqs) {
        if (!r.ok) continue;
        ++resolved;
        if (sample_ok == nullptr) sample_ok = &r;
        if (!same_topk(r.res.topk, expected[r.sample])) ++mismatched;
        if (!well_formed(r.res.topk) && malformed++ == 0) {
          std::string ex = "first malformed top-k:";
          for (const auto& p : r.res.topk) {
            ex += " " + std::to_string(p.cls) + ":" + std::to_string(p.prob);
          }
          res.notes.push_back(ex);
        }
      }
    }
  }
  char buf[240];
  std::snprintf(buf, sizeof(buf), "%lld of %lld futures resolved",
                static_cast<long long>(resolved), static_cast<long long>(submitted));
  res.checks.expect("every submitted future resolves", resolved == submitted, buf);
  std::snprintf(buf, sizeof(buf), "%lld of %lld responses differ",
                static_cast<long long>(mismatched), static_cast<long long>(resolved));
  res.checks.expect("responses bitwise equal a single-rank forward",
                    resolved > 0 && mismatched == 0, buf);
  std::snprintf(buf, sizeof(buf), "%lld malformed", static_cast<long long>(malformed));
  res.checks.expect("top-k descending with probabilities in [0, 1]", malformed == 0,
                    buf);
  if (sample_ok != nullptr) {
    std::vector<serve::Prediction> bad = sample_ok->res.topk;
    bad[0].prob = std::nextafter(bad[0].prob, 0.0f);
    res.checks.control("responses bitwise equal a single-rank forward",
                       !same_topk(bad, expected[sample_ok->sample]));
    std::vector<serve::Prediction> unordered = sample_ok->res.topk;
    std::swap(unordered.front(), unordered.back());
    res.checks.control("top-k descending with probabilities in [0, 1]",
                       !well_formed(unordered));
  }
  res.attempted = attempted;
  res.failed = failed;

  // --- metrics -----------------------------------------------------------------
  // Latency quantiles are taken per open-loop segment and their median
  // reported, so a stretch of a run in which the host is slow moves them
  // only when it covers half the segments.
  std::vector<double> open_lat, seg_p50, seg_p90, rates;
  std::string rate_list;
  for (const Fleet& fleet : fleets) {
    for (const Phase& ph : fleet.open) {
      std::vector<double> lat;
      add_latencies(ph, lat);
      seg_p50.push_back(quantile(lat, 0.5));
      seg_p90.push_back(quantile(lat, 0.9));
      open_lat.insert(open_lat.end(), lat.begin(), lat.end());
    }
    for (const Phase& ph : fleet.burst) {
      rates.push_back(drain_rate(ph));
      rate_list += " " + std::to_string(static_cast<int>(rates.back()));
    }
  }
  std::snprintf(buf, sizeof(buf),
                "%d fleets x %d rounds x %d open-loop requests at %.0f/s: p50 "
                "%.3f p90 %.3f p99 %.3f ms; burst drain rates (/s):",
                kFleets, rounds(opt), n_open, kRate, quantile(open_lat, 0.5),
                quantile(open_lat, 0.9), quantile(open_lat, 0.99));
  res.notes.push_back(buf + rate_list);

  if (!opt.trace) {
    res.metrics = {
        {"setup_s", setup_s, "s"},
        {"latency_p50_ms", median(seg_p50), "ms"},
        {"latency_p90_ms", median(seg_p90), "ms"},
        {"throughput_per_s", median(rates), "1/s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
    return res;
  }

  // Traced run: stage histograms of the traced open-loop segments, batch
  // fill of the bursts, client lateness, and request spans.
  std::vector<double> traced_lat, late;
  StageSums open_stages, burst_stages;
  std::int64_t id = 0;
  for (const Fleet& fleet : fleets) {
    add_latencies(fleet.open_traced, traced_lat);
    open_stages += fleet.open_stages;
    burst_stages += fleet.burst_stages;
    for (const auto& r : fleet.open_traced.reqs) {
      late.push_back(ms_between(r.due, r.submitted));
      if (!r.ok) continue;
      const int span = client_log.record("serve.request", r.due, r.done(), -1, id);
      client_log.record("serve.submit", r.submitted, r.submitted, span, id);
      ++id;
    }
  }
  const double n = std::max(1.0, open_stages.count);
  res.metrics = ledger_metrics({
      {"data.generate_ms", generate_ms / kPool},
      {"serve.queue_ms", open_stages.queue_us / n / 1e3},
      {"serve.batch_wait_ms", open_stages.batch_wait_us / n / 1e3},
      {"serve.forward_ms", open_stages.forward_us / n / 1e3},
      {"serve.respond_ms", open_stages.respond_us / n / 1e3},
      {"serve.batch_fill",
       burst_stages.batches > 0
           ? burst_stages.requests / (burst_stages.batches * kMaxBatch)
           : 0},
      {"serve.generator_late_ms", quantile(late, 0.99)},
      {"obs.trace_overhead_ms", median(traced_lat) - median(open_lat)},
  });
  std::snprintf(buf, sizeof(buf),
                "tracing overhead: traced request p50 %.3f ms vs untraced %.3f ms",
                median(traced_lat), median(open_lat));
  res.notes.push_back(buf);
  write_spans(opt.out_dir + "/spans-" + opt.workload + "-seed" +
                  std::to_string(opt.seed) + ".json",
              opt, {"client"}, {&client_log});
  return res;
}

}  // namespace stepbench
