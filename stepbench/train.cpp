// Training workloads: mesh_spatial, mesh_auto, resnet_sample.
//
// A run builds the model, chooses the strategy, generates the data and
// warms up (setup), then times whole Trainer::step_* calls on 4 rank
// threads for the requested seconds. Correctness checks run after the timed
// loop. With --trace 1 the timed seconds are split: an untraced half (the
// baseline of the tracing overhead) and a traced half, whose spans and
// program counters feed the per-layer ledger.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "comm/collectives.hpp"
#include "comm/world.hpp"
#include "core/layers.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "ledger.hpp"
#include "models/models.hpp"
#include "obs/metrics.hpp"
#include "perf/strategy_opt.hpp"
#include "support/parallel.hpp"

namespace stepbench {

using namespace distconv;

namespace {

constexpr int kWarmupSteps = 3;
/// Trainer steps of the loss check's own run. The timed loop's step count
/// follows the host's speed, and the loss first rises for a few steps on
/// some seeds (momentum), so the check runs a fixed count instead.
constexpr int kLossCheckSteps = 24;
/// Model instances per run that share the timed seconds.
constexpr int kInstances = 5;
/// Tolerances of the one-step comparison against the single-rank run: loss
/// (relative), output (element-wise, |diff| <= tol * max(1, |ref|), the
/// exactness suite's form) and parameters after the step (L2 distance as a
/// share of the step's update). Grids without channel splits move data only,
/// so their forward is exact and only the gradient allreduce regroups sums.
/// A channel-split (c > 1) layer's forward reduce-scatters partial sums, a
/// different summation order by design; on the BN-heavy mesh model at batch
/// 1 that rounding is amplified, heavy-tailed across seeds (seeds 1-16: loss
/// up to 5.6e-6, output 5.8e-5, update 9.1e-3), so those grids get bounds
/// ten times wider. A wrong halo, slice or shuffle moves all three by O(1).
struct OneStepTolerance {
  double loss, output, update;
};
constexpr OneStepTolerance kExactGridTol{1e-5, 2e-4, 1e-2};
constexpr OneStepTolerance kChannelGridTol{1e-4, 2e-3, 1e-1};
/// Relative tolerance of the naive-convolution comparison (double
/// accumulation against the kernels' float GEMM chains).
constexpr double kNaiveConvTol = 1e-4;
/// Bound on |outside-timed step wall - step.wall.ns| per step, as a share
/// of the step, plus an absolute allowance for the call boundary.
constexpr double kWallAgreeShare = 0.02;
constexpr double kWallAgreeMs = 0.25;

struct Batch {
  Tensor<float> input;
  Tensor<float> targets;    // BCE heads
  std::vector<int> labels;  // softmax heads
};

struct Workload {
  core::NetworkSpec spec;
  core::Strategy strategy;
  bool softmax = false;
  std::int64_t global_batch = 0;
  std::vector<Batch> batches;  ///< cycled through, step s uses s % size
  std::string check_layer;     ///< conv layer compared with naive_conv
  kernels::SgdConfig sgd;
  double strategy_opt_ms = 0;
  double generate_ms = 0;  ///< per global batch
};

/// The paper's mesh-tangling model in its 1K layout (six blocks of three
/// conv->BN->ReLU units, 18 input channels), narrowed 8x, on 256^2 samples.
core::NetworkSpec mesh_spec(std::int64_t batch) {
  models::MeshModelConfig mc;
  mc.batch = batch;
  mc.size = 256;
  mc.in_channels = 18;
  mc.convs_per_block = 3;
  mc.width_scale = 1.0 / 8.0;  // filters [16, 20, 24, 32, 48, 16]
  return models::make_mesh_model(mc);
}

/// ResNet-50's bottleneck DAG with fewer blocks per stage, a quarter of the
/// width, 64^2 images and 100 classes.
core::NetworkSpec resnet_spec(std::int64_t batch) {
  models::ResNetConfig rc;
  rc.batch = batch;
  rc.image = 64;
  rc.classes = 100;
  rc.stages = {1, 2, 2, 1};
  rc.base_width = 16;
  return models::make_resnet(rc);
}

Workload make_workload(const Options& opt) {
  Workload w;
  int num_batches = 2;
  if (opt.workload == "mesh_spatial" || opt.workload == "mesh_auto") {
    w.global_batch = opt.workload == "mesh_spatial" ? 2 : 1;
    w.spec = mesh_spec(w.global_batch);
    w.check_layer = "conv3_2";
    w.sgd = kernels::SgdConfig{0.02f, 0.9f, 0.0f};
    if (opt.workload == "mesh_spatial") {
      w.strategy =
          core::Strategy::uniform(w.spec.size(), ProcessGrid{1, 1, 2, 2});
    } else {
      const auto t0 = Clock::now();
      w.strategy = perf::optimize_strategy(w.spec, kRanks, perf::MachineModel{});
      w.strategy_opt_ms = ms_between(t0, Clock::now());
    }
    data::MeshTanglingConfig dc;
    dc.size = 256;
    dc.channels = 18;
    dc.label_downsample = 64;  // the model's output resolution (4x4)
    dc.seed = opt.seed;
    const data::MeshTanglingDataset ds(dc);
    const Shape4 out = w.spec.infer_shapes().back();
    const auto t0 = Clock::now();
    for (int b = 0; b < num_batches; ++b) {
      Batch batch;
      batch.input = Tensor<float>(Shape4{w.global_batch, 18, 256, 256});
      batch.targets = Tensor<float>(Shape4{w.global_batch, 1, out.h, out.w});
      ds.batch(b * w.global_batch, batch.input, batch.targets);
      w.batches.push_back(std::move(batch));
    }
    w.generate_ms = ms_between(t0, Clock::now()) / num_batches;
  } else {
    w.global_batch = 32;
    w.softmax = true;
    w.spec = resnet_spec(w.global_batch);
    w.check_layer = "res3a_branch2b";
    w.sgd = kernels::SgdConfig{0.02f, 0.9f, 0.0f};
    w.strategy = core::Strategy::sample_parallel(w.spec.size(), kRanks);
    data::ClassificationConfig dc;
    dc.size = 64;
    dc.channels = 3;
    dc.classes = 100;
    dc.seed = opt.seed;
    const data::ClassificationDataset ds(dc);
    const auto t0 = Clock::now();
    for (int b = 0; b < num_batches; ++b) {
      Batch batch;
      batch.input = Tensor<float>(Shape4{w.global_batch, 3, 64, 64});
      ds.batch(b * w.global_batch, batch.input, batch.labels);
      w.batches.push_back(std::move(batch));
    }
    w.generate_ms = ms_between(t0, Clock::now()) / num_batches;
  }
  return w;
}

double trainer_step(core::Trainer& trainer, const Workload& w,
                    const Batch& b) {
  return w.softmax ? trainer.step_softmax(b.input, b.labels)
                   : trainer.step_bce(b.input, b.targets);
}

/// The same arithmetic as Trainer::step_* with one micro-batch, made call
/// by call so each Model entry point gets its own span.
double manual_step(core::Model& model, const Workload& w, const Batch& b,
                   SpanLog* log, double* fwd_ms, double* bwd_ms,
                   double* sgd_ms) {
  double loss = 0;
  auto t0 = Clock::now();
  {
    ScopedSpan s(log, "core.forward");
    model.set_input(0, b.input);
    model.forward();
  }
  *fwd_ms = ms_between(t0, Clock::now());
  {
    ScopedSpan s(log, "core.loss");
    loss = w.softmax ? model.loss_softmax(b.labels) : model.loss_bce(b.targets);
  }
  t0 = Clock::now();
  {
    ScopedSpan s(log, "core.backward");
    model.zero_gradients();
    model.backward(/*accumulate=*/true, /*complete=*/true);
  }
  *bwd_ms = ms_between(t0, Clock::now());
  t0 = Clock::now();
  {
    ScopedSpan s(log, "core.sgd");
    model.sgd_step(w.sgd);
  }
  *sgd_ms = ms_between(t0, Clock::now());
  return loss;
}

/// Rank 0's time decides; the allreduce both broadcasts the decision and
/// lines the ranks up, so every timed step starts together.
bool keep_going(comm::Comm& comm, Clock::time_point start, double seconds) {
  int go = comm.rank() == 0 ? (seconds_since(start) < seconds ? 1 : 0) : 0;
  comm::allreduce(comm, &go, 1, comm::ReduceOp::kMax);
  return go != 0;
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 1099511628211ull;
  return h;
}

std::vector<float> flat_params(const core::Model& model) {
  std::vector<float> out;
  for (int i = 0; i < model.num_layers(); ++i) {
    for (const auto& p : model.rt(i).params) {
      out.insert(out.end(), p.data(), p.data() + p.size());
    }
  }
  return out;
}

std::uint64_t hash_floats(const std::vector<float>& v) {
  return fnv1a(v.data(), v.size() * sizeof(float), 1469598103934665603ull);
}

/// Slowest rank per step, from per-rank walls of equal length.
std::vector<double> slowest(const std::vector<std::vector<double>>& per_rank) {
  std::vector<double> out(per_rank[0].size(), 0.0);
  for (const auto& r : per_rank) {
    for (std::size_t i = 0; i < out.size() && i < r.size(); ++i) {
      out[i] = std::max(out[i], r[i]);
    }
  }
  return out;
}

/// What one check run (fresh model, one Trainer step on batch 0) leaves.
struct OneStep {
  double loss = 0;
  double step_ms = 0;
  Tensor<float> output;       ///< gathered network output of the step
  std::vector<float> params_before;  ///< every parameter at initialization
  std::vector<float> params;         ///< every parameter after the SGD update
  Tensor<float> conv_in, conv_out, conv_w;  ///< the check layer, pre-update
};

OneStep one_step(const Workload& w, const core::Strategy& strategy,
                 int ranks, std::uint64_t seed) {
  OneStep r;
  const int layer = models::layer_index(w.spec, w.check_layer);
  const int parent = w.spec.layer(layer).parents()[0];
  comm::World world(ranks);
  world.run([&](comm::Comm& comm) {
    core::Model model(w.spec, comm, strategy, seed);
    core::Trainer trainer(model, core::TrainerOptions{w.sgd, 1});
    if (comm.rank() == 0) {
      r.conv_w = model.rt(layer).params[0];
      r.params_before = flat_params(model);
    }
    comm::barrier(comm);
    const auto t0 = Clock::now();
    const double loss = trainer_step(trainer, w, w.batches[0]);
    const double ms = ms_between(t0, Clock::now());
    Tensor<float> out = model.gather_output(model.output_layer());
    Tensor<float> cin = model.gather_output(parent);
    Tensor<float> cout = model.gather_output(layer);
    if (comm.rank() == 0) {
      r.loss = loss;
      r.step_ms = ms;
      r.output = std::move(out);
      r.conv_in = std::move(cin);
      r.conv_out = std::move(cout);
      r.params = flat_params(model);
    }
  });
  return r;
}

/// Element-wise comparison, |got - want| <= tol * max(1, |want|) (the
/// exactness suite's form), with its negative control: one element moved by
/// ten times its allowance.
void compare_elements(Checks& checks, const std::string& name,
                      const std::vector<float>& got,
                      const std::vector<float>& want, double tol) {
  const auto worst = [&](const std::vector<float>& g) {
    return worst_rel_diff(g.data(), g.size(), want.data(), want.size());
  };
  const double r = worst(got);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "max |diff| / max(1, |ref|) = %.3g <= %.1g (%zu values)", r,
                tol, want.size());
  checks.expect(name, r <= tol, buf);
  std::vector<float> perturbed = got;
  if (!perturbed.empty()) {
    const std::size_t i = perturbed.size() / 2;
    perturbed[i] += static_cast<float>(
        10 * tol * std::max(1.0, std::fabs(double(want[i]))));
  }
  checks.control(name, worst(perturbed) > tol);
}

/// Parameters after one step: the L2 distance between the two runs'
/// parameters as a share of how far the step moved them,
/// ||got - want|| / ||want - before|| <= tol, with its negative control.
void compare_update(Checks& checks, const std::string& name,
                    const std::vector<float>& got,
                    const std::vector<float>& want,
                    const std::vector<float>& before, double tol) {
  const auto rel = [&](const std::vector<float>& g) {
    if (g.size() != want.size() || before.size() != want.size()) return 1e300;
    double num = 0, den = 0;
    for (std::size_t i = 0; i < g.size(); ++i) {
      num += (double(g[i]) - want[i]) * (double(g[i]) - want[i]);
      den += (double(want[i]) - before[i]) * (double(want[i]) - before[i]);
    }
    const double r = std::sqrt(num) / std::max(1e-300, std::sqrt(den));
    return std::isnan(r) ? 1e300 : r;
  };
  const double r = rel(got);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "||diff|| / ||update|| = %.3g <= %.1g (%zu values)", r, tol,
                want.size());
  checks.expect(name, r <= tol, buf);
  std::vector<float> perturbed = got;
  if (!perturbed.empty()) {
    double den = 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
      den += (double(want[i]) - before[i]) * (double(want[i]) - before[i]);
    }
    perturbed[perturbed.size() / 2] += static_cast<float>(2 * tol * std::sqrt(den));
  }
  checks.control(name, rel(perturbed) > tol);
}

std::vector<float> as_vector(const Tensor<float>& t) {
  return std::vector<float>(t.data(), t.data() + t.size());
}

/// Batch-0 losses of a fresh model trained kLossCheckSteps Trainer steps on
/// the workload's grid, in step order.
std::vector<double> batch0_losses(const Workload& w, std::uint64_t seed) {
  std::vector<double> out;
  comm::World world(kRanks);
  world.run([&](comm::Comm& comm) {
    core::Model model(w.spec, comm, w.strategy, seed);
    core::Trainer trainer(model, core::TrainerOptions{w.sgd, 1});
    for (int s = 0; s < kLossCheckSteps; ++s) {
      const std::size_t b = static_cast<std::size_t>(s) % w.batches.size();
      const double loss = trainer_step(trainer, w, w.batches[b]);
      if (comm.rank() == 0 && b == 0) out.push_back(loss);
    }
  });
  return out;
}

void correctness_runs(const Workload& w, const Options& opt, Result& res) {
  const OneStep dist = one_step(w, w.strategy, kRanks, opt.seed);
  const OneStep single = one_step(
      w, core::Strategy::sample_parallel(w.spec.size(), 1), 1, opt.seed);
  Checks& checks = res.checks;
  bool channel_split = false;
  for (const auto& g : w.strategy.grids) channel_split = channel_split || g.c > 1;
  const OneStepTolerance tol = channel_split ? kChannelGridTol : kExactGridTol;

  const double rel =
      std::fabs(dist.loss - single.loss) / std::max(1e-30, std::fabs(single.loss));
  char buf[160];
  std::snprintf(buf, sizeof(buf), "loss %.9g vs single-rank %.9g, rel %.3g <= %.1g",
                dist.loss, single.loss, rel, tol.loss);
  checks.expect("one-step loss vs single rank", rel <= tol.loss, buf);
  checks.control("one-step loss vs single rank",
                 std::fabs(dist.loss * (1 + 10 * tol.loss) - single.loss) /
                         std::max(1e-30, std::fabs(single.loss)) > tol.loss);
  compare_elements(checks, "one-step output vs single rank",
                   as_vector(dist.output), as_vector(single.output), tol.output);
  compare_update(checks, "one-step parameters vs single rank", dist.params,
                 single.params, single.params_before, tol.update);

  // Loss on batch 0 after a fixed number of steps against its first value.
  const std::vector<double> losses = batch0_losses(w, opt.seed);
  const double first = losses.front(), last = losses.back();
  std::snprintf(buf, sizeof(buf), "batch-0 loss %.6g -> %.6g after %d Trainer steps",
                first, last, kLossCheckSteps);
  checks.expect("loss decreased", std::isfinite(last) && last < first, buf);
  checks.control("loss decreased", !(first < last));

  // One conv layer against the benchmark's own direct convolution.
  const int layer = models::layer_index(w.spec, w.check_layer);
  const auto* conv =
      dynamic_cast<const core::Conv2dLayer*>(&w.spec.layer(layer));
  const kernels::ConvParams p = conv->conv_params();
  const std::vector<float> want = as_vector(naive_conv(dist.conv_in, dist.conv_w, p));
  compare_elements(checks, "conv " + w.check_layer + " vs naive convolution",
                   as_vector(dist.conv_out), want, kNaiveConvTol);
  // A perturbed weight fed through the reference must be told apart too.
  Tensor<float> w_bad = dist.conv_w;
  // Every tap of filter 0: one input channel alone may be all zero.
  const std::int64_t filter_taps = w_bad.size() / w_bad.shape().n;
  for (std::int64_t i = 0; i < filter_taps; ++i) w_bad.data()[i] += 0.05f;
  const std::vector<float> bad = as_vector(naive_conv(dist.conv_in, w_bad, p));
  checks.control("conv " + w.check_layer + " with a perturbed weight",
                 worst_rel_diff(dist.conv_out.data(),
                                static_cast<std::size_t>(dist.conv_out.size()),
                                bad.data(), bad.size()) > kNaiveConvTol);

  char note[160];
  std::snprintf(note, sizeof(note),
                "single-rank step (correctness run, 1 rank thread): %.1f ms; "
                "distributed check step: %.1f ms",
                single.step_ms, dist.step_ms);
  res.notes.push_back(note);
}

}  // namespace

Result run_training(const Options& opt) {
  Result res;
  const Workload w = make_workload(opt);
  res.strategy = compact_strategy(w.strategy);

  // The timed seconds are shared by kInstances model instances, each a
  // fresh World and Model trained from the seed: allocation and thread
  // placement differ between instances, so one unlucky placement moves a
  // run's figures less.
  const double timed_s = (opt.trace ? opt.seconds / 2 : opt.seconds) / kInstances;
  std::vector<std::vector<double>> step_ms(kRanks), traced_ms(kRanks),
      fwd_ms(kRanks), bwd_ms(kRanks), sgd_ms(kRanks), tail_ms(kRanks);
  std::vector<double> wall_ns_counter(kRanks), wait_ns(kRanks),
      activation_mb(kRanks);
  std::vector<LayerLedger> ledgers(kRanks);
  std::vector<perf::ConvPlanKey> plan_keys;
  std::vector<SpanLog> logs(kRanks);
  double setup_s = 0, loop_s = 0, rss_mb = 0;
  bool replicated = true, replicated_control = true;
  std::vector<std::size_t> instance_end;  ///< step_ms size after each instance
  if (opt.trace) obs::metrics::reset();

  for (int inst = 0; inst < kInstances; ++inst) {
    if (opt.trace) obs::metrics::set_enabled(false);
    std::vector<std::uint64_t> param_hash(kRanks);
    std::uint64_t perturbed_hash = 0;
    comm::World world(kRanks);
    world.run([&](comm::Comm& comm) {
      const int rank = comm.rank();
      core::Model model(w.spec, comm, w.strategy, opt.seed);
      core::Trainer trainer(model, core::TrainerOptions{w.sgd, 1});
      std::int64_t step = 0;
      const auto next_batch = [&] {
        return static_cast<std::size_t>(step++ % w.batches.size());
      };
      for (int i = 0; i < kWarmupSteps; ++i) {
        const std::size_t b = next_batch();
        trainer_step(trainer, w, w.batches[b]);
      }
      comm::barrier(comm);
      if (rank == 0 && inst == 0) {
        setup_s = seconds_since(process_start());
        res.thread_budget = parallel::num_threads();
        res.model_settings = model_settings(model);
      }

      // Timed phase: whole steps, nothing else.
      const auto loop_t0 = Clock::now();
      while (keep_going(comm, loop_t0, timed_s)) {
        const std::size_t b = next_batch();
        const auto t0 = Clock::now();
        trainer_step(trainer, w, w.batches[b]);
        step_ms[rank].push_back(ms_between(t0, Clock::now()));
      }
      if (rank == 0) {
        loop_s += seconds_since(loop_t0);
        rss_mb = std::max(rss_mb, peak_rss_mb());
      }

      if (opt.trace) {
        SpanLog* log = &logs[rank];
        comm::barrier(comm);
        if (rank == 0) obs::metrics::set_enabled(true);
        comm::barrier(comm);
        const auto snap0 = obs::metrics::snapshot();
        // Alternate a Trainer step (checked against step.wall.ns) with the
        // same step made call by call (forward / backward / sgd spans).
        const auto traced_t0 = Clock::now();
        while (keep_going(comm, traced_t0, timed_s)) {
          std::size_t b = next_batch();
          {
            ScopedSpan span(log, "core.step", step - 1);
            const auto t0 = Clock::now();
            trainer_step(trainer, w, w.batches[b]);
            traced_ms[rank].push_back(ms_between(t0, Clock::now()));
          }
          tail_ms[rank].push_back(model.last_grad_completion_seconds() * 1e3);
          comm::barrier(comm);  // line the ranks up for the next step
          b = next_batch();
          double f = 0, g = 0, s = 0;
          {
            ScopedSpan span(log, "core.step.calls", step - 1);
            manual_step(model, w, w.batches[b], log, &f, &g, &s);
          }
          fwd_ms[rank].push_back(f);
          bwd_ms[rank].push_back(g);
          sgd_ms[rank].push_back(s);
          tail_ms[rank].push_back(model.last_grad_completion_seconds() * 1e3);
        }
        comm::barrier(comm);
        const auto snap1 = obs::metrics::snapshot();
        wall_ns_counter[rank] +=
            static_cast<double>(snap1.counter_for(rank, "step.wall.ns") -
                                snap0.counter_for(rank, "step.wall.ns"));
        wait_ns[rank] +=
            static_cast<double>(snap1.counter_for(rank, "comm.wait.ns") -
                                snap0.counter_for(rank, "comm.wait.ns"));
        activation_mb[rank] = static_cast<double>(model.activation_bytes()) / 1e6;
      }

      // Replicated parameters must be bitwise identical across ranks.
      const std::vector<float> params = flat_params(model);
      param_hash[rank] = hash_floats(params);
      if (rank == 0) {
        std::vector<float> bad = params;
        bad[bad.size() / 2] = std::nextafter(bad[bad.size() / 2], 1e30f);
        perturbed_hash = hash_floats(bad);
      }

      if (opt.trace && inst == kInstances - 1) {
        ledgers[rank] = measure_layers(model, 5, &logs[rank],
                                       rank == 0 ? &plan_keys : nullptr);
      }
    });

    instance_end.push_back(step_ms[0].size());
    for (int r = 1; r < kRanks; ++r) {
      replicated = replicated && param_hash[r] == param_hash[0];
    }
    replicated_control = replicated_control && perturbed_hash != param_hash[1];
  }

  res.ran = true;
  const std::int64_t timed_steps = static_cast<std::int64_t>(step_ms[0].size());
  res.attempted = timed_steps +
                  static_cast<std::int64_t>(traced_ms[0].size() + fwd_ms[0].size());
  res.failed = 0;
  res.checks.expect("replicated parameters bitwise identical across ranks",
                    replicated,
                    replicated ? "all 4 ranks hash equal in every instance"
                               : "hashes differ");
  res.checks.control("replicated parameters bitwise identical across ranks",
                     replicated_control);

  correctness_runs(w, opt, res);

  char buf[160];
  if (!opt.trace) {
    const std::vector<double> slow = slowest(step_ms);
    res.metrics = {
        {"setup_s", setup_s, "s"},
        {"latency_p50_ms", quantile(slow, 0.5), "ms"},
        {"latency_p90_ms", quantile(slow, 0.9), "ms"},
        {"throughput_per_s",
         static_cast<double>(w.global_batch * timed_steps) / loop_s, "1/s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
    std::string per_instance;
    std::size_t begin = 0;
    for (std::size_t end : instance_end) {
      char one[32];
      std::snprintf(one, sizeof(one), " %.2f",
                    median(std::vector<double>(slow.begin() + begin, slow.begin() + end)));
      per_instance += one;
      begin = end;
    }
    std::snprintf(buf, sizeof(buf),
                  "%lld timed steps over %d instances (%lld beyond p90); "
                  "step p50 per instance:%s ms",
                  static_cast<long long>(timed_steps), kInstances,
                  static_cast<long long>(timed_steps / 10), per_instance.c_str());
    res.notes.push_back(buf);
    return res;
  }

  // --- traced run: the per-layer ledger ------------------------------------
  double misses = 0;
  const double plan_ms = plan_resolution_ms(plan_keys, &misses);
  LayerLedger led;
  for (const auto& l : ledgers) led.take_max(l);

  // Outside-timed Trainer step wall vs the program's step.wall.ns, per rank.
  double worst_gap_ms = 0, worst_bound_ms = 0;
  bool agree = !traced_ms[0].empty();
  for (int r = 0; r < kRanks && agree; ++r) {
    double outside = 0;
    for (double ms : traced_ms[r]) outside += ms;
    const double n = static_cast<double>(traced_ms[r].size());
    const double gap = std::fabs(outside - wall_ns_counter[r] / 1e6) / n;
    const double bound = kWallAgreeShare * outside / n + kWallAgreeMs;
    if (gap > bound) agree = false;
    if (gap >= worst_gap_ms) {
      worst_gap_ms = gap;
      worst_bound_ms = bound;
    }
  }
  std::snprintf(buf, sizeof(buf),
                "worst rank: |outside - step.wall.ns| %.4f ms/step <= %.4f",
                worst_gap_ms, worst_bound_ms);
  res.checks.expect("traced step wall agrees with step.wall.ns", agree, buf);

  std::vector<double> skew;
  for (std::size_t i = 0; i < traced_ms[0].size(); ++i) {
    double lo = 1e300, hi = 0;
    for (int r = 0; r < kRanks; ++r) {
      lo = std::min(lo, traced_ms[r][i]);
      hi = std::max(hi, traced_ms[r][i]);
    }
    skew.push_back(hi - lo);
  }
  const double untraced_p50 = median(slowest(step_ms));
  const double traced_p50 = median(slowest(traced_ms));
  const double traced_steps =
      static_cast<double>(traced_ms[0].size() + fwd_ms[0].size());
  double wait_ms = 0, act_mb = 0;
  for (int r = 0; r < kRanks; ++r) {
    wait_ms = std::max(wait_ms, wait_ns[r] / 1e6 / traced_steps);
    act_mb = std::max(act_mb, activation_mb[r]);
  }
  res.metrics = ledger_metrics({
      {"core.forward_ms", median(slowest(fwd_ms))},
      {"core.backward_ms", median(slowest(bwd_ms))},
      {"core.sgd_ms", median(slowest(sgd_ms))},
      {"core.grad_tail_ms", median(slowest(tail_ms))},
      {"core.rank_skew_ms", median(skew)},
      {"core.activation_mb", act_mb},
      {"kernels.conv_fwd_ms", led.conv_fwd_ms},
      {"kernels.conv_bwd_data_ms", led.conv_bwd_data_ms},
      {"kernels.conv_bwd_filter_ms", led.conv_bwd_filter_ms},
      {"kernels.conv_gflop", led.conv_gflop},
      {"tensor.halo_ms", led.halo_ms},
      {"tensor.halo_mb", led.halo_mb},
      {"tensor.shuffle_ms", led.shuffle_ms},
      {"tensor.shuffle_mb", led.shuffle_mb},
      {"comm.allreduce_ms", led.allreduce_ms},
      {"comm.allreduce_mb", led.allreduce_mb},
      {"comm.reduce_scatter_ms", led.reduce_scatter_ms},
      {"comm.allgather_ms", led.allgather_ms},
      {"comm.wait_ms", wait_ms},
      {"perf.strategy_opt_ms", w.strategy_opt_ms},
      {"perf.plan_ms", plan_ms},
      {"perf.plan_misses", misses},
      {"data.generate_ms", w.generate_ms},
      {"obs.trace_overhead_ms", traced_p50 - untraced_p50},
  });
  std::snprintf(buf, sizeof(buf),
                "tracing overhead: traced step p50 %.2f ms vs untraced %.2f ms",
                traced_p50, untraced_p50);
  res.notes.push_back(buf);

  std::vector<std::string> names;
  std::vector<const SpanLog*> ptrs;
  for (int r = 0; r < kRanks; ++r) {
    names.push_back("rank" + std::to_string(r));
    ptrs.push_back(&logs[r]);
  }
  write_spans(opt.out_dir + "/spans-" + opt.workload + "-seed" +
                  std::to_string(opt.seed) + ".json",
              opt, names, ptrs);
  return res;
}

}  // namespace stepbench
