#include "ledger.hpp"

#include <algorithm>
#include <functional>
#include <memory>

#include "comm/collectives.hpp"
#include "core/layers.hpp"
#include "kernels/conv.hpp"
#include "obs/metrics.hpp"
#include "tensor/halo.hpp"
#include "tensor/shuffle.hpp"

namespace stepbench {

using namespace distconv;

namespace {

kernels::Origin2 origin_of(const DistTensor<float>& t) {
  return {t.owned_start(2) - t.h_margin_lo(), t.owned_start(3) - t.w_margin_lo()};
}

kernels::Range2 owned_range(const Box4& b) {
  return {b.off[2], b.off[2] + b.ext[2], b.off[3], b.off[3] + b.ext[3]};
}

DistTensor<float> fresh_like(const DistTensor<float>& t) {
  return DistTensor<float>(&t.comm(), t.dist(), t.margins_h(), t.margins_w());
}

/// One conv layer's three passes on this rank's shard: the same buffers,
/// origins and ranges the layer's forward/backward hand to the kernels
/// (channel-parallel layers: the channel-slice weights, the full-F partial
/// sum and the allgathered full-F error signal).
struct ConvCase {
  kernels::ConvParams p;
  Tensor<float> x, w, y, dy, dx, dw;
  kernels::Origin2 xo, yo, dyo, dxo;
  kernels::Range2 out_range, in_range;
  std::int64_t out_h = 0, out_w = 0;
  double flop_per_pass = 0;
};

std::vector<ConvCase> conv_cases(core::Model& model) {
  std::vector<ConvCase> cases;
  Rng rng(12345);
  for (int i = 0; i < model.num_layers(); ++i) {
    const auto* conv =
        dynamic_cast<const core::Conv2dLayer*>(&model.spec().layer(i));
    if (conv == nullptr) continue;
    core::LayerRt& rt = model.rt(i);
    const DistTensor<float>& xt = rt.inputs[0].read->t;
    const DistTensor<float>& yt = rt.y.t;
    const DistTensor<float>& dyt = rt.dy.t;
    const DistTensor<float>& dxt = rt.inputs[0].dx;
    const std::int64_t c_loc = xt.local_shape().c;
    if (c_loc == 0) continue;  // an empty channel slice computes nothing
    ConvCase cc;
    cc.p = conv->conv_params();
    cc.x = xt.buffer();
    cc.xo = origin_of(xt);
    cc.out_range = owned_range(yt.owned_box());
    cc.in_range = owned_range(dxt.owned_box());
    cc.out_h = rt.out_shape.h;
    cc.out_w = rt.out_shape.w;
    cc.dx = Tensor<float>(dxt.buffer().shape());
    cc.dxo = origin_of(dxt);
    const std::int64_t f = conv->filters();
    if (model.is_channel_parallel(i)) {
      const Shape4 yl = yt.local_shape();
      const Shape4 db = dyt.buffer().shape();
      cc.w = Tensor<float>(Shape4{f, c_loc, cc.p.kh, cc.p.kw});
      cc.w.fill_uniform(rng, -0.1f, 0.1f);
      cc.y = Tensor<float>(Shape4{yl.n, f, yl.h, yl.w});
      cc.yo = {yt.owned_start(2), yt.owned_start(3)};
      cc.dy = Tensor<float>(Shape4{db.n, f, db.h, db.w});
      cc.dy.fill_uniform(rng, -0.1f, 0.1f);
    } else {
      cc.w = rt.params[0];
      cc.y = Tensor<float>(yt.buffer().shape());
      cc.yo = origin_of(yt);
      cc.dy = dyt.buffer();
    }
    cc.dyo = origin_of(dyt);
    cc.dw = Tensor<float>(cc.w.shape());
    cc.flop_per_pass = 2.0 * static_cast<double>(xt.local_shape().n) *
                       static_cast<double>(f * c_loc * cc.p.kh * cc.p.kw) *
                       static_cast<double>(cc.out_range.area());
    cases.push_back(std::move(cc));
  }
  return cases;
}

/// Median over `reps` of the wall time of `body` (all ranks start each
/// repetition together), in ms.
double timed_median(comm::Comm& comm, int reps, SpanLog* log,
                    const char* span, const std::function<void()>& body) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    comm::barrier(comm);
    ScopedSpan s(log, span, r);
    const auto t0 = Clock::now();
    body();
    ms.push_back(ms_between(t0, Clock::now()));
  }
  return median(ms);
}

}  // namespace

void LayerLedger::take_max(const LayerLedger& o) {
  double* a[] = {&conv_fwd_ms, &conv_bwd_data_ms, &conv_bwd_filter_ms,
                 &conv_gflop, &halo_ms, &halo_mb, &shuffle_ms, &shuffle_mb,
                 &allreduce_ms, &allreduce_mb, &reduce_scatter_ms,
                 &allgather_ms};
  const double* b[] = {&o.conv_fwd_ms, &o.conv_bwd_data_ms,
                       &o.conv_bwd_filter_ms, &o.conv_gflop, &o.halo_ms,
                       &o.halo_mb, &o.shuffle_ms, &o.shuffle_mb,
                       &o.allreduce_ms, &o.allreduce_mb,
                       &o.reduce_scatter_ms, &o.allgather_ms};
  for (std::size_t i = 0; i < sizeof(a) / sizeof(a[0]); ++i) {
    *a[i] = std::max(*a[i], *b[i]);
  }
}

LayerLedger measure_layers(core::Model& model, int reps, SpanLog* log,
                           std::vector<perf::ConvPlanKey>* plan_keys) {
  comm::Comm& comm = model.comm();
  LayerLedger led;

  // --- kernels: each conv layer's three passes on this rank's shard ------
  std::vector<ConvCase> cases = conv_cases(model);
  for (const ConvCase& cc : cases) led.conv_gflop += 3 * cc.flop_per_pass / 1e9;
  if (plan_keys != nullptr) {
    for (const ConvCase& cc : cases) {
      for (auto pass : {kernels::ConvPass::kForward,
                        kernels::ConvPass::kBackwardData,
                        kernels::ConvPass::kBackwardFilter}) {
        perf::ConvPlanKey key;
        key.pass = pass;
        key.c = cc.w.shape().c;
        key.f = cc.w.shape().n;
        key.p = cc.p;
        plan_keys->push_back(key);
      }
    }
  }
  led.conv_fwd_ms = timed_median(comm, reps, log, "kernels.conv_fwd", [&] {
    for (ConvCase& cc : cases) {
      kernels::conv2d_forward(cc.x, cc.xo, cc.w, cc.y, cc.yo, cc.p,
                              cc.out_range);
    }
  });
  led.conv_bwd_data_ms =
      timed_median(comm, reps, log, "kernels.conv_bwd_data", [&] {
        for (ConvCase& cc : cases) {
          kernels::conv2d_backward_data(cc.dy, cc.dyo, cc.w, cc.dx, cc.dxo,
                                        cc.p, cc.in_range, cc.out_h, cc.out_w);
        }
      });
  led.conv_bwd_filter_ms =
      timed_median(comm, reps, log, "kernels.conv_bwd_filter", [&] {
        for (ConvCase& cc : cases) {
          kernels::conv2d_backward_filter(cc.x, cc.xo, cc.dy, cc.dyo, cc.dw,
                                          cc.p, cc.out_range);
        }
      });
  cases.clear();

  // --- tensor: halo exchanges and grid-edge shuffles ----------------------
  // One kReplace exchange per step for every tensor with margins: layer
  // outputs, error signals and shuffled input copies.
  std::vector<DistTensor<float>> halo_tensors;
  for (int i = 0; i < model.num_layers(); ++i) {
    core::LayerRt& rt = model.rt(i);
    if (rt.y.halo) halo_tensors.push_back(fresh_like(rt.y.t));
    if (rt.dy.halo) halo_tensors.push_back(fresh_like(rt.dy.t));
    for (auto& port : rt.inputs) {
      if (port.staging && port.staging->halo) {
        halo_tensors.push_back(fresh_like(port.staging->t));
      }
    }
  }
  std::vector<std::unique_ptr<HaloExchange<float>>> halos;
  for (auto& t : halo_tensors) {
    halos.push_back(std::make_unique<HaloExchange<float>>(&t));
    led.halo_mb += halos.back()->send_bytes_per_exchange() / 1e6;
  }
  led.halo_ms = timed_median(comm, reps, log, "tensor.halo", [&] {
    for (auto& h : halos) h->exchange(HaloOp::kReplace);
  });
  halos.clear();
  halo_tensors.clear();

  // Forward (producer -> staging copy) and backward (dx -> producer grid)
  // moves of every edge whose endpoint grids differ.
  struct Edge {
    DistTensor<float> src, dst;
    std::unique_ptr<Shuffler<float>> shuffler;
  };
  std::vector<Edge> edges;
  const auto add_edge = [&](const DistTensor<float>& src,
                            const DistTensor<float>& dst) {
    Edge e{fresh_like(src), fresh_like(dst), nullptr};
    e.shuffler = std::make_unique<Shuffler<float>>(src.dist(), dst.dist(), comm);
    led.shuffle_mb += e.shuffler->remote_send_elements() * sizeof(float) / 1e6;
    edges.push_back(std::move(e));
  };
  for (int i = 0; i < model.num_layers(); ++i) {
    for (auto& port : model.rt(i).inputs) {
      if (port.fwd_shuffle) add_edge(model.rt(port.parent).y.t, port.staging->t);
      if (port.bwd_shuffle) add_edge(port.dx, *port.bwd_staging);
    }
  }
  led.shuffle_ms = timed_median(comm, reps, log, "tensor.shuffle", [&] {
    for (Edge& e : edges) e.shuffler->run(e.src, e.dst);
  });
  edges.clear();

  // --- comm: gradient completion and channel-parallel collectives ---------
  for (int i = 0; i < model.num_layers(); ++i) {
    const core::LayerRt& rt = model.rt(i);
    for (std::size_t k = 0; k < rt.grads.size(); ++k) {
      double elems = static_cast<double>(rt.grads[k].size());
      if (k == 0 && model.is_channel_parallel(i)) {
        elems *= static_cast<double>(rt.inputs[0].read->t.local_shape().c) /
                 static_cast<double>(rt.grads[k].shape().c);
      }
      led.allreduce_mb += elems * sizeof(float) / 1e6;
    }
  }
  led.allreduce_ms = timed_median(comm, reps, log, "comm.allreduce",
                                  [&] { model.allreduce_gradients(); });

  struct ChannelVolumes {
    int layer;
    std::vector<float> partial, dy, gathered;
  };
  std::vector<ChannelVolumes> channel;
  for (int i = 0; i < model.num_layers(); ++i) {
    if (!model.is_channel_parallel(i)) continue;
    const auto* conv =
        dynamic_cast<const core::Conv2dLayer*>(&model.spec().layer(i));
    if (conv == nullptr) continue;
    const core::LayerRt& rt = model.rt(i);
    const Shape4 yl = rt.y.t.local_shape();
    ChannelVolumes v;
    v.layer = i;
    v.partial.assign(static_cast<std::size_t>(yl.n * conv->filters() * yl.h * yl.w),
                     1.0f);
    v.dy.assign(static_cast<std::size_t>(rt.dy.t.buffer().size()), 1.0f);
    v.gathered.resize(v.dy.size() * model.channel_comm(i).size());
    channel.push_back(std::move(v));
  }
  led.reduce_scatter_ms =
      timed_median(comm, reps, log, "comm.reduce_scatter", [&] {
        for (auto& v : channel) {
          comm::reduce_scatter_inplace(model.channel_comm(v.layer),
                                       v.partial.data(), v.partial.size(),
                                       comm::ReduceOp::kSum);
        }
      });
  led.allgather_ms = timed_median(comm, reps, log, "comm.allgather", [&] {
    for (auto& v : channel) {
      comm::allgather(model.channel_comm(v.layer), v.dy.data(), v.dy.size(),
                      v.gathered.data());
    }
  });
  return led;
}

double plan_resolution_ms(const std::vector<perf::ConvPlanKey>& keys,
                          double* misses) {
  perf::clear_conv_plan_cache();
  const auto before = obs::metrics::snapshot().counter_total("conv.plan.miss");
  const auto t0 = Clock::now();
  for (const auto& key : keys) perf::conv_plan_for(key.pass, key.p, key.c, key.f);
  const double ms = ms_between(t0, Clock::now());
  *misses = static_cast<double>(
      obs::metrics::snapshot().counter_total("conv.plan.miss") - before);
  return ms;
}

}  // namespace stepbench
