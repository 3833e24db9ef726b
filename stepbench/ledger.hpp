// The per-layer ledger of the traced run: each module's public entry points
// called on the workload's own shard shapes, volumes and grid edges, timed
// from outside. Nothing here runs in an untraced run.
#pragma once

#include <vector>

#include "common.hpp"
#include "perf/conv_planner.hpp"

namespace stepbench {

/// Per-step figures of one rank (sums over the workload's layers, medians
/// over repetitions).
struct LayerLedger {
  double conv_fwd_ms = 0, conv_bwd_data_ms = 0, conv_bwd_filter_ms = 0;
  double conv_gflop = 0;  ///< forward + both backward passes, this rank
  double halo_ms = 0, halo_mb = 0;
  double shuffle_ms = 0, shuffle_mb = 0;
  double allreduce_ms = 0, allreduce_mb = 0;
  double reduce_scatter_ms = 0, allgather_ms = 0;

  /// Element-wise maximum (the slowest rank sets the step).
  void take_max(const LayerLedger& o);
};

/// Collective over the model's communicator: every rank calls it with the
/// same `reps`. Runs kernels::conv2d_* on this rank's shard shapes,
/// HaloExchange on fresh tensors with the model's distributions and margins,
/// Shuffler on the model's cross-grid edges, the model's own gradient
/// completion (Model::allreduce_gradients, which sums the gradient buffers
/// again: call it only once training is over), and the channel-parallel
/// reduce-scatter / allgather volumes. When `plan_keys` is non-null it
/// receives the conv-plan key of every conv pass this rank ran.
LayerLedger measure_layers(
    distconv::core::Model& model, int reps, SpanLog* log,
    std::vector<distconv::perf::ConvPlanKey>* plan_keys = nullptr);

/// Cold conv-plan resolution of `keys` (perf::conv_plan_for after clearing
/// the in-memory plan cache), in ms. `misses` receives the conv.plan.miss
/// counter delta (metrics must be on).
double plan_resolution_ms(const std::vector<distconv::perf::ConvPlanKey>& keys,
                          double* misses);

}  // namespace stepbench
