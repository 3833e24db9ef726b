// stepbench: whole training steps and whole served requests of the distconv
// engine, with a per-layer ledger from a separate traced run.
//
//   stepbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--source-commit <sha>] [--source-digest <hex>]
//
// Workloads: mesh_spatial, mesh_auto, resnet_sample, serve_fleet. The last
// line of standard output is one JSON object {"correct", "attempted",
// "failed", "metrics"}; with --trace 0 the metrics are the end-to-end ones,
// with --trace 1 the per-layer ledger. Lines before it (prefixed "# ") carry
// the correctness checks, the provenance and reference figures.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "kernels/conv.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perf/conv_planner.hpp"
#include "support/parallel.hpp"

extern char** environ;

namespace {

using namespace stepbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "stepbench: %s\nusage: stepbench --workload "
               "<mesh_spatial|mesh_auto|resnet_sample|serve_fleet> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("--seed must be a whole number");
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(opt.seconds >= 1 && opt.seconds <= 120)) {
        usage("--seconds must be a number from 1 to 120");
      }
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage("--trace must be 0 or 1");
      }
      opt.trace = v[0] == '1';
    } else if (a == "--out-dir") {
      opt.out_dir = v;
    } else if (a == "--source-commit") {
      opt.source_commit = v;
    } else if (a == "--source-digest") {
      opt.source_digest = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (opt.workload != "mesh_spatial" && opt.workload != "mesh_auto" &&
      opt.workload != "resnet_sample" && opt.workload != "serve_fleet") {
    usage(("unknown workload " + opt.workload).c_str());
  }
  return opt;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// DC_* variables present in the environment (the runner clears them, so
/// this should read "none").
std::string dc_environment() {
  std::string out;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "DC_", 3) == 0) out += (out.empty() ? "" : " ") + std::string(*e);
  }
  return out.empty() ? "none" : out;
}

const char* plan_mode_name(distconv::perf::ConvPlanMode m) {
  switch (m) {
    case distconv::perf::ConvPlanMode::kModel: return "model";
    case distconv::perf::ConvPlanMode::kMeasure: return "measure";
    case distconv::perf::ConvPlanMode::kOff: return "off";
  }
  return "?";
}

void print_provenance(const Options& opt, const Result& res) {
  using namespace distconv;
  std::printf(
      "# provenance {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"machine\": {\"cores\": %u, \"cpu_model\": \"%s\", "
      "\"numa_nodes\": %d, \"thread_budget_per_rank\": %d, \"rank_threads\": %d}, "
      "\"dc_env\": \"%s\", \"effective\": {\"model\": \"%s\", \"conv_plan\": "
      "\"%s\", \"conv_winograd\": %s, \"conv_algo\": \"%s\", \"plan_cache\": "
      "\"%s\"}, \"source_commit\": \"%s\", \"source_digest\": \"%s\", "
      "\"strategy\": \"%s\"}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, std::thread::hardware_concurrency(),
      json_escape(cpu_model()).c_str(), parallel::numa_topology().node_count(),
      res.thread_budget, kRanks, json_escape(dc_environment()).c_str(),
      json_escape(res.model_settings).c_str(),
      plan_mode_name(perf::conv_plan_mode()),
      perf::conv_winograd_enabled() ? "true" : "false",
      kernels::conv_algo_name(kernels::conv_algo_override()),
      perf::conv_plan_cache_path().empty() ? "in-memory"
                                           : json_escape(perf::conv_plan_cache_path()).c_str(),
      json_escape(opt.source_commit).c_str(),
      json_escape(opt.source_digest).c_str(), json_escape(res.strategy).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  ::mkdir(opt.out_dir.c_str(), 0755);
  Result res;
  try {
    res = opt.workload == "serve_fleet" ? run_serving(opt) : run_training(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stepbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  if (!res.ran) {
    std::fprintf(stderr, "stepbench: %s did not run\n", opt.workload.c_str());
    return 1;
  }
  for (const auto& line : res.checks.lines()) std::printf("# check %s\n", line.c_str());
  for (const auto& note : res.notes) std::printf("# note %s\n", note.c_str());
  print_provenance(opt, res);

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              res.checks.all_passed() ? "true" : "false",
              static_cast<long long>(res.attempted),
              static_cast<long long>(res.failed));
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return 0;
}
