// Incremental trial pipeline benchmark: per-trial patch + predecode cost,
// cold (from-scratch instrument_image + ExecutableImage::build per config)
// vs. warm (one shared verify::TrialBuilder across the whole sequence, as
// the search and the sandboxed workers use it).
//
// The config sequence mimics the class-W BFS: the all-double baseline, one
// unit config per module, per function and per block (the breadth-first
// frontier), then an accumulating function-composition chain. Every warm
// build is asserted bit-identical to the from-scratch build of the same
// config; the binary exits non-zero on any mismatch.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "config/structure.hpp"
#include "instrument/patch.hpp"
#include "verify/trial_builder.hpp"
#include "vm/exec_image.hpp"

namespace {

using namespace fpmix;

bool images_identical(const program::Image& a, const program::Image& b) {
  if (a.code_base != b.code_base || a.code != b.code) return false;
  if (a.data_base != b.data_base || a.data != b.data) return false;
  if (a.bss_base != b.bss_base || a.bss_size != b.bss_size) return false;
  if (a.entry != b.entry) return false;
  if (a.symbols.size() != b.symbols.size()) return false;
  for (std::size_t i = 0; i < a.symbols.size(); ++i) {
    if (a.symbols[i].addr != b.symbols[i].addr ||
        a.symbols[i].size != b.symbols[i].size ||
        a.symbols[i].name != b.symbols[i].name)
      return false;
  }
  return true;
}

/// The breadth-first trial sequence for one workload: baseline, module
/// units, function units, block units (capped), then the composition chain
/// that accumulates one single-precision function at a time.
std::vector<config::PrecisionConfig> bfs_sequence(
    const config::StructureIndex& ix) {
  constexpr std::size_t kMaxBlockUnits = 128;
  std::vector<config::PrecisionConfig> seq;
  seq.emplace_back();  // all-double baseline
  for (std::size_t m = 0; m < ix.modules().size(); ++m) {
    config::PrecisionConfig c;
    c.set_module(m, config::Precision::kSingle);
    seq.push_back(std::move(c));
  }
  for (std::size_t f = 0; f < ix.funcs().size(); ++f) {
    config::PrecisionConfig c;
    c.set_func(f, config::Precision::kSingle);
    seq.push_back(std::move(c));
  }
  std::size_t block_units = 0;
  for (std::size_t b = 0;
       b < ix.blocks().size() && block_units < kMaxBlockUnits; ++b) {
    if (ix.blocks()[b].candidates.empty()) continue;
    config::PrecisionConfig c;
    c.set_block(b, config::Precision::kSingle);
    seq.push_back(std::move(c));
    ++block_units;
  }
  config::PrecisionConfig composed;
  for (std::size_t f = 0; f < ix.funcs().size(); ++f) {
    composed.set_func(f, config::Precision::kSingle);
    seq.push_back(composed);
  }
  return seq;
}

struct KernelResult {
  std::size_t trials = 0;
  double cold_total_ms = 0;
  double warm_total_ms = 0;
  double geomean_speedup = 0;
  std::uint64_t funcs_reused = 0;
  std::uint64_t funcs_patched = 0;
};

KernelResult run_kernel(const kernels::Workload& w,
                        std::vector<double>* speedups) {
  const program::Image img = kernels::build_image(w);
  const auto ix = config::StructureIndex::build(program::lift(img));
  const std::vector<config::PrecisionConfig> seq = bfs_sequence(ix);

  verify::TrialBuilder builder(img, ix);
  KernelResult res;
  res.trials = seq.size();
  double log_sum = 0;
  for (const config::PrecisionConfig& cfg : seq) {
    // Cold: the pre-incremental pipeline, from scratch every trial.
    Timer tp;
    program::Image patched = instrument::instrument_image(img, ix, cfg);
    const double cold_patch = tp.elapsed_seconds();
    Timer td;
    auto scratch = vm::ExecutableImage::build(patched);
    const double cold_predecode = td.elapsed_seconds();
    const double cold_ns = (cold_patch + cold_predecode) * 1e9;

    // Warm: the shared TrialBuilder, exactly as the search drives it.
    const verify::TrialBuilder::Built built = builder.build(cfg);
    const double warm_ns =
        static_cast<double>(built.patch_ns + built.predecode_ns);

    if (!images_identical(built.exec->image(), scratch->image())) {
      std::fprintf(stderr,
                   "FATAL: incremental build of %s diverges from scratch "
                   "build for config '%s'\n",
                   w.name.c_str(), cfg.canonical_key().c_str());
      std::exit(1);
    }

    res.funcs_reused += built.funcs_reused;
    res.funcs_patched += built.funcs_total - built.funcs_reused;
    res.cold_total_ms += cold_ns * 1e-6;
    res.warm_total_ms += warm_ns * 1e-6;
    const double speedup = cold_ns / std::max(warm_ns, 1.0);
    log_sum += std::log(speedup);
    speedups->push_back(speedup);
  }
  res.geomean_speedup = std::exp(log_sum / static_cast<double>(seq.size()));
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fpmix;
  const bool fast = argc > 1 && std::string_view(argv[1]) == "--fast";

  std::printf("Incremental trial pipeline: patch+predecode per trial, "
              "class-W BFS sequence\n");
  std::printf("(cold = instrument_image + ExecutableImage::build from "
              "scratch; warm = shared TrialBuilder)\n\n");
  std::printf("%-8s %7s %10s %10s %9s %9s %8s\n", "bench", "trials",
              "cold(ms)", "warm(ms)", "cold/tr", "warm/tr", "geomean");
  bench::print_rule(68);

  std::vector<kernels::Workload> workloads;
  workloads.push_back(kernels::make_cg('W'));
  workloads.push_back(kernels::make_ep('W'));
  workloads.push_back(kernels::make_mg('W'));
  if (!fast) {
    workloads.push_back(kernels::make_bt('W'));
    workloads.push_back(kernels::make_ft('W'));
    workloads.push_back(kernels::make_lu('W'));
    workloads.push_back(kernels::make_sp('W'));
  }

  std::vector<double> all_speedups;
  double log_sum = 0;
  std::size_t total_trials = 0;
  for (const kernels::Workload& w : workloads) {
    const KernelResult r = run_kernel(w, &all_speedups);
    std::printf("%-8s %7zu %10.2f %10.2f %7.1fus %7.1fus %7.2fx\n",
                w.name.c_str(), r.trials, r.cold_total_ms, r.warm_total_ms,
                r.cold_total_ms * 1e3 / static_cast<double>(r.trials),
                r.warm_total_ms * 1e3 / static_cast<double>(r.trials),
                r.geomean_speedup);
    std::printf("%-8s         funcs reused/patched %llu/%llu\n", "",
                static_cast<unsigned long long>(r.funcs_reused),
                static_cast<unsigned long long>(r.funcs_patched));
    std::fflush(stdout);
    total_trials += r.trials;
  }
  for (double s : all_speedups) log_sum += std::log(s);
  const double geomean =
      std::exp(log_sum / static_cast<double>(all_speedups.size()));
  bench::print_rule(68);
  std::printf("overall: %zu trials, geomean per-trial patch+predecode "
              "speedup %.2fx %s\n",
              total_trials, geomean,
              geomean >= 2.0 ? "(meets >=2x target)" : "(BELOW 2x target)");
  std::printf("all warm builds bit-identical to from-scratch builds\n");
  return 0;
}
