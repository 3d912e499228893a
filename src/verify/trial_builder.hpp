// TrialBuilder: the shared patch+predecode front end of the evaluation
// pipeline.
//
// Wraps an instrument::IncrementalPatcher (per-function variant reuse plus
// segment-spliced predecode) behind one thread-safe build() call.
// verify::evaluate_config uses it when EvalOptions::builder is set -- both
// the in-process search path and each long-lived sandboxed worker keep one
// TrialBuilder alive across trials, which is where the cross-trial savings
// come from. It keeps no built image: a repeated config (a vote retry)
// rebuilds from variants that are all cached.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>

#include "config/config.hpp"
#include "config/structure.hpp"
#include "instrument/incremental.hpp"
#include "program/image.hpp"

namespace fpmix::verify {

class TrialBuilder {
 public:
  /// One built trial plus its cost/savings accounting. `*_saved_ns` are
  /// estimates against the first (cold) build's stage times.
  struct Built {
    std::shared_ptr<const vm::ExecutableImage> exec;
    instrument::InstrumentStats stats;
    bool cache_hit = false;  // always false; searchbench still reads it
    std::uint64_t patch_ns = 0;
    std::uint64_t predecode_ns = 0;
    std::uint64_t patch_saved_ns = 0;
    std::uint64_t predecode_saved_ns = 0;
    std::uint32_t funcs_reused = 0;
    std::uint32_t funcs_total = 0;
  };

  /// `index` must have been built from `original` and outlive the builder.
  TrialBuilder(const program::Image& original,
               const config::StructureIndex& index);

  /// Patches + predecodes `cfg`, reusing every cached function variant.
  /// Bit-identical to the from-scratch instrument_image +
  /// ExecutableImage::build pipeline. Thread-safe; throws exactly where the
  /// from-scratch path would (callers already treat those as trial
  /// outcomes).
  Built build(const config::PrecisionConfig& cfg);

 private:
  std::mutex mu_;
  instrument::IncrementalPatcher patcher_;

  // First-build stage times: the cold baseline the savings estimates are
  // measured against.
  bool have_cold_ = false;
  std::uint64_t cold_patch_ns_ = 0;
  std::uint64_t cold_predecode_ns_ = 0;
};

}  // namespace fpmix::verify
