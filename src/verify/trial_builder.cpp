#include "verify/trial_builder.hpp"

#include <utility>

#include "support/timer.hpp"

namespace fpmix::verify {

TrialBuilder::TrialBuilder(const program::Image& original,
                           const config::StructureIndex& index)
    : patcher_(original, index) {}

TrialBuilder::Built TrialBuilder::build(const config::PrecisionConfig& cfg) {
  std::lock_guard<std::mutex> lock(mu_);
  Built out;
  Timer timer;
  instrument::IncrementalPatcher::Build b = patcher_.patch(cfg);
  out.patch_ns = timer.elapsed_ns();
  out.stats = b.stats;
  out.funcs_reused = static_cast<std::uint32_t>(b.funcs_reused);
  out.funcs_total = static_cast<std::uint32_t>(b.funcs_total);

  timer.reset();
  out.exec = patcher_.predecode(std::move(b));
  out.predecode_ns = timer.elapsed_ns();

  if (!have_cold_) {
    have_cold_ = true;
    cold_patch_ns_ = out.patch_ns;
    cold_predecode_ns_ = out.predecode_ns;
  } else {
    out.patch_saved_ns =
        cold_patch_ns_ > out.patch_ns ? cold_patch_ns_ - out.patch_ns : 0;
    out.predecode_saved_ns = cold_predecode_ns_ > out.predecode_ns
                                 ? cold_predecode_ns_ - out.predecode_ns
                                 : 0;
  }
  return out;
}

}  // namespace fpmix::verify
