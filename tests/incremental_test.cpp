// Differential tests for the incremental trial pipeline: per-function
// variant caching (instrument::IncrementalPatcher), segment-spliced
// predecode, the shared TrialBuilder front end, and search equivalence
// against a from-scratch reference in-process and under process isolation
// with an active hard-fault campaign.
//
// The non-negotiable property throughout: an incrementally built trial is
// BIT-identical to the from-scratch instrument_image + ExecutableImage::build
// pipeline -- same image bytes, same outputs on both VM engines -- and a
// search that builds through a TrialBuilder converges to the byte-identical
// final configuration of one that builds every trial from scratch.
#include <gtest/gtest.h>

#include <bit>
#include <optional>

#include "config/config.hpp"
#include "instrument/incremental.hpp"
#include "instrument/patch.hpp"
#include "kernels/workload.hpp"
#include "lang/builder.hpp"
#include "lang/compile.hpp"
#include "program/layout.hpp"
#include "program/program.hpp"
#include "runner/trial_runner.hpp"
#include "search/search.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"
#include "verify/evaluate.hpp"
#include "verify/trial_builder.hpp"
#include "verify/verifier.hpp"
#include "vm/machine.hpp"

namespace fpmix {
namespace {

using config::Precision;
using config::PrecisionConfig;
using config::StructureIndex;

/// Random configuration over the real structure ids of `ix`, flags at every
/// level.
PrecisionConfig random_config(const StructureIndex& ix, SplitMix64* rng,
                              std::size_t max_flags) {
  PrecisionConfig cfg;
  const std::size_t n = rng->next_below(max_flags + 1);
  for (std::size_t k = 0; k < n; ++k) {
    const Precision p = rng->next_below(2) == 0 ? Precision::kDouble
                                                : Precision::kSingle;
    switch (rng->next_below(4)) {
      case 0:
        cfg.set_module(rng->next_below(ix.modules().size()), p);
        break;
      case 1:
        cfg.set_func(rng->next_below(ix.funcs().size()), p);
        break;
      case 2:
        cfg.set_block(rng->next_below(ix.blocks().size()), p);
        break;
      default:
        cfg.set_instr(rng->next_below(ix.instrs().size()), p);
        break;
    }
  }
  return cfg;
}

/// A search-step neighbour: a few flags added, flipped or erased.
PrecisionConfig mutate_config(const StructureIndex& ix, PrecisionConfig cfg,
                              SplitMix64* rng) {
  const std::size_t edits = 1 + rng->next_below(3);
  for (std::size_t k = 0; k < edits; ++k) {
    std::optional<Precision> p;
    if (rng->next_below(4) != 0) {
      p = rng->next_below(2) == 0 ? Precision::kDouble : Precision::kSingle;
    }
    switch (rng->next_below(4)) {
      case 0:
        cfg.set_module(rng->next_below(ix.modules().size()), p);
        break;
      case 1:
        cfg.set_func(rng->next_below(ix.funcs().size()), p);
        break;
      case 2:
        cfg.set_block(rng->next_below(ix.blocks().size()), p);
        break;
      default:
        cfg.set_instr(rng->next_below(ix.instrs().size()), p);
        break;
    }
  }
  return cfg;
}

void expect_images_identical(const program::Image& a, const program::Image& b,
                             const std::string& what) {
  ASSERT_EQ(a.code_base, b.code_base) << what;
  ASSERT_EQ(a.data_base, b.data_base) << what;
  ASSERT_EQ(a.bss_base, b.bss_base) << what;
  ASSERT_EQ(a.bss_size, b.bss_size) << what;
  ASSERT_EQ(a.entry, b.entry) << what;
  ASSERT_EQ(a.code, b.code) << what;
  ASSERT_EQ(a.data, b.data) << what;
  ASSERT_EQ(a.symbols.size(), b.symbols.size()) << what;
  for (std::size_t i = 0; i < a.symbols.size(); ++i) {
    ASSERT_EQ(a.symbols[i].addr, b.symbols[i].addr) << what << " sym " << i;
    ASSERT_EQ(a.symbols[i].size, b.symbols[i].size) << what << " sym " << i;
    ASSERT_EQ(a.symbols[i].name, b.symbols[i].name) << what << " sym " << i;
  }
}

std::vector<double> run_engine(std::shared_ptr<const vm::ExecutableImage> exec,
                               vm::Engine engine) {
  vm::Machine::Options mopts;
  mopts.engine = engine;
  vm::Machine m(std::move(exec), mopts);
  const vm::RunResult r = m.run();
  EXPECT_TRUE(r.ok()) << r.trap_message;
  return m.output_f64();
}

void expect_outputs_bit_identical(const std::vector<double>& a,
                                  const std::vector<double>& b,
                                  const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << what << " output " << i;
  }
}

/// A small multi-module program with enough structure (three modules, four
/// functions, loops, calls) that random configs exercise every dirtiness
/// path, while staying cheap enough to execute hundreds of times on both
/// engines.
lang::ProgramModel structured_program() {
  lang::Builder b;
  auto acc_a = b.var_f64("acc_a");
  auto acc_b = b.var_f64("acc_b");
  auto acc_c = b.var_f64("acc_c");
  auto arr = b.array_f64("arr", 12);

  b.begin_func("fill", "mod_a");
  {
    auto i = b.var_i64("f_i");
    b.for_(i, b.ci(0), b.ci(12), [&] {
      b.store(arr, lang::Expr(i), to_f64(i) * b.cf(0.37) + b.cf(0.25));
    });
  }
  b.end_func();

  b.begin_func("sum_sqrt", "mod_a");
  {
    auto i = b.var_i64("s_i");
    b.set(acc_a, b.cf(0.0));
    b.for_(i, b.ci(0), b.ci(12), [&] {
      b.set(acc_a, lang::Expr(acc_a) + sqrt_(arr[lang::Expr(i)]));
    });
  }
  b.end_func();

  b.begin_func("harmonic", "mod_b");
  {
    auto i = b.var_i64("h_i");
    b.set(acc_b, b.cf(0.0));
    b.for_(i, b.ci(0), b.ci(40), [&] {
      b.set(acc_b,
            lang::Expr(acc_b) + b.cf(1.0) / to_f64(lang::Expr(i) + b.ci(2)));
    });
  }
  b.end_func();

  b.begin_func("main", "mod_main");
  b.call("fill");
  b.call("sum_sqrt");
  b.call("harmonic");
  b.set(acc_c, lang::Expr(acc_a) * b.cf(0.5) + sin_(lang::Expr(acc_b)));
  b.output(lang::Expr(acc_a) * b.cf(1.0));
  b.output(lang::Expr(acc_b) * b.cf(1.0));
  b.output(lang::Expr(acc_c) * b.cf(1.0));
  b.end_func();
  return b.take_model();
}

struct Prepared {
  program::Image image;
  StructureIndex index;
};

Prepared prepare_structured() {
  Prepared p{program::relayout(
                 lang::compile(structured_program(), lang::Mode::kDouble)),
             {}};
  p.index = StructureIndex::build(program::lift(p.image));
  return p;
}

// ---------------------------------------------------------------------------
// IncrementalPatcher: delta-built images are bit-identical to from-scratch
// builds, and both engines agree, over a long random parent/child chain.

TEST(IncrementalPatcher, BitIdenticalToScratchOverRandomChain) {
  const Prepared p = prepare_structured();
  instrument::IncrementalPatcher patcher(p.image, p.index);

  SplitMix64 rng(0x1CC0FFEE);
  PrecisionConfig cfg;  // chain starts at all-double
  for (int pair = 0; pair < 120; ++pair) {
    // Mostly neighbours (the search's access pattern), occasionally a jump
    // to an unrelated config (worst case for the variant cache).
    cfg = pair % 10 == 9 ? random_config(p.index, &rng, 12)
                         : mutate_config(p.index, cfg, &rng);
    const std::string what = "pair " + std::to_string(pair) + " key " +
                             cfg.canonical_key();

    instrument::InstrumentStats scratch_stats;
    const program::Image scratch =
        instrument::instrument_image(p.image, p.index, cfg, &scratch_stats);
    instrument::IncrementalPatcher::Build b = patcher.patch(cfg);
    expect_images_identical(b.image, scratch, what);
    ASSERT_EQ(b.stats.wrapped, scratch_stats.wrapped) << what;
    ASSERT_EQ(b.stats.replaced_single, scratch_stats.replaced_single) << what;
    ASSERT_EQ(b.stats.snippet_instrs, scratch_stats.snippet_instrs) << what;

    const auto inc_exec = patcher.predecode(std::move(b));
    const auto scratch_exec = vm::ExecutableImage::build(scratch);
    expect_outputs_bit_identical(run_engine(inc_exec, vm::Engine::kMicroOp),
                                 run_engine(scratch_exec,
                                            vm::Engine::kMicroOp),
                                 what + " micro-op");
    expect_outputs_bit_identical(run_engine(inc_exec, vm::Engine::kSwitch),
                                 run_engine(scratch_exec, vm::Engine::kSwitch),
                                 what + " switch");
  }
  // The chain's locality must actually exercise the cache, or this test
  // proves nothing about incremental builds.
  EXPECT_GT(patcher.variant_hits(), 100u);
}

TEST(IncrementalPatcher, BitIdenticalOnKernelImage) {
  const kernels::Workload w = kernels::make_cg('S');
  const program::Image img = kernels::build_image(w);
  const auto ix = StructureIndex::build(program::lift(img));
  instrument::IncrementalPatcher patcher(img, ix);

  SplitMix64 rng(0xCC5);
  PrecisionConfig cfg;
  for (int pair = 0; pair < 24; ++pair) {
    cfg = mutate_config(ix, cfg, &rng);
    const program::Image scratch = instrument::instrument_image(img, ix, cfg);
    instrument::IncrementalPatcher::Build b = patcher.patch(cfg);
    expect_images_identical(b.image, scratch,
                            "cg pair " + std::to_string(pair));
  }
}

// ---------------------------------------------------------------------------
// TrialBuilder: reuse accounting and bit-identity of the served images.

TEST(TrialBuilder, ReusesImagesAndAccountsSavings) {
  const Prepared p = prepare_structured();
  verify::TrialBuilder builder(p.image, p.index);

  SplitMix64 rng(0x7B);
  const PrecisionConfig a = random_config(p.index, &rng, 6);
  const verify::TrialBuilder::Built b1 = builder.build(a);
  ASSERT_NE(b1.exec, nullptr);
  EXPECT_EQ(b1.funcs_total, b1.exec->segments().size());

  // Bit-identical to the from-scratch pipeline.
  const auto scratch =
      vm::ExecutableImage::build(instrument::instrument_image(p.image,
                                                              p.index, a));
  expect_outputs_bit_identical(run_engine(b1.exec, vm::Engine::kMicroOp),
                               run_engine(scratch, vm::Engine::kMicroOp),
                               "builder vs scratch");

  // Same config again (a vote retry): every function variant and every
  // predecoded segment is reused, and the image is rebuilt identically.
  const verify::TrialBuilder::Built b2 = builder.build(a);
  EXPECT_EQ(b2.funcs_reused, b2.funcs_total);
  ASSERT_EQ(b2.exec->segments().size(), b1.exec->segments().size());
  for (std::size_t i = 0; i < b1.exec->segments().size(); ++i) {
    EXPECT_EQ(b2.exec->segments()[i].get(), b1.exec->segments()[i].get());
  }
  expect_images_identical(b2.exec->image(), b1.exec->image(), "retry");

  // A neighbour reuses most function variants.
  const verify::TrialBuilder::Built b3 =
      builder.build(mutate_config(p.index, a, &rng));
  EXPECT_GT(b3.funcs_reused, 0u);
}

TEST(TrialBuilder, HoldsNoImageAfterCaller) {
  const Prepared p = prepare_structured();
  verify::TrialBuilder builder(p.image, p.index);
  SplitMix64 rng(0x40);
  std::weak_ptr<const vm::ExecutableImage> held;
  {
    const verify::TrialBuilder::Built b =
        builder.build(random_config(p.index, &rng, 6));
    held = b.exec;
    ASSERT_FALSE(held.expired());
  }
  // The builder caches function variants, never whole images: once the
  // caller drops its Built, the executable is freed.
  EXPECT_TRUE(held.expired());
}

// ---------------------------------------------------------------------------
// Search equivalence: a search that builds through its TrialBuilder
// converges to the byte-identical final configuration of a from-scratch
// reference (in-process, isolated, and isolated under faults).

struct SearchSetup {
  program::Image image;
  StructureIndex index;
  std::unique_ptr<verify::Verifier> verifier;
};

SearchSetup search_setup() {
  SearchSetup s{program::relayout(
                    lang::compile(structured_program(), lang::Mode::kDouble)),
                {}, nullptr};
  s.index = StructureIndex::build(program::lift(s.image));
  std::vector<double> ref = verify::reference_outputs(s.image);
  s.verifier = std::make_unique<verify::RelativeErrorVerifier>(std::move(ref),
                                                               1e-6);
  return s;
}

search::SearchResult run_once(const SearchSetup& s,
                              const search::SearchOptions& opts,
                              search::TrialExecutor executor = nullptr) {
  StructureIndex ix = s.index;  // run_search updates profile weights in place
  return search::run_search(s.image, &ix, *s.verifier, opts,
                            std::move(executor));
}

/// The clean from-scratch reference: every attempt runs in-process through
/// evaluate_config with no builder, so each trial is patched and
/// predecoded anew.
search::SearchResult run_reference(const SearchSetup& s,
                                   const search::SearchOptions& opts) {
  verify::EvalOptions eval;
  eval.max_instructions = opts.max_instructions_per_run;
  eval.engine = opts.engine;
  search::SearchOptions ref = opts;
  ref.isolate_trials = false;
  ref.fault_injector = nullptr;
  return run_once(
      s, ref, [&s, eval](const std::vector<runner::TrialJob>& jobs) {
        std::vector<runner::TrialOutcome> outs(jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
          outs[i].result = verify::evaluate_config(
              s.image, s.index, *jobs[i].config, *s.verifier, eval);
        }
        return outs;
      });
}

void expect_same_search(const search::SearchResult& got,
                        const search::SearchResult& want) {
  EXPECT_EQ(got.final_config.canonical_key(),
            want.final_config.canonical_key());
  EXPECT_EQ(got.final_passed, want.final_passed);
  EXPECT_EQ(got.configs_tested, want.configs_tested);
  // The search reused function variants; the reference never did.
  EXPECT_GT(got.metrics.cost.funcs_reused, 0u);
  EXPECT_EQ(want.metrics.cost.funcs_reused, 0u);
}

TEST(SearchEquivalence, CacheOnOffIdenticalInProcess) {
  const SearchSetup s = search_setup();
  search::SearchOptions opts;
  opts.keep_log = false;
  opts.max_retries = 1;  // every vote retry rebuilds a config just built

  expect_same_search(run_once(s, opts), run_reference(s, opts));
}

TEST(SearchEquivalence, CacheOnOffIdenticalIsolated) {
  if (!runner::isolation_supported()) GTEST_SKIP();
  const SearchSetup s = search_setup();
  search::SearchOptions opts;
  opts.keep_log = false;
  opts.isolate_trials = true;
  opts.num_workers = 2;
  opts.max_retries = 1;

  const search::SearchResult isolated = run_once(s, opts);
  expect_same_search(isolated, run_reference(s, opts));
  // Every request carried a full config, and the per-slot census saw it.
  const runner::PoolStats& pool = isolated.metrics.pool;
  EXPECT_EQ(pool.full_requests, pool.isolated_trials);
  ASSERT_EQ(pool.slots.size(), 2u);
  std::size_t slot_requests = 0;
  for (const auto& slot : pool.slots) slot_requests += slot.requests;
  EXPECT_EQ(slot_requests, pool.isolated_trials);
}

TEST(SearchEquivalence, CacheOnOffIdenticalUnderFaultCampaign) {
  if (!runner::isolation_supported()) GTEST_SKIP();
  const SearchSetup s = search_setup();
  // Process-destroying faults only: every crash is absorbed as a retried
  // fault event, so verdicts (and the final config) must stay identical to
  // the clean reference.
  fault::Injector::Rates rates;
  rates.segv = 0.05;
  rates.kill = 0.03;
  rates.corrupt_result = 0.02;
  const fault::Injector injector(0xFA117, rates);

  search::SearchOptions opts;
  opts.keep_log = false;
  opts.isolate_trials = true;
  opts.num_workers = 2;
  opts.max_retries = 1;
  opts.fault_injector = &injector;

  const search::SearchResult faulted = run_once(s, opts);
  expect_same_search(faulted, run_reference(s, opts));
  // The campaign actually fired, and respawns were attributed to slots.
  const runner::PoolStats& pool = faulted.metrics.pool;
  EXPECT_GT(pool.worker_crashes + pool.protocol_errors, 0u);
  std::size_t slot_respawns = 0;
  for (const auto& slot : pool.slots) slot_respawns += slot.respawns;
  EXPECT_EQ(slot_respawns, pool.workers_respawned);
}

}  // namespace
}  // namespace fpmix
