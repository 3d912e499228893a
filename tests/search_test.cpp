// Tests for the breadth-first configuration search: descent semantics,
// optimizations, stop levels, final-composition behaviour, and the paper's
// key claims (coarsest-granularity results, pruning effectiveness).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>

#include "config/textio.hpp"
#include "kernels/workload.hpp"
#include "lang/builder.hpp"
#include "lang/compile.hpp"
#include "program/layout.hpp"
#include "program/program.hpp"
#include "search/metrics_json.hpp"
#include "search/search.hpp"
#include "verify/evaluate.hpp"

namespace fpmix::search {
namespace {

using config::Precision;
using lang::Builder;
using lang::Expr;

struct Prepared {
  program::Image image;
  config::StructureIndex index;
  std::unique_ptr<verify::Verifier> verifier;
};

/// A program with engineered sensitivity: module `soft` tolerates single
/// precision (its contribution is rounded to 1e-2), module `hard` does not
/// (its exact value feeds the tightly-checked output).
lang::ProgramModel two_module_program() {
  Builder b;
  auto soft_out = b.var_f64("soft_out");
  auto hard_out = b.var_f64("hard_out");

  b.begin_func("soft_work", "soft");
  {
    auto i = b.var_i64("s_i");
    auto acc = b.var_f64("s_acc");
    b.set(acc, b.cf(0.0));
    b.for_(i, b.ci(0), b.ci(50), [&] {
      b.set(acc, Expr(acc) + sqrt_(to_f64(Expr(i) + b.ci(1))));
    });
    // Quantize so float rounding cannot show (acc ~ 238; float error ~1e-5).
    b.set(soft_out, floor_(Expr(acc) * b.cf(100.0)));
  }
  b.end_func();

  b.begin_func("hard_work", "hard");
  {
    auto i = b.var_i64("h_i");
    auto acc = b.var_f64("h_acc");
    b.set(acc, b.cf(0.0));
    b.for_(i, b.ci(0), b.ci(50), [&] {
      b.set(acc, Expr(acc) + b.cf(1.0) / to_f64(Expr(i) + b.ci(3)));
    });
    b.set(hard_out, acc);
  }
  b.end_func();

  b.begin_func("main", "main_mod");
  b.call("soft_work");
  b.call("hard_work");
  b.output(soft_out);
  b.output(hard_out);
  b.end_func();
  return b.take_model();
}

Prepared prepare(const lang::ProgramModel& model, double rel_tol) {
  Prepared p{program::relayout(lang::compile(model, lang::Mode::kDouble)),
             {}, nullptr};
  p.index = config::StructureIndex::build(program::lift(p.image));
  std::vector<double> ref = verify::reference_outputs(p.image);
  p.verifier =
      std::make_unique<verify::RelativeErrorVerifier>(std::move(ref),
                                                      rel_tol);
  return p;
}

TEST(Search, FindsModuleLevelReplacement) {
  Prepared p = prepare(two_module_program(), 1e-12);
  SearchOptions opts;
  SearchResult res = run_search(p.image, &p.index, *p.verifier, opts);

  // Module `soft` passes whole; module `hard` must be refused at every
  // granularity that matters dynamically.
  const std::size_t soft_mod = p.index.module_named("soft");
  EXPECT_EQ(res.final_config.module_flag(soft_mod), Precision::kSingle);
  EXPECT_TRUE(res.final_passed);
  EXPECT_GT(res.stats.replaced_static, 0u);

  // The hard module's accumulation instructions stay double.
  const std::size_t hard_fn = p.index.func_named("hard_work");
  std::size_t hard_replaced = 0;
  for (std::size_t i : p.index.funcs()[hard_fn].candidates) {
    if (res.final_config.resolve(p.index, i) == Precision::kSingle) {
      ++hard_replaced;
    }
  }
  EXPECT_LT(hard_replaced, p.index.funcs()[hard_fn].candidates.size());
}

TEST(Search, CoarsestGranularityIsPreferred) {
  // When a whole module passes, no finer structure of it is ever tested.
  Prepared p = prepare(two_module_program(), 1e-12);
  SearchOptions opts;
  SearchResult res = run_search(p.image, &p.index, *p.verifier, opts);
  for (const TestRecord& rec : res.trace) {
    if (rec.unit.find("module soft") != std::string::npos) {
      EXPECT_TRUE(rec.passed);
    }
    // No sub-structure of soft was tested: soft_work never appears.
    EXPECT_EQ(rec.unit.find("func soft_work"), std::string::npos)
        << rec.unit;
  }
}

TEST(Search, StopLevelLimitsDescent) {
  Prepared p = prepare(two_module_program(), 1e-12);
  SearchOptions opts;
  opts.stop_level = StopLevel::kFunction;
  SearchResult res = run_search(p.image, &p.index, *p.verifier, opts);
  for (const TestRecord& rec : res.trace) {
    EXPECT_EQ(rec.unit.find("block"), std::string::npos) << rec.unit;
    EXPECT_EQ(rec.unit.find("insn"), std::string::npos) << rec.unit;
  }

  Prepared p2 = prepare(two_module_program(), 1e-12);
  opts.stop_level = StopLevel::kModule;
  SearchResult res2 = run_search(p2.image, &p2.index, *p.verifier, opts);
  // Modules only: one test per module that has candidates (main_mod has
  // none) plus the final composition.
  std::size_t modules_with_candidates = 0;
  for (const auto& m : p2.index.modules()) {
    if (!m.candidates.empty()) ++modules_with_candidates;
  }
  EXPECT_EQ(res2.configs_tested, modules_with_candidates + 1);
}

TEST(Search, BinarySplitHelpsOnSprinkledFailures) {
  // The paper's stated case for binary splitting: "a large number of
  // replaceable sections sprinkled with a few non-replaceable sections."
  // One big straight-line block of 24 independent narrowable adds plus a
  // single sensitive chain: splitting isolates the bad region in O(log n)
  // tests instead of testing every instruction.
  Builder b;
  b.begin_func("main", "m");
  auto good = b.var_f64("good");
  auto bad = b.var_f64("bad");
  b.set(good, b.cf(0.0));
  // 24 independently harmless candidates (results quantized via floor).
  for (int k = 0; k < 24; ++k) {
    b.set(good, floor_(Expr(good) + b.cf(1.0 + k)));
  }
  // A precision-critical tail in the same block.
  b.set(bad, b.cf(1.0) / b.cf(3.0) + b.cf(1.0) / b.cf(7.0));
  b.output(good);
  b.output(bad);
  b.end_func();
  const lang::ProgramModel model = b.take_model();

  Prepared p1 = prepare(model, 1e-12);
  SearchOptions with_split;
  with_split.binary_split = true;
  const SearchResult r1 =
      run_search(p1.image, &p1.index, *p1.verifier, with_split);

  Prepared p2 = prepare(model, 1e-12);
  SearchOptions no_split;
  no_split.binary_split = false;
  const SearchResult r2 =
      run_search(p2.image, &p2.index, *p2.verifier, no_split);

  // Identical replacement outcome, fewer configurations with splitting.
  EXPECT_EQ(r1.stats.replaced_static, r2.stats.replaced_static);
  EXPECT_LT(r1.configs_tested, r2.configs_tested);
}

TEST(Search, PrioritizationTestsHotUnitsFirst) {
  Prepared p = prepare(two_module_program(), 1e-12);
  SearchOptions opts;
  opts.prioritize_by_profile = true;
  SearchResult res = run_search(p.image, &p.index, *p.verifier, opts);
  ASSERT_GE(res.trace.size(), 2u);
  // First tested unit must be the heaviest module by candidate executions.
  std::uint64_t best = 0;
  std::size_t best_m = 0;
  for (std::size_t m = 0; m < p.index.modules().size(); ++m) {
    const std::uint64_t wgt = p.index.candidate_weight_of_module(m);
    if (wgt > best) {
      best = wgt;
      best_m = m;
    }
  }
  EXPECT_NE(res.trace[0].unit.find(p.index.modules()[best_m].name),
            std::string::npos)
      << res.trace[0].unit;
}

TEST(Search, ParallelEvaluationMatchesSerial) {
  kernels::Workload w = kernels::make_ep('S');
  const program::Image img = kernels::build_image(w);
  auto verifier = kernels::make_verifier(w, img);

  SearchOptions serial;
  serial.num_threads = 1;
  auto ix1 = config::StructureIndex::build(program::lift(img));
  const SearchResult r1 = run_search(img, &ix1, *verifier, serial);

  SearchOptions parallel;
  parallel.num_threads = 4;
  auto ix2 = config::StructureIndex::build(program::lift(img));
  const SearchResult r2 = run_search(img, &ix2, *verifier, parallel);

  EXPECT_EQ(r1.stats.replaced_static, r2.stats.replaced_static);
  EXPECT_EQ(r1.final_passed, r2.final_passed);
}

TEST(Search, AllReplaceableWorkloadNeedsFewTests) {
  // The paper's AMG result: the whole kernel passes at module level, so the
  // search needs only #modules + 1 runs.
  kernels::Workload w = kernels::make_amg();
  const program::Image img = kernels::build_image(w);
  auto verifier = kernels::make_verifier(w, img);
  auto ix = config::StructureIndex::build(program::lift(img));
  const SearchResult res = run_search(img, &ix, *verifier, {});
  EXPECT_TRUE(res.final_passed);
  EXPECT_NEAR(res.stats.static_pct, 100.0, 1e-9);
  EXPECT_NEAR(res.stats.dynamic_pct, 100.0, 1e-9);
  EXPECT_EQ(res.configs_tested, ix.modules().size() + 1);
}

TEST(Search, FinalConfigSerializesToFigure3Format) {
  Prepared p = prepare(two_module_program(), 1e-12);
  const SearchResult res = run_search(p.image, &p.index, *p.verifier, {});
  const std::string text = config::to_text(p.index, res.final_config);
  const config::PrecisionConfig parsed = config::from_text(p.index, text);
  EXPECT_EQ(parsed, res.final_config);
}


/// A scripted executor: the outcome of every attempt is a pure function of
/// its attempt index, so the vote rules can be checked without running
/// anything. Records the batches it was handed.
struct ScriptedExecutor {
  static constexpr std::size_t kLanes = 3;

  TrialExecutor bind() {
    return [this](const std::vector<runner::TrialJob>& jobs) {
      largest_batch = std::max(largest_batch, jobs.size());
      std::vector<runner::TrialOutcome> outs;
      for (const runner::TrialJob& job : jobs) {
        ++attempts_by_index[job.attempt];
        outs.push_back(script(job.attempt));
      }
      return outs;
    };
  }

  std::function<runner::TrialOutcome(std::uint32_t)> script;
  std::size_t largest_batch = 0;
  std::map<std::uint32_t, std::size_t> attempts_by_index;
};

runner::TrialOutcome scripted(bool passed) {
  runner::TrialOutcome o;
  o.result.passed = passed;
  if (!passed) {
    o.result.failure_class = verify::FailureClass::kDivergence;
    o.result.failure = "scripted failure";
  }
  return o;
}

TEST(Search, MixedVotesSettleByMajorityAndQuarantine) {
  // pass, fail, pass: no verdict holds a majority of three attempts until
  // the third, so every trial passes on 2-of-3 and is quarantined.
  ScriptedExecutor exec;
  exec.script = [](std::uint32_t attempt) { return scripted(attempt != 1); };
  Prepared p = prepare(two_module_program(), 1e-12);
  SearchOptions opts;
  opts.max_retries = 2;
  const SearchResult res = run_search(p.image, &p.index, *p.verifier, opts,
                                      exec.bind(), ScriptedExecutor::kLanes);

  const std::size_t live = res.metrics.trials_live;
  // Every module passes whole, so nothing descends: one trial per module
  // with candidates, plus the final composition.
  EXPECT_EQ(live, res.configs_tested);
  EXPECT_LE(live, p.index.modules().size() + 1);
  EXPECT_TRUE(res.final_passed);
  EXPECT_EQ(res.metrics.retries, 2 * live);
  EXPECT_EQ(res.metrics.quarantined, live);
  EXPECT_EQ(res.quarantine.size(), live);
  EXPECT_EQ(exec.attempts_by_index[0], live);
  EXPECT_EQ(exec.attempts_by_index[2], live);
  EXPECT_LE(exec.largest_batch, ScriptedExecutor::kLanes);
}

TEST(Search, SettledOutcomeEndsTheTrialOutsideTheVote) {
  // A pass vote, then a breaker verdict: the breaker's failure stands, the
  // trial records votes + 1 attempts, and it is never quarantined as mixed.
  ScriptedExecutor exec;
  exec.script = [](std::uint32_t attempt) {
    if (attempt == 0) return scripted(true);
    runner::TrialOutcome o = scripted(false);
    o.result.failure_class = verify::FailureClass::kCrash;
    o.quarantined = true;
    o.settled = true;
    return o;
  };
  Prepared p = prepare(two_module_program(), 1e-12);
  SearchOptions opts;
  opts.max_retries = 2;
  opts.stop_level = StopLevel::kFunction;
  const SearchResult res = run_search(p.image, &p.index, *p.verifier, opts,
                                      exec.bind(), ScriptedExecutor::kLanes);

  const std::size_t live = res.metrics.trials_live;
  EXPECT_GT(live, p.index.modules().size());  // failures descended
  EXPECT_FALSE(res.final_passed);
  EXPECT_EQ(res.metrics.retries, live);
  EXPECT_EQ(res.metrics.quarantined, 0u);
  EXPECT_EQ(res.metrics.failures_by_class.at("crash"), live);
  EXPECT_EQ(exec.attempts_by_index.count(2), 0u);
}

/// Flattens a JSON document into "path:type" entries in document order
/// ("endpoints[].address:string", "jit_lowering.fused_pairs:int"). A
/// number with a fraction or exponent is "float", any other is "int".
class JsonShape {
 public:
  explicit JsonShape(const std::string& text) : s_(text) {}

  std::vector<std::string> entries() {
    value("");
    skip_ws();
    EXPECT_EQ(pos_, s_.size()) << "trailing bytes after the document";
    return out_;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool eat(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  std::string string() {
    EXPECT_TRUE(eat('"'));
    std::string v;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      v += s_[pos_++];
    }
    ++pos_;
    return v;
  }
  void note(const std::string& path, const char* type) {
    if (!path.empty()) out_.push_back(path + ":" + type);
  }
  void value(const std::string& path) {
    skip_ws();
    if (pos_ >= s_.size()) {
      ADD_FAILURE() << "truncated document at " << path;
      return;
    }
    const char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      note(path, "object");
      if (eat('}')) return;
      do {
        const std::string key = string();
        EXPECT_TRUE(eat(':')) << path << "." << key;
        value(path.empty() ? key : path + "." + key);
      } while (eat(','));
      EXPECT_TRUE(eat('}')) << path;
    } else if (c == '[') {
      ++pos_;
      note(path, "array");
      if (eat(']')) return;
      // Every element must have the first one's shape; record it once.
      const std::size_t mark = out_.size();
      value(path + "[]");
      const std::vector<std::string> first(out_.begin() + mark, out_.end());
      while (eat(',')) {
        value(path + "[]");
        EXPECT_EQ(std::vector<std::string>(
                      out_.end() - static_cast<std::ptrdiff_t>(first.size()),
                      out_.end()),
                  first);
        out_.resize(out_.size() - first.size());
      }
      EXPECT_TRUE(eat(']')) << path;
    } else if (c == '"') {
      string();
      note(path, "string");
    } else if (s_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      note(path, "bool");
    } else if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      note(path, "bool");
    } else {
      const std::size_t start = pos_;
      while (pos_ < s_.size() &&
             std::string_view("+-0123456789.eE").find(s_[pos_]) !=
                 std::string_view::npos) {
        ++pos_;
      }
      const std::string tok = s_.substr(start, pos_ - start);
      EXPECT_FALSE(tok.empty()) << "unexpected byte at " << path;
      note(path, tok.find_first_of(".eE") == std::string::npos ? "int"
                                                                 : "float");
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::vector<std::string> out_;
};

TEST(MetricsJson, KeySetAndValueTypesArePinned) {
  // CI scripts and dashboards parse nas_search --metrics-json by key; this
  // pins every key (top level, endpoints[], workers[], jit_lowering) and
  // the JSON type of its value.
  SearchResult res;
  res.metrics.failures_by_class["divergence"] = 2;
  res.metrics.pool.crashes_by_signal["SIGSEGV"] = 1;
  res.metrics.endpoints_used.emplace_back();
  res.metrics.endpoints_used[0].address = "127.0.0.1:7000";
  res.metrics.pool.slots.emplace_back();

  const std::vector<std::string> golden = {
      "trials_total:int",
      "trials_live:int",
      "trials_cached:int",
      "cache_hit_rate:float",
      "wall_seconds:float",
      "eval_seconds:float",
      "trials_per_sec:float",
      "patch_seconds:float",
      "predecode_seconds:float",
      "run_seconds:float",
      "verify_seconds:float",
      "patch_saved_seconds:float",
      "predecode_saved_seconds:float",
      "funcs_reused:int",
      "funcs_patched:int",
      "failures_by_class:object",
      "failures_by_class.divergence:int",
      "retries:int",
      "quarantined:int",
      "profile_degraded:bool",
      "jit_downgraded:int",
      "isolated_trials:int",
      "worker_crashes:int",
      "worker_respawns:int",
      "worker_timeouts:int",
      "protocol_errors:int",
      "crash_quarantined:int",
      "crashes_by_signal:object",
      "crashes_by_signal.SIGSEGV:int",
      "crash_storm:bool",
      "isolation_degraded:bool",
      "full_requests:int",
      "full_bytes:int",
      "remote_trials:int",
      "shard_cache_hits:int",
      "endpoint_failovers:int",
      "endpoint_reconnects:int",
      "endpoint_disconnects:int",
      "endpoints_lost:int",
      "remote_unserved:int",
      "remote_degraded:bool",
      "missed_beats:int",
      "lease_expiries:int",
      "late_results:int",
      "redispatched:int",
      "breaker_trips:int",
      "adopted_records:int",
      "gossip_rounds:int",
      "records_repaired:int",
      "shards_reloaded:int",
      "disk_faults:int",
      "state_degraded:int",
      "endpoints:array",
      "endpoints[]:object",
      "endpoints[].address:string",
      "endpoints[].workers:int",
      "endpoints[].trials:int",
      "endpoints[].cache_hits:int",
      "endpoints[].failovers:int",
      "endpoints[].reconnects:int",
      "endpoints[].disconnects:int",
      "endpoints[].busy_seconds:float",
      "endpoints[].lost:bool",
      "endpoints[].jit_downgraded:bool",
      "endpoints[].pings:int",
      "endpoints[].pongs:int",
      "endpoints[].missed_beats:int",
      "endpoints[].lease_expiries:int",
      "endpoints[].late_results:int",
      "endpoints[].redispatched:int",
      "endpoints[].breaker_trips:int",
      "endpoints[].rtt_p50_us:int",
      "endpoints[].rtt_p95_us:int",
      "endpoints[].rtt_max_us:int",
      "endpoints[].journal_records:int",
      "endpoints[].gossip_rounds:int",
      "endpoints[].records_repaired:int",
      "endpoints[].shards_reloaded:int",
      "endpoints[].disk_faults:int",
      "endpoints[].state_degraded:bool",
      "workers:array",
      "workers[]:object",
      "workers[].slot:int",
      "workers[].requests:int",
      "workers[].respawns:int",
      "workers[].crashes:int",
      "workers[].timeouts:int",
      "workers[].quarantines:int",
      "jit_lowering:object",
      "jit_lowering.int:object",
      "jit_lowering.int.native:int",
      "jit_lowering.int.generic:int",
      "jit_lowering.int.helper:int",
      "jit_lowering.mem:object",
      "jit_lowering.mem.native:int",
      "jit_lowering.mem.generic:int",
      "jit_lowering.mem.helper:int",
      "jit_lowering.branch:object",
      "jit_lowering.branch.native:int",
      "jit_lowering.branch.generic:int",
      "jit_lowering.branch.helper:int",
      "jit_lowering.call/ret:object",
      "jit_lowering.call/ret.native:int",
      "jit_lowering.call/ret.generic:int",
      "jit_lowering.call/ret.helper:int",
      "jit_lowering.f64:object",
      "jit_lowering.f64.native:int",
      "jit_lowering.f64.generic:int",
      "jit_lowering.f64.helper:int",
      "jit_lowering.f32:object",
      "jit_lowering.f32.native:int",
      "jit_lowering.f32.generic:int",
      "jit_lowering.f32.helper:int",
      "jit_lowering.packed:object",
      "jit_lowering.packed.native:int",
      "jit_lowering.packed.generic:int",
      "jit_lowering.packed.helper:int",
      "jit_lowering.bitwise:object",
      "jit_lowering.bitwise.native:int",
      "jit_lowering.bitwise.generic:int",
      "jit_lowering.bitwise.helper:int",
      "jit_lowering.convert:object",
      "jit_lowering.convert.native:int",
      "jit_lowering.convert.generic:int",
      "jit_lowering.convert.helper:int",
      "jit_lowering.divrem:object",
      "jit_lowering.divrem.native:int",
      "jit_lowering.divrem.generic:int",
      "jit_lowering.divrem.helper:int",
      "jit_lowering.intrin:object",
      "jit_lowering.intrin.native:int",
      "jit_lowering.intrin.generic:int",
      "jit_lowering.intrin.helper:int",
      "jit_lowering.other:object",
      "jit_lowering.other.native:int",
      "jit_lowering.other.generic:int",
      "jit_lowering.other.helper:int",
      "jit_lowering.fused_pairs:int",
      "jit_lowering.reg_alloc_blocks:int",
      "jit_lowering.reg_alloc_slots:int",
      "configs_tested:int",
      "refined:bool",
      "final_passed:bool",
  };
  EXPECT_EQ(JsonShape(metrics_json(res)).entries(), golden);
}

}  // namespace
}  // namespace fpmix::search
