// The paper's NAS experiment as a command-line tool: run the automatic
// mixed-precision search on one benchmark analogue and write the
// recommended configuration file.
//
// Usage:  nas_search <ep|cg|ft|mg|bt|lu|sp|amg> [S|W|A|C] [--trace]
//                    [--refine] [--out FILE] [--journal FILE] [--no-resume]
//                    [--threads N] [--deadline-ms N] [--retries N] [--quiet]
//                    [--isolate] [--workers N] [--max-crashes N]
//                    [--worker-rlimit-as MB] [--fault-seed N]
//                    [--metrics-json FILE] [--no-image-cache]
//                    [--connect HOST:PORT,...] [--shard-cache]
//                    [--journal-deterministic]
//                    [--engine switch|microop|jit] [--adopt]
//                    [--heartbeat-ms N] [--reconnect-max-ms N]
//                    [--gossip-ms N]
//
// --deadline-ms bounds each trial's wall-clock time (a spinning patched
// binary is classified "timeout" instead of hanging the search);
// --retries N re-evaluates each trial until one verdict holds a majority
// of N+1 attempts, quarantining configs whose attempts disagree.
//
// With --journal, every completed trial is appended to FILE as it
// finishes; re-running the same command resumes from it, re-using every
// journaled verdict instead of re-evaluating (an interrupted search loses
// at most the trial in flight).
//
// --isolate runs every trial in a forked, rlimit-capped worker process:
// a trial that crashes or OOMs kills its worker, never the search.
// --workers N sizes the worker fleet (default: --threads), --max-crashes N
// sets the per-config crash-loop breaker, and --fault-seed N arms a
// deterministic hard-fault campaign (SIGSEGV/SIGKILL/OOM/corrupt-frame
// injection) for exercising the supervisor. --metrics-json dumps the full
// SearchMetrics, including the per-signal worker-crash census and the
// per-worker-slot request/respawn/quarantine counts, to FILE.
//
// --no-image-cache disables the incremental trial pipeline (per-function
// variant reuse + warm image caches), rebuilding every trial from scratch.
// Results are identical either way; the flag exists for A/B benchmarking.
//
// --connect dispatches trials to remote runner_serve daemons instead of
// local execution: trials fan out across the fleet (least-loaded first),
// endpoints that die mid-trial are failed over, and the search degrades to
// in-process evaluation if the whole fleet is lost. --shard-cache shares
// one fleet-wide trial cache across every scheduler connected to the same
// daemons. --journal-deterministic zeroes per-trial timing fields in the
// journal so a distributed run's journal is byte-identical to a local
// run's. The daemons themselves are runner_serve processes.
//
// While connected, the scheduler streams every journal record to the
// fleet (each daemon retains a replicated shard) and pings endpoints
// every --heartbeat-ms (default 1000, 0 disables) so a stalled endpoint
// is distinguished from a slow one; --reconnect-max-ms caps the jittered
// reconnect backoff (default 200). --adopt makes a fresh scheduler fetch
// the fleet-held journal, reconcile it into the local --journal file, and
// resume the interrupted search byte-identically -- the failover path
// after a scheduler host dies. --gossip-ms (default 1000, 0 disables)
// sets the anti-entropy period: the scheduler exchanges journal-shard
// digests with every live endpoint that often and re-streams whatever a
// digest shows missing, so a restarted daemon (see runner_serve
// --state-dir) converges back to a full replica without waiting for the
// next adoption.
//
// --engine picks the VM engine trials run on: "switch" (reference
// interpreter), "microop" (predecoded micro-op interpreter, the default)
// or "jit" (native x86-64 code compiled from the micro-op stream). All
// three are bit-identical, so journals and verdicts do not depend on the
// choice; a host that cannot run the jit falls back to microop with a
// warning (counted as jit_downgraded in --metrics-json).
//
// Exit codes: 0 search completed and the composition verified; 1 search
// completed but the final composition fails verification; 2 usage error
// (unknown flag, a flag missing its value, a bad value, an unknown
// benchmark or class); 3 internal failure (worker crash storm or
// internal-error trials).
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "config/textio.hpp"
#include "kernels/workload.hpp"
#include "net/socket.hpp"
#include "program/program.hpp"
#include "search/search.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/flags.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"
#include "support/timer.hpp"
#include "vm/jit/jit.hpp"
#include "vm/machine.hpp"

using namespace fpmix;

namespace {

void json_escape(const std::string& s, std::string* out) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      *out += strformat("\\u%04x", c);
    } else {
      out->push_back(c);
    }
  }
}

/// Dumps the full SearchMetrics (plus the run verdict) as one JSON object.
bool write_metrics_json(const std::string& path,
                        const search::SearchResult& res) {
  const search::SearchMetrics& m = res.metrics;
  std::string j = "{\n";
  const auto num = [&j](const char* k, double v, bool comma = true) {
    j += strformat("  \"%s\": %.6f%s\n", k, v, comma ? "," : "");
  };
  const auto uint = [&j](const char* k, std::size_t v) {
    j += strformat("  \"%s\": %zu,\n", k, v);
  };
  const auto boolean = [&j](const char* k, bool v) {
    j += strformat("  \"%s\": %s,\n", k, v ? "true" : "false");
  };
  const auto census = [&j](const char* k,
                           const std::map<std::string, std::size_t>& counts) {
    j += strformat("  \"%s\": {", k);
    bool first = true;
    for (const auto& [name, n] : counts) {
      std::string esc;
      json_escape(name, &esc);
      j += strformat("%s\"%s\": %zu", first ? "" : ", ", esc.c_str(), n);
      first = false;
    }
    j += "},\n";
  };
  uint("trials_total", m.trials_total);
  uint("trials_live", m.trials_live);
  uint("trials_cached", m.trials_cached);
  num("cache_hit_rate", m.cache_hit_rate);
  num("wall_seconds", m.wall_seconds);
  num("eval_seconds", m.eval_seconds);
  num("trials_per_sec", m.trials_per_sec);
  num("patch_seconds", m.patch_seconds);
  num("predecode_seconds", m.predecode_seconds);
  num("run_seconds", m.run_seconds);
  num("verify_seconds", m.verify_seconds);
  uint("image_cache_hits", m.image_cache_hits);
  uint("image_cache_misses", m.image_cache_misses);
  num("patch_saved_seconds", m.patch_saved_seconds);
  num("predecode_saved_seconds", m.predecode_saved_seconds);
  uint("funcs_reused", m.funcs_reused);
  uint("funcs_patched", m.funcs_patched);
  census("failures_by_class", m.failures_by_class);
  uint("retries", m.retries);
  uint("quarantined", m.quarantined);
  boolean("profile_degraded", m.profile_degraded);
  uint("jit_downgraded", m.jit_downgraded);
  uint("isolated_trials", m.isolated_trials);
  uint("worker_crashes", m.worker_crashes);
  uint("worker_respawns", m.worker_respawns);
  uint("worker_timeouts", m.worker_timeouts);
  uint("protocol_errors", m.protocol_errors);
  uint("crash_quarantined", m.crash_quarantined);
  census("crashes_by_signal", m.crashes_by_signal);
  boolean("crash_storm", m.crash_storm);
  boolean("isolation_degraded", m.isolation_degraded);
  uint("delta_requests", m.delta_requests);
  uint("full_requests", m.full_requests);
  uint("delta_bytes", m.delta_bytes);
  uint("full_bytes", m.full_bytes);
  uint("remote_trials", m.remote_trials);
  uint("shard_cache_hits", m.shard_cache_hits);
  uint("endpoint_failovers", m.endpoint_failovers);
  uint("endpoint_reconnects", m.endpoint_reconnects);
  uint("endpoint_disconnects", m.endpoint_disconnects);
  uint("endpoints_lost", m.endpoints_lost);
  uint("remote_unserved", m.remote_unserved);
  boolean("remote_degraded", m.remote_degraded);
  uint("missed_beats", m.missed_beats);
  uint("lease_expiries", m.lease_expiries);
  uint("late_results", m.late_results);
  uint("redispatched", m.redispatched);
  uint("breaker_trips", m.breaker_trips);
  j += strformat("  \"adopted_records\": %llu,\n",
                 static_cast<unsigned long long>(m.adopted_records));
  uint("gossip_rounds", m.gossip_rounds);
  uint("records_repaired", m.records_repaired);
  uint("shards_reloaded", m.shards_reloaded);
  uint("disk_faults", m.disk_faults);
  uint("state_degraded", m.state_degraded);
  j += "  \"endpoints\": [";
  for (std::size_t i = 0; i < m.endpoints_used.size(); ++i) {
    const search::EndpointMetrics& e = m.endpoints_used[i];
    std::string esc;
    json_escape(e.address, &esc);
    j += strformat(
        "%s{\"address\": \"%s\", \"workers\": %u, \"trials\": %zu, "
        "\"cache_hits\": %zu, \"failovers\": %zu, \"reconnects\": %zu, "
        "\"disconnects\": %zu, \"busy_seconds\": %.6f, \"lost\": %s, "
        "\"jit_downgraded\": %s, \"pings\": %zu, \"pongs\": %zu, "
        "\"missed_beats\": %zu, \"lease_expiries\": %zu, "
        "\"late_results\": %zu, \"redispatched\": %zu, "
        "\"breaker_trips\": %zu, \"rtt_p50_us\": %llu, "
        "\"rtt_p95_us\": %llu, \"rtt_max_us\": %llu, "
        "\"journal_records\": %llu, \"gossip_rounds\": %zu, "
        "\"records_repaired\": %zu, \"shards_reloaded\": %llu, "
        "\"disk_faults\": %llu, \"state_degraded\": %s}",
        i == 0 ? "" : ", ", esc.c_str(), e.workers, e.trials, e.cache_hits,
        e.failovers, e.reconnects, e.disconnects,
        1e-9 * static_cast<double>(e.busy_ns), e.lost ? "true" : "false",
        e.jit_downgraded ? "true" : "false", e.pings, e.pongs,
        e.missed_beats, e.lease_expiries, e.late_results, e.redispatched,
        e.breaker_trips, static_cast<unsigned long long>(e.rtt_p50_us),
        static_cast<unsigned long long>(e.rtt_p95_us),
        static_cast<unsigned long long>(e.rtt_max_us),
        static_cast<unsigned long long>(e.journal_records),
        e.gossip_rounds, e.records_repaired,
        static_cast<unsigned long long>(e.shards_reloaded),
        static_cast<unsigned long long>(e.disk_faults),
        e.state_degraded ? "true" : "false");
  }
  j += "],\n";
  j += "  \"workers\": [";
  for (std::size_t i = 0; i < m.worker_slots.size(); ++i) {
    const search::WorkerSlotMetrics& s = m.worker_slots[i];
    j += strformat(
        "%s{\"slot\": %zu, \"requests\": %zu, \"respawns\": %zu, "
        "\"crashes\": %zu, \"timeouts\": %zu, \"quarantines\": %zu}",
        i == 0 ? "" : ", ", i, s.requests, s.respawns, s.crashes, s.timeouts,
        s.quarantines);
  }
  j += "],\n";
  // Process-wide JIT lowering census (static uop counts across every
  // compile_stream call this run, including delta re-JITs): how many uops
  // lowered to inline native code vs the generic-exec fallback vs an
  // out-of-line helper call, per op family.
  {
    const vm::jit::LoweringStats lw = vm::jit::lowering_totals();
    j += "  \"jit_lowering\": {";
    bool first = true;
    for (int f = 0; f < vm::jit::LoweringStats::kNumFamilies; ++f) {
      j += strformat(
          "%s\"%s\": {\"native\": %llu, \"generic\": %llu, "
          "\"helper\": %llu}",
          first ? "" : ", ", vm::jit::lowering_family_name(f),
          static_cast<unsigned long long>(lw.native[f]),
          static_cast<unsigned long long>(lw.generic[f]),
          static_cast<unsigned long long>(lw.helper[f]));
      first = false;
    }
    j += strformat(
        ", \"fused_pairs\": %llu, \"reg_alloc_blocks\": %llu, "
        "\"reg_alloc_slots\": %llu},\n",
        static_cast<unsigned long long>(lw.fused_pairs),
        static_cast<unsigned long long>(lw.reg_alloc_blocks),
        static_cast<unsigned long long>(lw.reg_alloc_slots));
  }
  uint("configs_tested", res.configs_tested);
  boolean("refined", res.refined);
  j += strformat("  \"final_passed\": %s\n}\n",
                 res.final_passed ? "true" : "false");
  std::ofstream f(path);
  if (!f) return false;
  f << j;
  return f.good();
}

}  // namespace

int main(int argc, char** argv) {
  // The benchmark is positional and optional; the class letter may follow
  // it anywhere among the flags.
  std::string bench = "ep";
  int first_flag = 1;
  if (argc > 1 && argv[1][0] != '-') bench = argv[first_flag++];
  char cls = 'W';
  bool trace = false;
  bool refine = false;
  bool quiet = false;
  bool have_fault_seed = false;
  std::uint64_t fault_seed = 0;
  std::string out_path;
  std::string metrics_path;
  search::SearchOptions opts;
  opts.keep_log = true;

  const flags::Table value_flags = {
      {"--out", flags::text(&out_path)},
      {"--journal", flags::text(&opts.journal_path)},
      {"--metrics-json", flags::text(&metrics_path)},
      {"--threads", flags::integer(&opts.num_threads, 1)},
      {"--workers", flags::integer(&opts.num_workers, 1, 256)},
      {"--max-crashes", flags::integer(&opts.max_trial_crashes, 1, 64)},
      {"--worker-rlimit-as",
       flags::integer(&opts.worker_rlimit_as_mb, 64, 65536)},
      {"--deadline-ms", flags::integer(&opts.deadline_ms)},
      {"--retries", flags::integer(&opts.max_retries, 0, 16)},
      {"--heartbeat-ms", flags::integer(&opts.heartbeat_ms, 0, 60000)},
      {"--reconnect-max-ms", flags::integer(&opts.reconnect_max_ms, 1, 60000)},
      {"--gossip-ms", flags::integer(&opts.gossip_ms, 0, 60000)},
      {"--fault-seed",
       [&](const char* flag, const char* v) {
         have_fault_seed = true;
         return flags::integer(&fault_seed)(flag, v);
       }},
      {"--connect",
       [&](const char*, const char* v) {
         for (std::string_view part : split_fields(v, ",")) {
           net::Endpoint ep;
           if (!net::parse_endpoint(part, &ep)) {
             std::fprintf(stderr, "bad --connect endpoint '%.*s'\n",
                          static_cast<int>(part.size()), part.data());
             return false;
           }
           opts.endpoints.emplace_back(part);
         }
         return true;
       }},
      {"--engine",
       [&](const char*, const char* v) {
         const std::string name = v;
         if (name == "switch") opts.engine = vm::Engine::kSwitch;
         else if (name == "microop") opts.engine = vm::Engine::kMicroOp;
         else if (name == "jit") opts.engine = vm::Engine::kJit;
         else {
           std::fprintf(stderr, "bad --engine value '%s' "
                                "(expected switch, microop or jit)\n",
                        name.c_str());
           return false;
         }
         return true;
       }},
  };
  const auto switches = [&](const std::string& arg) {
    if (arg == "--trace") trace = true;
    else if (arg == "--refine") refine = true;
    else if (arg == "--quiet") quiet = true;
    else if (arg == "--no-resume") opts.resume = false;
    else if (arg == "--isolate") opts.isolate_trials = true;
    else if (arg == "--no-image-cache") opts.image_cache = false;
    else if (arg == "--shard-cache") opts.shard_cache = true;
    else if (arg == "--journal-deterministic") opts.journal_timings = false;
    else if (arg == "--adopt") opts.adopt_fleet = true;
    else if (arg.size() == 1) cls = arg[0];
    else return false;
    return true;
  };
  if (!flags::parse(argc, argv, first_flag, value_flags, switches)) return 2;
  opts.refine_composition = refine;
  if (opts.adopt_fleet && (opts.endpoints.empty() ||
                           opts.journal_path.empty())) {
    std::fprintf(stderr, "--adopt rebuilds the local journal from the "
                         "fleet, which needs --connect and --journal\n");
    return 2;
  }

  // The stock hard-fault campaign: process-destroying faults only, so the
  // search's verdicts (and final configuration) stay identical to a clean
  // run -- every crash is absorbed as a retried fault event.
  std::unique_ptr<fault::Injector> injector;
  if (have_fault_seed) {
    fault::Injector::Rates rates;
    rates.segv = 0.03;
    rates.kill = 0.02;
    rates.oom = 0.02;
    rates.trunc_result = 0.01;
    rates.corrupt_result = 0.01;
    injector = std::make_unique<fault::Injector>(fault_seed, rates);
    opts.fault_injector = injector.get();
    if (!opts.isolate_trials && opts.endpoints.empty()) {
      std::fprintf(stderr, "--fault-seed arms hard faults, which need "
                           "--isolate or --connect\n");
      return 2;
    }
  }
  if (!quiet) {
    // Progress/metrics lines (trials/sec, cache hit rate, ETA) flow through
    // the support logger at info level.
    opts.progress_log = true;
    log::set_level(log::Level::kInfo);
  }

  kernels::Workload w;
  try {
    w = kernels::make_named(bench, cls);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  // The handshake re-announces the workload by name; the daemons build the
  // identical image and verifier on their side.
  opts.remote_bench = bench;
  opts.remote_class = cls;

  std::printf("searching %s ...\n", w.name.c_str());
  const program::Image img = kernels::build_image(w);
  auto index = config::StructureIndex::build(program::lift(img));
  const auto verifier = kernels::make_verifier(w, img);

  Timer t;
  const search::SearchResult res =
      search::run_search(img, &index, *verifier, opts);

  if (trace) {
    std::printf("\n-- search trace --\n");
    for (const auto& rec : res.trace) {
      std::printf("  %-40s %4zu cand  %s%s%s%s\n", rec.unit.c_str(),
                  rec.candidates, rec.passed ? "PASS" : "fail",
                  rec.cached ? " (cached)" : "",
                  rec.failure.empty() ? "" : ": ",
                  rec.failure.c_str());
    }
  }

  std::printf("\n%s: %zu candidates, %zu configurations tested in %.1fs\n",
              w.name.c_str(), res.candidates, res.configs_tested,
              t.elapsed_seconds());
  const search::SearchMetrics& m = res.metrics;
  std::printf("trials: %zu live + %zu cached (%.1f%% cache hit), "
              "%.1f trials/s, %.2fs evaluating\n",
              m.trials_live, m.trials_cached, m.cache_hit_rate,
              m.trials_per_sec, m.eval_seconds);
  for (const auto& [level, secs] : m.eval_seconds_per_level) {
    std::printf("  level %-12s %.2fs\n", level.c_str(), secs);
  }
  std::printf("  stages: patch %.2fs, predecode %.2fs, run %.2fs, "
              "verify %.2fs\n",
              m.patch_seconds, m.predecode_seconds, m.run_seconds,
              m.verify_seconds);
  if (m.image_cache_hits + m.image_cache_misses > 0) {
    std::printf("incremental: %zu image hit(s) / %zu miss(es), %zu func "
                "segment(s) reused / %zu patched, ~%.3fs patch + %.3fs "
                "predecode saved\n",
                m.image_cache_hits, m.image_cache_misses, m.funcs_reused,
                m.funcs_patched, m.patch_saved_seconds,
                m.predecode_saved_seconds);
  }
  if (!m.failures_by_class.empty()) {
    std::printf("failed trials by class:\n");
    for (const auto& [cls_name, count] : m.failures_by_class) {
      std::printf("  %-16s %zu\n", cls_name.c_str(), count);
    }
  }
  if (m.retries > 0 || m.quarantined > 0) {
    std::printf("supervision: %zu retry attempt(s), %zu quarantined "
                "config(s)\n", m.retries, m.quarantined);
  }
  if (m.profile_degraded) {
    std::printf("note: profiling run failed; search used unweighted "
                "structure-order prioritisation\n");
  }
  if (opts.isolate_trials) {
    std::printf("isolation: %zu worker trial(s), %zu crash(es), "
                "%zu respawn(s), %zu timeout kill(s), %zu protocol "
                "error(s), %zu config(s) quarantined by the breaker\n",
                m.isolated_trials, m.worker_crashes, m.worker_respawns,
                m.worker_timeouts, m.protocol_errors, m.crash_quarantined);
    if (m.delta_requests + m.full_requests > 0) {
      std::printf("wire: %zu delta frame(s) (%zu B) + %zu full frame(s) "
                  "(%zu B)\n",
                  m.delta_requests, m.delta_bytes, m.full_requests,
                  m.full_bytes);
    }
    for (std::size_t i = 0; i < m.worker_slots.size(); ++i) {
      const search::WorkerSlotMetrics& s = m.worker_slots[i];
      std::printf("  worker %zu: %zu request(s), %zu respawn(s), "
                  "%zu crash(es), %zu timeout(s), %zu quarantine(s)\n",
                  i, s.requests, s.respawns, s.crashes, s.timeouts,
                  s.quarantines);
    }
    if (!m.crashes_by_signal.empty()) {
      std::printf("worker crash census:\n");
      for (const auto& [sig, count] : m.crashes_by_signal) {
        std::printf("  %-12s %zu\n", sig.c_str(), count);
      }
    }
    if (m.isolation_degraded) {
      std::printf("note: isolation unavailable; trials ran in-process\n");
    }
    if (m.crash_storm) {
      std::printf("ERROR: worker crash storm; search results incomplete\n");
    }
  }
  if (!opts.endpoints.empty()) {
    std::printf("distributed: %zu remote trial(s), %zu shard-cache hit(s), "
                "%zu failover(s), %zu reconnect(s), %zu endpoint(s) lost, "
                "%zu unserved\n",
                m.remote_trials, m.shard_cache_hits, m.endpoint_failovers,
                m.endpoint_reconnects, m.endpoints_lost, m.remote_unserved);
    if (m.adopted_records > 0) {
      std::printf("failover: adopted %llu journal record(s) from the "
                  "fleet\n",
                  static_cast<unsigned long long>(m.adopted_records));
    }
    if (m.missed_beats + m.lease_expiries + m.late_results +
            m.redispatched + m.breaker_trips > 0) {
      std::printf("liveness: %zu missed beat(s), %zu lease expiry(ies), "
                  "%zu late result(s) discarded, %zu trial(s) "
                  "re-dispatched, %zu breaker trip(s)\n",
                  m.missed_beats, m.lease_expiries, m.late_results,
                  m.redispatched, m.breaker_trips);
    }
    if (m.gossip_rounds + m.records_repaired + m.shards_reloaded +
            m.disk_faults + m.state_degraded > 0) {
      std::printf("durability: %zu gossip round(s), %zu record(s) "
                  "repaired, %zu shard(s) reloaded, %zu disk fault(s), "
                  "%zu endpoint(s) degraded to in-memory state\n",
                  m.gossip_rounds, m.records_repaired, m.shards_reloaded,
                  m.disk_faults, m.state_degraded);
    }
    for (const search::EndpointMetrics& em : m.endpoints_used) {
      std::printf("  endpoint %s: %u worker(s), %zu trial(s), %zu cache "
                  "hit(s), %zu failover(s), %.2fs busy%s%s\n",
                  em.address.c_str(), em.workers, em.trials, em.cache_hits,
                  em.failovers, 1e-9 * static_cast<double>(em.busy_ns),
                  em.lost ? " (lost)" : "",
                  em.state_degraded ? " (state degraded)" : "");
      if (em.pings > 0) {
        std::printf("    heartbeat: %zu ping(s) / %zu pong(s), rtt p50 "
                    "%llu us, p95 %llu us, max %llu us\n",
                    em.pings, em.pongs,
                    static_cast<unsigned long long>(em.rtt_p50_us),
                    static_cast<unsigned long long>(em.rtt_p95_us),
                    static_cast<unsigned long long>(em.rtt_max_us));
      }
      if (em.gossip_rounds > 0) {
        std::printf("    gossip: %zu round(s), %zu record(s) re-streamed\n",
                    em.gossip_rounds, em.records_repaired);
      }
    }
    if (m.remote_degraded) {
      std::printf("note: no endpoint usable; the search ran locally\n");
    }
  }
  if (m.jit_downgraded > 0) {
    std::printf("note: jit engine unavailable for %zu evaluator(s); those "
                "trials ran on the micro-op engine (results identical)\n",
                m.jit_downgraded);
  }
  std::printf("final configuration: %.1f%% static / %.1f%% dynamic "
              "replacement, composition %s\n",
              res.stats.static_pct, res.stats.dynamic_pct,
              res.final_passed ? "PASSES" : "FAILS");
  if (res.refined) {
    std::printf("refined composition: %.1f%% static / %.1f%% dynamic, "
                "verified passing\n",
                res.refined_stats.static_pct, res.refined_stats.dynamic_pct);
  }

  const config::PrecisionConfig& best =
      (res.refined && !res.final_passed) ? res.refined_config
                                         : res.final_config;
  const std::string text = config::to_text(index, best);
  if (!out_path.empty()) {
    std::ofstream f(out_path);
    f << text;
    std::printf("configuration written to %s\n", out_path.c_str());
  } else {
    std::printf("\n%s", text.c_str());
  }
  if (!metrics_path.empty()) {
    if (!write_metrics_json(metrics_path, res)) {
      std::fprintf(stderr, "cannot write metrics JSON to %s\n",
                   metrics_path.c_str());
      return 3;
    }
    std::printf("metrics written to %s\n", metrics_path.c_str());
  }

  // Distinct exit codes so scripts and CI can tell "the program resists
  // mixed precision" (1, a clean scientific result) from "the harness
  // itself broke" (3).
  const auto internal_it = m.failures_by_class.find("internal-error");
  if (m.crash_storm ||
      (internal_it != m.failures_by_class.end() && internal_it->second > 0)) {
    return 3;
  }
  const bool composition_ok =
      res.final_passed || (res.refined && res.refined_stats.replaced_static >
                                             0);
  return composition_ok ? 0 : 1;
}
