#include "search/metrics_json.hpp"

#include "support/journal.hpp"  // json_escape
#include "support/strings.hpp"
#include "vm/jit/jit.hpp"

namespace fpmix::search {

std::string metrics_json(const SearchResult& res) {
  const SearchMetrics& m = res.metrics;
  std::string j = "{\n";
  const auto num = [&j](const char* k, double v) {
    j += strformat("  \"%s\": %.6f,\n", k, v);
  };
  const auto secs = [&num](const char* k, std::uint64_t ns) {
    num(k, 1e-9 * static_cast<double>(ns));
  };
  const auto uint = [&j](const char* k, std::uint64_t v) {
    j += strformat("  \"%s\": %llu,\n", k,
                   static_cast<unsigned long long>(v));
  };
  const auto boolean = [&j](const char* k, bool v) {
    j += strformat("  \"%s\": %s,\n", k, v ? "true" : "false");
  };
  const auto census = [&j](const char* k, const auto& counts) {
    j += strformat("  \"%s\": {", k);
    bool first = true;
    for (const auto& [name, n] : counts) {
      j += strformat("%s\"%s\": %llu", first ? "" : ", ",
                     json_escape(name).c_str(),
                     static_cast<unsigned long long>(n));
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
  const verify::TrialCost& c = m.cost;
  secs("patch_seconds", c.patch_ns);
  secs("predecode_seconds", c.predecode_ns);
  secs("run_seconds", c.run_ns);
  secs("verify_seconds", c.verify_ns);
  secs("patch_saved_seconds", c.patch_saved_ns);
  secs("predecode_saved_seconds", c.predecode_saved_ns);
  uint("funcs_reused", c.funcs_reused);
  uint("funcs_patched", c.funcs_patched);
  census("failures_by_class", m.failures_by_class);
  uint("retries", m.retries);
  uint("quarantined", m.quarantined);
  boolean("profile_degraded", m.profile_degraded);
  uint("jit_downgraded", m.jit_downgraded);
  const runner::PoolStats& p = m.pool;
  uint("isolated_trials", p.isolated_trials);
  uint("worker_crashes", p.worker_crashes);
  uint("worker_respawns", p.workers_respawned);
  uint("worker_timeouts", p.timeouts_killed);
  uint("protocol_errors", p.protocol_errors);
  uint("crash_quarantined", p.quarantined_configs);
  census("crashes_by_signal", p.crashes_by_signal);
  boolean("crash_storm", p.crash_storm);
  boolean("isolation_degraded", m.isolation_degraded);
  uint("full_requests", p.full_requests);
  uint("full_bytes", p.full_bytes);
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
  uint("adopted_records", m.adopted_records);
  uint("gossip_rounds", m.gossip_rounds);
  uint("records_repaired", m.records_repaired);
  uint("shards_reloaded", m.shards_reloaded);
  uint("disk_faults", m.disk_faults);
  uint("state_degraded", m.state_degraded);
  j += "  \"endpoints\": [";
  for (std::size_t i = 0; i < m.endpoints_used.size(); ++i) {
    const EndpointMetrics& e = m.endpoints_used[i];
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
        i == 0 ? "" : ", ", json_escape(e.address).c_str(), e.workers,
        e.trials, e.cache_hits, e.failovers, e.reconnects, e.disconnects,
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
  for (std::size_t i = 0; i < p.slots.size(); ++i) {
    const runner::SlotStats& s = p.slots[i];
    j += strformat(
        "%s{\"slot\": %zu, \"requests\": %llu, \"respawns\": %llu, "
        "\"crashes\": %llu, \"timeouts\": %llu, \"quarantines\": %llu}",
        i == 0 ? "" : ", ", i, static_cast<unsigned long long>(s.requests),
        static_cast<unsigned long long>(s.respawns),
        static_cast<unsigned long long>(s.crashes),
        static_cast<unsigned long long>(s.timeouts),
        static_cast<unsigned long long>(s.quarantines));
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
  return j;
}

}  // namespace fpmix::search
