#include "search/scheduler.hpp"

#include <algorithm>
#include <chrono>

#include "runner/wire.hpp"
#include "support/journal.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"
#include "vm/machine.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define FPMIX_NET_POSIX 1
#include <poll.h>
#else
#define FPMIX_NET_POSIX 0
#endif

namespace fpmix::search {

namespace {

/// Consecutive heartbeats an endpoint may leave unanswered before it is
/// declared dead: its session closes, its trial leases expire, and its
/// in-flight trials re-dispatch to surviving shards.
constexpr std::uint32_t kMissedBeatLimit = 3;

std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void sleep_ms(int ms) {
#if FPMIX_NET_POSIX
  ::poll(nullptr, 0, ms);
#else
  (void)ms;
#endif
}

}  // namespace

Scheduler::Scheduler(const SchedulerOptions& opts) : opts_(opts) {
  shards_.reserve(opts_.endpoints.size());
  for (std::size_t i = 0; i < opts_.endpoints.size(); ++i) {
    Shard s;
    s.ep = opts_.endpoints[i];
    s.m.address = s.ep.str();
    // Per-shard backoff seed: deterministic, distinct per shard so a fleet
    // that drops together does not redial in lockstep.
    s.backoff = Backoff(opts_.reconnect_backoff, 0x73686172ull + i);
    shards_.push_back(std::move(s));
  }
}

Scheduler::~Scheduler() = default;

bool Scheduler::try_connect(Shard* s) {
  std::string error;
  auto client = net::EndpointClient::connect(
      s->ep, opts_.hello, opts_.connect_timeout_ms, opts_.hello_timeout_ms,
      &error);
  if (client == nullptr) {
    log::warnf("scheduler: endpoint %s unavailable: %s",
               s->m.address.c_str(), error.c_str());
    note_failure(s);
    return false;
  }
  const net::HelloAckMsg& ack = client->ack();
  if (!opts_.verifier_fp.empty() && ack.verifier_fp != opts_.verifier_fp) {
    // The endpoint evaluates a different reference computation; its
    // verdicts would be garbage. Never retry.
    log::warnf("scheduler: endpoint %s verifier fingerprint mismatch "
               "(local %s, remote %s); endpoint dropped",
               s->m.address.c_str(), opts_.verifier_fp.c_str(),
               ack.verifier_fp.c_str());
    s->lost = true;
    s->m.lost = true;
    return false;
  }
  if (ack.engine != opts_.hello.engine) {
    // Engines are bit-identical, so only one mismatch is sanctioned: jit
    // requested of a host that cannot run it answers micro-op. Anything
    // else is a protocol violation; never trust the endpoint.
    const bool sanctioned_downgrade =
        opts_.hello.engine == static_cast<std::uint8_t>(vm::Engine::kJit) &&
        ack.engine == static_cast<std::uint8_t>(vm::Engine::kMicroOp);
    if (!sanctioned_downgrade) {
      log::warnf("scheduler: endpoint %s answered engine %u to a request "
                 "for engine %u; endpoint dropped",
                 s->m.address.c_str(), static_cast<unsigned>(ack.engine),
                 static_cast<unsigned>(opts_.hello.engine));
      s->lost = true;
      s->m.lost = true;
      return false;
    }
    if (!s->m.jit_downgraded) {
      log::warnf("scheduler: endpoint %s cannot run the jit engine; its "
                 "trials run on the micro-op engine (results identical)",
                 s->m.address.c_str());
      s->m.jit_downgraded = true;
    }
  }
  if (s->ever_connected) ++s->m.reconnects;
  s->ever_connected = true;
  s->consecutive_failures = 0;
  s->backoff.reset();
  s->m.workers = ack.workers;
  s->m.journal_records = ack.shard_records;
  s->m.shards_reloaded = ack.shards_reloaded;
  note_durability(s, ack.state_degraded, ack.disk_faults);
  s->digest_inflight = false;
  s->last_gossip_ms = 0;
  s->client = std::move(client);
  return true;
}

void Scheduler::note_durability(Shard* s, std::uint8_t state_degraded,
                                std::uint64_t disk_faults) {
  if (state_degraded != 0 && !s->m.state_degraded) {
    log::warnf("scheduler: endpoint %s reports degraded state persistence "
               "(in-memory shards only)",
               s->m.address.c_str());
  }
  s->m.state_degraded = state_degraded != 0;
  s->m.disk_faults = disk_faults;
}

void Scheduler::match_pongs(Shard* s) {
  // A pong answers its nonce and every earlier one (the link is FIFO), so
  // one echo clears a whole stall's backlog. Every pong also refreshes the
  // endpoint's durability census, which can move after the handshake.
  for (const net::PongMsg& pong : s->client->take_pongs()) {
    note_durability(s, pong.state_degraded, pong.disk_faults);
    auto pit = s->pending_pings.find(pong.nonce);
    if (pit == s->pending_pings.end()) continue;
    s->rtt_us.push_back((now_ns() - pit->second) / 1000);
    s->pending_pings.erase(s->pending_pings.begin(), std::next(pit));
    s->unanswered = 0;
    ++s->m.pongs;
  }
}

std::size_t Scheduler::connect() {
  std::size_t live = 0;
  for (Shard& s : shards_) {
    if (try_connect(&s)) ++live;
  }
  return live;
}

std::size_t Scheduler::capacity() const {
  std::size_t total = 0;
  for (const Shard& s : shards_) {
    if (s.client != nullptr) total += s.m.workers;
  }
  return total;
}

bool Scheduler::any_live() const {
  for (const Shard& s : shards_) {
    if (s.client != nullptr) return true;
  }
  return false;
}

void Scheduler::note_failure(Shard* s) {
  // The closed->open transition of the per-endpoint circuit breaker: the
  // first failure of a streak opens it (dispatch stops, the jittered
  // backoff times the open interval, reconnect_due's probe is the
  // half-open test). Later failures of the same streak re-open it without
  // counting a new trip.
  if (s->consecutive_failures == 0) ++s->m.breaker_trips;
  if (++s->consecutive_failures >= opts_.max_endpoint_failures) {
    s->lost = true;
    s->m.lost = true;
    log::warnf("scheduler: endpoint %s lost after %u failures",
               s->m.address.c_str(), s->consecutive_failures);
  } else {
    s->retry_at_ms = now_ms() + s->backoff.next_ms();
  }
}

void Scheduler::shard_down(Shard* s) {
  ++s->m.disconnects;
  if (s->client != nullptr && !s->client->last_error().empty()) {
    log::warnf("scheduler: endpoint %s dropped: %s", s->m.address.c_str(),
               s->client->last_error().c_str());
  }
  s->client.reset();
  s->pending_pings.clear();
  s->unanswered = 0;
  s->last_ping_ms = 0;
  s->digest_inflight = false;
  s->last_gossip_ms = 0;
  note_failure(s);
}

void Scheduler::reconnect_due() {
  const std::uint64_t now = now_ms();
  for (Shard& s : shards_) {
    if (s.client != nullptr || s.lost || now < s.retry_at_ms) continue;
    try_connect(&s);
  }
}

Scheduler::Shard* Scheduler::least_loaded() {
  Shard* best = nullptr;
  double best_load = 0.0;
  for (Shard& s : shards_) {
    if (s.client == nullptr) continue;
    const double load =
        static_cast<double>(s.inflight.size()) /
        static_cast<double>(std::max<std::uint32_t>(1, s.m.workers));
    if (best == nullptr || load < best_load) {
      best = &s;
      best_load = load;
    }
  }
  return best;
}

std::vector<runner::TrialOutcome> Scheduler::run_batch(
    const std::vector<runner::TrialJob>& jobs) {
  std::vector<runner::TrialOutcome> outcomes(jobs.size());
  struct JobState {
    bool done = false;
    bool in_flight = false;
    std::uint32_t deaths = 0;   // endpoints that died holding this trial
    std::uint64_t lease = 0;    // ticket of the current (only) live dispatch
  };
  std::vector<JobState> state(jobs.size());
  std::size_t remaining = jobs.size();

  // Reroutes or quarantines a downed shard's in-flight trials, then runs
  // the endpoint failure accounting. Voids every lease the shard held: a
  // result arriving later for one of these tickets is late, and is
  // discarded, never double-voted.
  const auto fail_shard = [&](Shard* s) {
    for (const auto& [ticket, i] : s->inflight) {
      if (state[i].done) continue;
      state[i].in_flight = false;
      state[i].lease = 0;
      if (++state[i].deaths >= opts_.max_trial_crashes) {
        runner::TrialOutcome& o = outcomes[i];
        o.result.passed = false;
        o.result.failure_class = verify::FailureClass::kCrash;
        o.result.failure = strformat(
            "quarantined after %u endpoint failures mid-trial",
            state[i].deaths);
        o.worker_deaths = state[i].deaths;
        o.quarantined = true;
        o.settled = true;
        o.served = true;
        state[i].done = true;
        --remaining;
      } else {
        ++s->m.failovers;
      }
    }
    s->inflight.clear();
    shard_down(s);
  };

  // Takes every verdict the shard has delivered and votes it once. False
  // when the session is over (or a verdict was damaged): the caller then
  // fails the shard. Every failure path drains first, so a verdict that
  // arrived before the endpoint died is counted, never charged as a crash.
  const auto collect = [&](Shard* s) {
    std::vector<net::ResultMsg> results;
    const bool ok = s->client->drain(&results);
    match_pongs(s);
    bool damaged = false;
    for (net::ResultMsg& r : results) {
      auto it = s->inflight.find(r.ticket);
      if (it == s->inflight.end()) {
        // A ticket this shard no longer holds: a duplicated frame, or a
        // verdict that outlived its lease. Never double-voted.
        ++s->m.late_results;
        continue;
      }
      const std::size_t i = it->second;
      s->inflight.erase(it);
      if (state[i].done || state[i].lease != r.ticket) {
        ++s->m.late_results;
        continue;
      }
      verify::EvalResult er;
      if (!runner::decode_result(r.wire_result, &er)) {
        // The frame CRC passed but the payload is semantically bad:
        // treat it like transport damage and reroute the trial.
        state[i].in_flight = false;
        damaged = true;
        continue;
      }
      runner::TrialOutcome& o = outcomes[i];
      o.result = std::move(er);
      o.wall_ns = r.wall_ns;
      o.worker_deaths = r.worker_deaths;
      o.quarantined = (r.flags & net::kResultQuarantined) != 0;
      o.settled = o.quarantined || o.result.failure_class ==
                                       verify::FailureClass::kInternalError;
      o.served = true;
      state[i].done = true;
      state[i].in_flight = false;
      --remaining;
      ++s->m.trials;
      s->m.busy_ns += r.wall_ns;
      if ((r.flags & net::kResultCacheHit) != 0) ++s->m.cache_hits;
    }
    return ok && !damaged;
  };
  // A send to the shard failed: count what it delivered, then fail it.
  const auto drain_and_fail = [&](Shard* s) {
    collect(s);
    fail_shard(s);
  };

  // Heartbeat pass: ping every live shard whose period elapsed. A shard
  // with the previous ping still unanswered when the next comes due has
  // missed a beat; missing kMissedBeatLimit in a row is death -- slow is
  // tolerated (RTT just grows), silent is not.
  const auto heartbeat = [&]() {
    if (opts_.heartbeat_ms == 0) return;
    const std::uint64_t now = now_ms();
    for (Shard& s : shards_) {
      if (s.client == nullptr) continue;
      if (s.last_ping_ms != 0 && now - s.last_ping_ms < opts_.heartbeat_ms) {
        continue;
      }
      if (s.last_ping_ms != 0 && !s.pending_pings.empty()) {
        ++s.unanswered;
        ++s.m.missed_beats;
        if (s.unanswered >= kMissedBeatLimit) {
          log::warnf("scheduler: endpoint %s missed %u heartbeats; "
                     "declaring dead (%zu leases expire)",
                     s.m.address.c_str(), s.unanswered, s.inflight.size());
          s.m.lease_expiries += s.inflight.size();
          fail_shard(&s);
          continue;
        }
      }
      net::PingMsg ping;
      ping.nonce = s.next_nonce++;
      ping.t_send_ns = now_ns();
      if (!s.client->ping(ping)) {
        drain_and_fail(&s);
        continue;
      }
      s.pending_pings.emplace(ping.nonce, ping.t_send_ns);
      s.last_ping_ms = now;
      ++s.m.pings;
    }
  };

  // Gossip pass: ask every live shard whose period elapsed for a shard
  // digest (one outstanding per shard; the ack returns through drain and
  // heal_from_digest re-streams whatever the comparison shows missing).
  // A reconnected endpoint is back in the gossip rotation immediately, so
  // a daemon restart heals within one period instead of riding the next
  // adoption.
  const auto gossip = [&]() {
    if (opts_.gossip_ms == 0 || streamed_.empty()) return;
    const std::uint64_t now = now_ms();
    for (Shard& s : shards_) {
      if (s.client == nullptr || s.digest_inflight) continue;
      if (s.last_gossip_ms != 0 && now - s.last_gossip_ms < opts_.gossip_ms) {
        continue;
      }
      if (!s.client->request_digest()) {
        drain_and_fail(&s);
        continue;
      }
      s.digest_inflight = true;
      s.last_gossip_ms = now;
    }
  };

  while (remaining > 0) {
    reconnect_due();
    heartbeat();
    gossip();
    if (!any_live()) {
      // Anything still waiting on a backoff timer? Sleep toward the
      // earliest redial; otherwise the fleet is gone for good.
      std::uint64_t earliest = 0;
      for (const Shard& s : shards_) {
        if (s.lost || s.client != nullptr) continue;
        if (earliest == 0 || s.retry_at_ms < earliest) {
          earliest = s.retry_at_ms;
        }
      }
      if (earliest == 0) {
        for (std::size_t i = 0; i < jobs.size(); ++i) {
          if (state[i].done) continue;
          outcomes[i].served = false;
          state[i].done = true;
          --remaining;
        }
        break;
      }
      const std::uint64_t now = now_ms();
      sleep_ms(earliest > now
                   ? static_cast<int>(std::min<std::uint64_t>(
                         earliest - now, 100))
                   : 1);
      continue;
    }

    // ---- Dispatch every unassigned trial to the least-loaded shard. ----
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (state[i].done || state[i].in_flight) continue;
      Shard* s = least_loaded();
      if (s == nullptr) break;
      net::TrialMsg m;
      m.ticket = next_ticket_++;
      m.key = jobs[i].key;
      m.config_key = jobs[i].config->canonical_key();
      if (!s->client->submit(m)) {
        drain_and_fail(s);
        break;  // re-plan against the surviving fleet
      }
      s->inflight.emplace(m.ticket, i);
      state[i].in_flight = true;
      state[i].lease = m.ticket;
      if (state[i].deaths > 0) ++s->m.redispatched;
    }

#if FPMIX_NET_POSIX
    // ---- Wait for traffic (bounded, to keep redial timers honest). ----
    // Every live shard is in the set, idle ones included: pongs (and the
    // errors of a dying session) must be seen even between dispatches.
    std::vector<pollfd> fds;
    int poll_ms = 200;
    if (opts_.heartbeat_ms > 0 &&
        opts_.heartbeat_ms < static_cast<std::uint64_t>(poll_ms)) {
      poll_ms = static_cast<int>(opts_.heartbeat_ms);
    }
    for (Shard& s : shards_) {
      if (s.client != nullptr) {
        fds.push_back(pollfd{s.client->fd(), POLLIN, 0});
      }
    }
    if (!fds.empty()) {
      ::poll(fds.data(), static_cast<nfds_t>(fds.size()), poll_ms);
    }
#endif

    // ---- Drain results from every live shard. ----
    for (Shard& s : shards_) {
      if (s.client == nullptr) continue;
      if (!collect(&s)) {
        fail_shard(&s);
        continue;
      }
      // Gossip digests ride the same stream; heal after the verdicts so a
      // repair send failure cannot orphan results already decoded.
      for (const net::ShardDigestMsg& d : s.client->take_digests()) {
        s.digest_inflight = false;
        if (!heal_from_digest(&s, d)) {
          fail_shard(&s);
          break;
        }
      }
    }
  }
  return outcomes;
}

bool Scheduler::heal_from_digest(Shard* s, const net::ShardDigestMsg& d) {
  ++s->m.gossip_rounds;
  if (streamed_.empty()) return true;
  std::uint64_t local_records = 0;
  const std::uint64_t local_max = streamed_.rbegin()->first;
  const std::uint32_t local_crc =
      net::seq_set_crc(streamed_, local_max, &local_records);
  if (d.records == local_records && d.max_seq == local_max &&
      d.seq_crc == local_crc) {
    return true;  // replicas agree
  }
  // The common divergence is a pure tail gap (endpoint restarted, joined
  // late, or lost its unfsynced tail): its whole digest then equals our
  // prefix digest through its max_seq, and only (max_seq, local_max] needs
  // to move. Anything else -- interior holes, foreign seqs -- falls back to
  // re-streaming the full set; the endpoint dedupes by seq, so the
  // fallback is idempotent, just not minimal.
  std::uint64_t from_seq = 1;
  if (d.records > 0 && d.max_seq < local_max) {
    std::uint64_t prefix_records = 0;
    const std::uint32_t prefix_crc =
        net::seq_set_crc(streamed_, d.max_seq, &prefix_records);
    if (prefix_records == d.records && prefix_crc == d.seq_crc) {
      from_seq = d.max_seq + 1;
    }
  }
  std::uint64_t repaired = 0;
  net::JournalAppendMsg m;
  for (const auto& [seq, line] : streamed_) {
    if (seq < from_seq) continue;
    m.line = line;
    if (!s->client->journal_append(m)) return false;
    ++repaired;
  }
  s->m.records_repaired += repaired;
  if (repaired > 0) {
    log::infof("scheduler: gossip re-streamed %llu records to %s "
               "(endpoint had %llu/%llu)",
               static_cast<unsigned long long>(repaired),
               s->m.address.c_str(),
               static_cast<unsigned long long>(d.records),
               static_cast<unsigned long long>(local_records));
  }
  return true;
}

bool Scheduler::await_reply(Shard* s, std::uint64_t deadline_ms,
                            const std::function<bool()>& answered) {
  while (true) {
    std::vector<net::ResultMsg> late;
    const bool ok = s->client->drain(&late);
    s->m.late_results += late.size();
    if (answered() || s->client == nullptr) return true;
    if (!ok) {
      shard_down(s);
      return true;
    }
    const std::uint64_t now = now_ms();
    if (now >= deadline_ms) return false;
#if FPMIX_NET_POSIX
    pollfd pfd{s->client->fd(), POLLIN, 0};
    ::poll(&pfd, 1, static_cast<int>(deadline_ms - now));
#endif
  }
}

std::size_t Scheduler::gossip_now(int timeout_ms) {
  reconnect_due();
  std::size_t total = 0;
  for (Shard& s : shards_) {
    if (s.client == nullptr) continue;
    if (!s.client->request_digest()) {
      shard_down(&s);
      continue;
    }
    const std::uint64_t deadline =
        now_ms() + static_cast<std::uint64_t>(timeout_ms > 0 ? timeout_ms
                                                             : 5000);
    bool healed = true;
    const auto take_digest = [&]() {
      bool got = false;
      for (const net::ShardDigestMsg& d : s.client->take_digests()) {
        got = true;
        const std::uint64_t before = s.m.records_repaired;
        healed = heal_from_digest(&s, d);
        if (!healed) break;
        total += s.m.records_repaired - before;
      }
      return got;
    };
    if (!await_reply(&s, deadline, take_digest)) {
      log::warnf("scheduler: gossip digest from %s timed out",
                 s.m.address.c_str());
      shard_down(&s);
    } else if (!healed) {
      shard_down(&s);
    }
  }
  return total;
}

void Scheduler::ping_now(int timeout_ms) {
  const std::uint64_t deadline =
      now_ms() + static_cast<std::uint64_t>(std::max(timeout_ms, 0));
  for (Shard& s : shards_) {
    if (s.client == nullptr) continue;
    net::PingMsg ping;
    ping.nonce = s.next_nonce++;
    ping.t_send_ns = now_ns();
    if (!s.client->ping(ping)) {
      shard_down(&s);
      continue;
    }
    s.pending_pings.emplace(ping.nonce, ping.t_send_ns);
    ++s.m.pings;
    // A pong that misses the deadline leaves the census as it was.
    await_reply(&s, deadline, [&]() {
      match_pongs(&s);
      return s.pending_pings.count(ping.nonce) == 0;
    });
  }
}

void Scheduler::broadcast_insert(const std::string& key, bool passed,
                                 std::uint8_t failure_class,
                                 const std::string& failure) {
  if (opts_.hello.shard_cache == 0) return;
  net::CacheInsertMsg m;
  m.key = key;
  m.passed = passed ? 1 : 0;
  m.failure_class = failure_class;
  m.failure = failure;
  for (Shard& s : shards_) {
    if (s.client == nullptr) continue;
    if (!s.client->insert(m)) shard_down(&s);
  }
}

void Scheduler::stream_journal(const std::string& line) {
  // Retain every committed line locally: this set is what gossip digests
  // are compared against, and what heals a diverged endpoint.
  std::uint64_t seq = 0;
  if (check_seal(line) == SealCheck::kOk && sealed_seq(line, &seq)) {
    streamed_.emplace(seq, line);
  }
  net::JournalAppendMsg m;
  m.line = line;
  for (Shard& s : shards_) {
    if (s.client == nullptr) continue;
    if (!s.client->journal_append(m)) shard_down(&s);
  }
}

std::size_t Scheduler::fetch_fleet_journal(std::vector<std::string>* lines) {
  std::size_t served = 0;
  for (Shard& s : shards_) {
    if (s.client == nullptr) continue;
    std::vector<std::string> got;
    std::string error;
    if (!s.client->fetch_journal(&got, /*timeout_ms=*/30000, &error)) {
      log::warnf("scheduler: journal fetch from %s failed: %s",
                 s.m.address.c_str(), error.c_str());
      shard_down(&s);
      continue;
    }
    ++served;
    for (std::string& l : got) lines->push_back(std::move(l));
  }
  return served;
}

std::vector<EndpointMetrics> Scheduler::endpoint_metrics() const {
  std::vector<EndpointMetrics> out;
  out.reserve(shards_.size());
  for (const Shard& s : shards_) {
    EndpointMetrics m = s.m;
    if (!s.rtt_us.empty()) {
      std::vector<std::uint64_t> rtt = s.rtt_us;
      std::sort(rtt.begin(), rtt.end());
      m.rtt_p50_us = rtt[rtt.size() / 2];
      m.rtt_p95_us = rtt[(rtt.size() * 95) / 100 >= rtt.size()
                             ? rtt.size() - 1
                             : (rtt.size() * 95) / 100];
      m.rtt_max_us = rtt.back();
    }
    out.push_back(std::move(m));
  }
  return out;
}

}  // namespace fpmix::search
