// runner_serve: the remote half of the distributed search service.
//
// Starts a daemon that fronts a local sandboxed WorkerPool and serves trial
// evaluations to nas_search --connect clients over TCP (the same CRC-framed
// wire protocol the pool speaks to its forked workers). One daemon can hold
// sessions from many schedulers at once; sessions that announce the same
// workload and evaluation semantics share one backend (one built image, one
// warm TrialBuilder, one worker fleet) and, with --shard-cache on the
// client, one fleet-wide trial cache.
//
// Usage:  runner_serve [--host H] [--port N] [--port-file FILE]
//                      [--workers N] [--exit-after N] [--quiet]
//                      [--max-sessions N] [--idle-timeout-ms N]
//                      [--state-dir DIR] [--state-fsync]
//                      [--disk-fault-seed N] [--disk-fault-rate P]
//                      [--disk-unreadable-rate P]
//
// --port 0 (the default) binds a kernel-assigned port; --port-file writes
// the bound "host:port" to FILE so scripts and CI can discover it without
// racing. --exit-after N stops the daemon after N trial results -- the
// chaos hook the endpoint-death tests and CI smoke use to simulate a
// runner dying mid-search.
//
// --state-dir DIR persists every retained journal shard and verdict cache
// under DIR as CRC-sealed JSONL and reloads them at startup, so a daemon
// that is SIGKILLed and restarted on the same directory resumes with its
// replicas intact (--state-fsync makes each append power-loss durable). A
// DIR that exists but is not a directory is a usage error (exit 2, before
// binding). Storage that fails at run time -- a DIR that cannot be created
// or written, ENOSPC, I/O errors -- degrades the daemon to the pre-v4
// in-memory behaviour with a one-time warning and counts as a disk fault;
// it never stops serving. --disk-fault-* turn on the seeded deterministic
// disk-fault campaign (short writes, torn records, fsync failures, ENOSPC,
// unreadable files on reload) for durability testing.
//
// Each session's scheduler streams its CRC-sealed journal records here;
// the daemon retains a per-search replicated shard that outlives the
// session, so a fresh scheduler (nas_search --adopt) can rebuild the
// trial history from the fleet after its host dies. --max-sessions caps
// concurrent sessions (default 64; excess connects are rejected with an
// error frame) and --idle-timeout-ms reaps sessions with no traffic for
// that long (default 600000, 0 disables); a reaped session logs its
// search fingerprint and retained-shard size, and the shard survives.
//
// Exit codes: 0 clean shutdown (signal or --exit-after); 1 cannot resolve
// or bind the address, or cannot write the port file; 2 usage error.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "config/structure.hpp"
#include "kernels/workload.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "program/program.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/flags.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"

using namespace fpmix;

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

/// Maps a session's announced benchmark to a built workload. Every NAS
/// analogue nas_search can search is servable; an unknown benchmark or
/// class rejects the session, never the daemon.
std::unique_ptr<net::ServedWorkload> build_workload(const std::string& bench,
                                                    char cls,
                                                    std::string* error) {
  kernels::Workload w;
  try {
    w = kernels::make_named(bench, cls);
  } catch (const Error& e) {
    if (error != nullptr) *error = e.what();
    return nullptr;
  }
  auto out = std::make_unique<net::ServedWorkload>();
  out->image = kernels::build_image(w);
  out->index = config::StructureIndex::build(program::lift(out->image));
  out->verifier = kernels::make_verifier(w, out->image);
  return out;
}

/// A probability in [0, 1]. Strict: the whole string must consume.
flags::Parser probability(double* out) {
  return [out](const char* flag, const char* value) {
    char* end = nullptr;
    const double v = std::strtod(value, &end);
    if (end == value || *end != '\0' || v < 0.0 || v > 1.0) {
      std::fprintf(stderr, "bad %s value '%s' (expected 0..1)\n", flag, value);
      return false;
    }
    *out = v;
    return true;
  };
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint64_t port = 0;
  std::string port_file;
  net::ServerOptions sopts;
  bool quiet = false;
  bool have_disk_seed = false;
  std::uint64_t disk_seed = 0;
  double disk_fault_rate = 0.02;
  double disk_unreadable_rate = 0.0;
  const flags::Table value_flags = {
      {"--host", flags::text(&host)},
      {"--port", flags::integer(&port, 0, 65535)},
      {"--port-file", flags::text(&port_file)},
      {"--workers", flags::integer(&sopts.workers, 1, 256)},
      {"--exit-after", flags::integer(&sopts.exit_after_results)},
      {"--max-sessions", flags::integer(&sopts.max_sessions, 1, 4096)},
      {"--idle-timeout-ms", flags::integer(&sopts.idle_timeout_ms)},
      {"--state-dir", flags::text(&sopts.state_dir)},
      {"--disk-fault-seed",
       [&](const char* flag, const char* v) {
         have_disk_seed = true;
         return flags::integer(&disk_seed)(flag, v);
       }},
      {"--disk-fault-rate", probability(&disk_fault_rate)},
      {"--disk-unreadable-rate", probability(&disk_unreadable_rate)},
  };
  const auto switches = [&](const std::string& arg) {
    if (arg == "--quiet") quiet = true;
    else if (arg == "--state-fsync") sopts.state_fsync = true;
    else return false;
    return true;
  };
  if (!flags::parse(argc, argv, 1, value_flags, switches)) return 2;
  std::error_code ec;
  if (!sopts.state_dir.empty() &&
      std::filesystem::exists(sopts.state_dir, ec) &&
      !std::filesystem::is_directory(sopts.state_dir, ec)) {
    std::fprintf(stderr, "--state-dir %s exists and is not a directory\n",
                 sopts.state_dir.c_str());
    return 2;
  }
  if (!quiet) {
    sopts.verbose = true;
    log::set_level(log::Level::kInfo);
  }
  // The disk-fault campaign: write-path faults (short write, torn record,
  // fsync failure) at the shared rate, plus optionally unreadable files at
  // reload. ENOSPC/degradation is exercised with an unwritable --state-dir
  // rather than a rate -- it is a terminal state, not a recoverable fault.
  std::unique_ptr<fault::DiskChaos> disk_chaos;
  if (have_disk_seed) {
    if (sopts.state_dir.empty()) {
      std::fprintf(stderr,
                   "--disk-fault-seed needs --state-dir (disk faults are "
                   "injected into the shard store)\n");
      return 2;
    }
    fault::DiskChaos::Rates rates;
    rates.short_write = disk_fault_rate;
    rates.torn_record = disk_fault_rate;
    rates.fsync_fail = disk_fault_rate;
    rates.unreadable = disk_unreadable_rate;
    disk_chaos = std::make_unique<fault::DiskChaos>(disk_seed, rates);
    sopts.disk_chaos = disk_chaos.get();
  }

  if (!net::supported()) {
    std::fprintf(stderr, "sockets are unsupported on this platform\n");
    return 1;
  }
  net::Listener listener;
  std::string error;
  if (!listener.listen_on(host, static_cast<std::uint16_t>(port), &error)) {
    std::fprintf(stderr, "cannot listen: %s\n", error.c_str());
    return 1;
  }
  const std::string address =
      strformat("%s:%u", host.c_str(),
                static_cast<unsigned>(listener.port()));
  if (!port_file.empty()) {
    std::ofstream f(port_file);
    f << address << "\n";
    if (!f.good()) {
      std::fprintf(stderr, "cannot write port file %s\n", port_file.c_str());
      return 1;
    }
  }
  std::printf("runner_serve: listening on %s (%d workers per backend)\n",
              address.c_str(), sopts.workers);
  std::fflush(stdout);

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  net::RunnerServer server(std::move(listener), build_workload, sopts);
  server.serve(&g_stop);

  const net::ServerStats& st = server.stats();
  const net::ShardStoreStats& store = server.store_stats();
  std::printf("runner_serve: done -- %llu session(s) (%llu rejected, "
              "%llu reaped), %llu trial(s) served (%llu shard-cache "
              "hit(s)), %llu cache insert(s), %llu protocol error(s), "
              "%llu backend(s)\n",
              static_cast<unsigned long long>(st.sessions_accepted),
              static_cast<unsigned long long>(st.sessions_rejected),
              static_cast<unsigned long long>(st.sessions_reaped),
              static_cast<unsigned long long>(st.trials_served),
              static_cast<unsigned long long>(st.shard_cache_hits),
              static_cast<unsigned long long>(st.cache_inserts),
              static_cast<unsigned long long>(st.protocol_errors),
              static_cast<unsigned long long>(st.backends));
  std::printf("runner_serve: journal -- %llu append(s) (%llu rejected), "
              "%llu fetch(es), %llu digest(s), %llu ping(s)\n",
              static_cast<unsigned long long>(st.journal_appends),
              static_cast<unsigned long long>(st.journal_rejected),
              static_cast<unsigned long long>(st.journal_fetches),
              static_cast<unsigned long long>(st.digests),
              static_cast<unsigned long long>(st.pings));
  std::printf("runner_serve: state -- %llu shard(s) reloaded (%llu "
              "record(s), %llu discarded), %llu disk fault(s)%s\n",
              static_cast<unsigned long long>(store.shards_reloaded),
              static_cast<unsigned long long>(store.records_reloaded),
              static_cast<unsigned long long>(store.records_discarded),
              static_cast<unsigned long long>(store.disk_faults),
              store.degraded ? ", DEGRADED to in-memory" : "");
  return 0;
}
