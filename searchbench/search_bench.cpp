// search_bench: whole-search benchmark for fpmix.
//
// Drives search::run_search over a seeded stream of search jobs -- one
// (kernel, tolerance scale) pair each -- in a closed loop, and prints the
// end-to-end metrics of the run as the last line of stdout (one JSON
// object). With --trace 1 it instead runs every job with the search log on,
// replays the logged trial stream through the public entry point of each
// layer (TrialBuilder, Machine construction, Machine::run, Verifier::verify,
// Journal::append_sealed, WorkerPool::run_batch), times each call from
// outside as a span, and reports per-layer self times whose sum, plus the
// search's own residue, is the search's wall time.
//
// See README.md in this directory for the workloads, the metric table and
// how to run one workload or the traced run alone.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "config/config.hpp"
#include "config/structure.hpp"
#include "kernels/workload.hpp"
#include "program/program.hpp"
#include "runner/worker_pool.hpp"
#include "search/search.hpp"
#include "search/trial_cache.hpp"
#include "support/hash.hpp"
#include "support/journal.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"
#include "verify/evaluate.hpp"
#include "verify/trial_builder.hpp"
#include "vm/jit/jit.hpp"
#include "vm/machine.hpp"

namespace {

using namespace fpmix;
using config::Precision;
using config::PrecisionConfig;
using config::StructureIndex;

// ---- Job space ------------------------------------------------------------

constexpr const char* kKernels[] = {"ep", "cg", "ft", "mg", "bt", "lu", "sp"};
/// Multipliers on every tolerance of the stock verifier. The scale sets the
/// search depth: at 1e3 the whole module passes in a handful of trials; at
/// 1e-6 the search descends to single instructions almost everywhere.
constexpr double kAllScales[] = {1e3, 1.0, 1e-3, 1e-6};

struct Job {
  std::string kernel;
  double scale = 1.0;

  std::string id() const {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s@%g", kernel.c_str(), scale);
    return buf;
  }
};

/// One benchmark workload: the engine every job runs on, and its scales.
/// Every search runs in-process on one thread, so the replayed layers run
/// in the same order as the search's and can be held against its wall.
struct WorkloadSpec {
  std::string name;
  vm::Engine engine = vm::Engine::kJit;
  std::vector<double> scales;
};

const std::vector<WorkloadSpec>& workload_specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"jit-mixed", vm::Engine::kJit, {1e3, 1.0, 1e-3, 1e-6}},
      {"microop-deep", vm::Engine::kMicroOp, {1e-3, 1e-6}},
  };
  return specs;
}

std::vector<Job> job_space(const std::vector<double>& scales) {
  std::vector<Job> out;
  for (const char* k : kKernels) {
    for (double s : scales) out.push_back(Job{k, s});
  }
  return out;
}

/// Seeded draw of one pass: every job of the space exactly once, in an
/// order fixed by (seed, pass). Whole passes keep the job mix -- and so the
/// metric distributions -- identical across seeds; the seed moves the order,
/// which decides what state (caches, allocator, page cache) each job meets.
std::vector<Job> draw_pass(std::vector<Job> space, std::uint64_t seed,
                           std::uint64_t pass) {
  SplitMix64 rng(seed * 0x9E3779B97F4A7C15ull + pass);
  for (std::size_t i = space.size(); i > 1; --i) {
    std::swap(space[i - 1], space[rng.next_below(i)]);
  }
  return space;
}

kernels::Workload make_kernel(const std::string& k) {
  if (k == "ep") return kernels::make_ep('W');
  if (k == "cg") return kernels::make_cg('W');
  if (k == "ft") return kernels::make_ft('W');
  if (k == "mg") return kernels::make_mg('W');
  if (k == "bt") return kernels::make_bt('W');
  if (k == "lu") return kernels::make_lu('W');
  if (k == "sp") return kernels::make_sp('W');
  throw std::runtime_error("unknown kernel " + k);
}

// ---- Set-up ---------------------------------------------------------------

/// The inputs the program receives for one job: the built image, its
/// structure index and the verifier.
struct Prepared {
  program::Image image;
  StructureIndex index;
  std::unique_ptr<verify::Verifier> verifier;
  std::uint64_t build_ns = 0;      // kernels::build_image
  std::uint64_t index_ns = 0;      // program::lift + StructureIndex::build
  std::uint64_t reference_ns = 0;  // kernels::make_verifier (reference run)
  std::uint64_t max_instructions = 0;

  std::uint64_t setup_ns() const { return build_ns + index_ns + reference_ns; }
};

Prepared prepare(const Job& job) {
  kernels::Workload w = make_kernel(job.kernel);
  w.rel_tol *= job.scale;
  w.abs_tol *= job.scale;
  for (kernels::Workload::OutputTol& t : w.output_tols) {
    t.rel *= job.scale;
    t.abs *= job.scale;
  }
  Prepared p;
  p.max_instructions = w.max_instructions;
  Timer t;
  p.image = kernels::build_image(w);
  p.build_ns = t.elapsed_ns();
  t.reset();
  p.index = StructureIndex::build(program::lift(p.image));
  p.index_ns = t.elapsed_ns();
  t.reset();
  p.verifier = kernels::make_verifier(w, p.image);
  p.reference_ns = t.elapsed_ns();
  return p;
}

// ---- Resource accounting --------------------------------------------------

double tv_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         1e-6 * static_cast<double>(tv.tv_usec);
}

/// User+system CPU seconds of this process plus every child it has reaped.
/// Sandboxed workers are reaped when their WorkerPool is destroyed, which
/// run_search does before it returns -- so a reading taken after the call
/// includes them.
double cpu_seconds_with_children() {
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return tv_seconds(self.ru_utime) + tv_seconds(self.ru_stime) +
         tv_seconds(kids.ru_utime) + tv_seconds(kids.ru_stime);
}

double peak_rss_mb() {
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) /
         1024.0;
}

struct ThreadUsage {
  double sys_s = 0.0;
  long minflt = 0;
};

ThreadUsage thread_usage() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return ThreadUsage{tv_seconds(ru.ru_stime), ru.ru_minflt};
}

// ---- Host-speed calibration ----------------------------------------------

// On a shared host the same code runs tens of percent slower for seconds
// or minutes at a time, as other tenants load the caches, memory and the
// core's sibling thread; CPU time grows with wall time, so nothing but a
// reference measured beside the program removes it. Every untraced job is
// therefore bracketed by runs of the calibration kernel below -- fixed work
// owned by the benchmark, not by fpmix -- and the job's times are scaled by
// kCalibrationRefSeconds / (the kernel's mean time before and after). The
// kernel mixes what the searches do: interpreter dispatch, zero-filling a
// fresh buffer and random access to it. Its buffer is freed again before
// the job, whose allocations reuse it.

/// The kernel's time at the reference host speed the metrics are quoted
/// at: a fixed constant, about the kernel's median time on the 2.1 GHz
/// x86-64 server core the benchmark was written on.
constexpr double kCalibrationRefSeconds = 1.25e-3;

volatile std::uint64_t g_calibration_sink = 0;

double time_dispatch() {
  static const std::uint8_t prog[8] = {0, 1, 2, 3, 1, 0, 3, 2};
  Timer t;
  std::uint64_t a = 1, b = 3;
  for (int i = 0; i < 400000; ++i) {
    switch (prog[(i ^ (a >> 7)) & 7]) {
      case 0: a = a * 6364136223846793005ull + b; break;
      case 1: b ^= a >> 13; break;
      case 2: a += b << 3; break;
      default: b = b * 31 + (a & 0xff); break;
    }
  }
  g_calibration_sink = a ^ b;
  return t.elapsed_seconds();
}

/// Allocates and zero-fills a 4 MiB table, updates it at random and frees
/// it.
double time_fresh_table() {
  Timer t;
  std::vector<std::uint64_t> table(1u << 19);
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 200000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x & (table.size() - 1)] += x;
  }
  g_calibration_sink = table[x & 1023];
  table = {};
  return t.elapsed_seconds();
}

/// The calibration kernel's time now: each part runs three times and its
/// best time counts, so a single preemption does not.
double calibration_seconds() {
  double dispatch = 1e9, table = 1e9;
  for (int k = 0; k < 3; ++k) {
    dispatch = std::min(dispatch, time_dispatch());
    table = std::min(table, time_fresh_table());
  }
  return dispatch + table;
}

// ---- Switch-interpreter oracle --------------------------------------------

/// What every engine and executor must reproduce for one job; generated on
/// the reference switch interpreter.
struct OracleRow {
  std::size_t configs_tested = 0;
  bool final_passed = false;
  std::string final_hash;
  std::string dynamic_pct;  // %.17g, so equality is exact
};

std::string format_pct(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

OracleRow oracle_row(const search::SearchResult& r) {
  return OracleRow{r.configs_tested, r.final_passed,
                   hex_digest(r.final_config.stable_hash()),
                   format_pct(r.stats.dynamic_pct)};
}

bool operator==(const OracleRow& a, const OracleRow& b) {
  return a.configs_tested == b.configs_tested &&
         a.final_passed == b.final_passed && a.final_hash == b.final_hash &&
         a.dynamic_pct == b.dynamic_pct;
}

std::string describe(const OracleRow& r) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "tested=%zu passed=%d hash=%s dyn=%s",
                r.configs_tested, r.final_passed ? 1 : 0,
                r.final_hash.c_str(), r.dynamic_pct.c_str());
  return buf;
}

using Oracle = std::map<std::string, OracleRow>;

constexpr const char* kOracleHeader =
    "# job\tconfigs_tested\tfinal_passed\tfinal_hash\tdynamic_pct";

bool load_oracle(const std::string& path, Oracle* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string job;
    OracleRow row;
    int passed = 0;
    if (!(ls >> job >> row.configs_tested >> passed >> row.final_hash >>
          row.dynamic_pct)) {
      return false;
    }
    row.final_passed = passed != 0;
    (*out)[job] = row;
  }
  return !out->empty();
}

std::string oracle_text(const Oracle& o) {
  std::string text = std::string(kOracleHeader) + "\n";
  for (const auto& [job, row] : o) {
    text += job + "\t" + std::to_string(row.configs_tested) + "\t" +
            (row.final_passed ? "1" : "0") + "\t" + row.final_hash + "\t" +
            row.dynamic_pct + "\n";
  }
  return text;
}

search::SearchOptions base_options(const WorkloadSpec& spec,
                                   const Prepared& p) {
  search::SearchOptions o;
  o.engine = spec.engine;
  o.num_threads = 1;
  o.max_instructions_per_run = p.max_instructions;
  o.keep_log = false;
  return o;
}

/// Regenerates the oracle on the switch interpreter for every job of every
/// workload. Returns the process exit code.
int oracle_mode(const std::string& path, bool write) {
  std::vector<double> scales(std::begin(kAllScales), std::end(kAllScales));
  Oracle fresh;
  WorkloadSpec sw{"oracle", vm::Engine::kSwitch, scales};
  for (const Job& job : job_space(scales)) {
    Prepared p = prepare(job);
    const search::SearchResult r = search::run_search(
        p.image, &p.index, *p.verifier, base_options(sw, p));
    fresh[job.id()] = oracle_row(r);
    std::fprintf(stderr, "oracle %-10s %s\n", job.id().c_str(),
                 describe(fresh[job.id()]).c_str());
  }
  if (write) {
    std::ofstream out(path);
    out << oracle_text(fresh);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %zu oracle rows to %s\n", fresh.size(), path.c_str());
    return 0;
  }
  Oracle recorded;
  if (!load_oracle(path, &recorded)) {
    std::fprintf(stderr, "cannot read oracle %s\n", path.c_str());
    return 1;
  }
  std::size_t diffs = 0;
  for (const auto& [job, row] : fresh) {
    const auto it = recorded.find(job);
    if (it == recorded.end() || !(it->second == row)) {
      ++diffs;
      std::printf("DIFF %s: recorded %s, regenerated %s\n", job.c_str(),
                  it == recorded.end() ? "(missing)"
                                       : describe(it->second).c_str(),
                  describe(row).c_str());
    }
  }
  for (const auto& [job, row] : recorded) {
    if (fresh.count(job) == 0) {
      ++diffs;
      std::printf("DIFF %s: recorded but not in the job space\n",
                  job.c_str());
    }
  }
  std::printf("oracle check: %zu job(s), %zu difference(s)\n", fresh.size(),
              diffs);
  return diffs == 0 ? 0 : 1;
}

// ---- One search job -------------------------------------------------------

struct JobResult {
  Job job;
  double setup_s = 0.0;
  double search_s = 0.0;
  double cpu_s = 0.0;
  std::size_t trials = 0;
  bool failed = false;
  bool jit_downgraded = false;
  std::string why;
  /// The calibration kernel's time just before the job (untraced jobs).
  double calibration_s = 0.0;
  /// kCalibrationRefSeconds over the kernel's mean time before and after
  /// the job: the factor that quotes the job's times at reference speed.
  double host_scale = 1.0;
};

void add_failure(JobResult* out, const std::string& why) {
  out->failed = true;
  if (!out->why.empty()) out->why += "; ";
  out->why += why;
}

/// Failure census shared by the untraced and traced paths: an engine
/// downgrade, a harness-side failure class, or a disagreement with the
/// switch-interpreter oracle.
void check_result(const WorkloadSpec& spec, const Oracle& oracle,
                  const search::SearchResult& r, JobResult* out) {
  const auto fail = [out](const std::string& why) { add_failure(out, why); };
  if (spec.engine == vm::Engine::kJit && r.metrics.jit_downgraded > 0) {
    out->jit_downgraded = true;
    fail("jit engine downgraded");
  }
  for (const char* cls : {"internal-error", "crash", "resource"}) {
    const auto it = r.metrics.failures_by_class.find(cls);
    if (it != r.metrics.failures_by_class.end() && it->second > 0) {
      fail(std::to_string(it->second) + " " + cls + " trial(s)");
    }
  }
  const auto it = oracle.find(out->job.id());
  if (it == oracle.end()) {
    fail("job missing from the oracle");
  } else if (!(it->second == oracle_row(r))) {
    fail("oracle mismatch: expected " + describe(it->second) + ", got " +
         describe(oracle_row(r)));
  }
}

struct Env {
  WorkloadSpec spec;
  Oracle oracle;
  std::string work_dir;
};

/// Journal the traced run writes from its replayed commits.
std::string replay_journal_path(const Env& env) {
  return env.work_dir + "/" + env.spec.name + ".replay";
}

/// Resume from the job's journal: every trial must come from the cache and
/// the final configuration must be byte-identical.
void resume_and_check(Prepared* p, const search::SearchOptions& opts,
                      const search::SearchResult& first, JobResult* out) {
  search::SearchOptions ro = opts;
  ro.resume = true;
  const search::SearchResult r =
      search::run_search(p->image, &p->index, *p->verifier, ro);
  if (r.metrics.trials_live != 0 ||
      r.final_config.canonical_key() != first.final_config.canonical_key() ||
      r.configs_tested != first.configs_tested) {
    add_failure(out, "resume re-evaluated trials or changed the final "
                     "config");
  }
}

/// Untraced job: set up, search, check.
JobResult run_job(const Env& env, const Job& job) {
  JobResult out;
  out.job = job;
  out.calibration_s = calibration_seconds();
  try {
    Prepared p = prepare(job);
    out.setup_s = 1e-9 * static_cast<double>(p.setup_ns());
    const double cpu0 = cpu_seconds_with_children();
    Timer t;
    const search::SearchResult r = search::run_search(
        p.image, &p.index, *p.verifier, base_options(env.spec, p));
    out.search_s = t.elapsed_seconds();
    out.cpu_s = cpu_seconds_with_children() - cpu0;
    out.trials = r.configs_tested;
    check_result(env.spec, env.oracle, r, &out);
  } catch (const std::exception& e) {
    add_failure(&out, std::string("threw: ") + e.what());
  }
  return out;
}

// ---- Statistics -----------------------------------------------------------

/// Quantile by linear interpolation between closest ranks.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Lowest readings of one job type over a run. Each field is minimised on
/// its own; `trials` repeats exactly, since every search is deterministic.
struct BestReading {
  std::size_t runs = 0;
  std::size_t trials = 0;
  double search_s = 0.0;
  double setup_s = 0.0;
  double cpu_s = 0.0;
};

/// Best readings per job type, quoted at reference speed when `scaled`.
std::map<std::string, BestReading> best_readings(
    const std::vector<JobResult>& jobs, bool scaled) {
  std::map<std::string, BestReading> out;
  for (const JobResult& j : jobs) {
    const double k = scaled ? j.host_scale : 1.0;
    BestReading& b = out[j.job.id()];
    if (b.runs == 0 || k * j.search_s < b.search_s) b.search_s = k * j.search_s;
    if (b.runs == 0 || k * j.setup_s < b.setup_s) b.setup_s = k * j.setup_s;
    if (b.runs == 0 || k * j.cpu_s < b.cpu_s) b.cpu_s = k * j.cpu_s;
    b.trials = j.trials;
    b.runs += 1;
  }
  return out;
}

/// The timed end-to-end metrics over the job types' best readings.
std::vector<Metric> timed_metrics(
    const std::map<std::string, BestReading>& best) {
  std::vector<double> search_s;
  double search = 0, setup = 0, cpu = 0, trials = 0;
  for (const auto& [id, b] : best) {
    search_s.push_back(b.search_s);
    search += b.search_s;
    setup += b.setup_s;
    cpu += b.cpu_s;
    trials += static_cast<double>(b.trials);
  }
  return {
      {"search_s.p50", quantile(search_s, 0.5), "s"},
      {"search_s.p90", quantile(search_s, 0.9), "s"},
      {"trials_per_s", trials / search, "1/s"},
      {"setup_s", setup / static_cast<double>(best.size()), "s"},
      {"cpu_ms_per_trial", 1e3 * cpu / trials, "ms"},
  };
}

/// Per-job-type rows: one line per (kernel, scale) with its best search and
/// set-up times from `best` (at reference speed in an untraced run) and its
/// unscaled median search time.
void print_job_table(const std::vector<JobResult>& jobs,
                     const std::map<std::string, BestReading>& best) {
  std::map<std::string, std::vector<double>> search_ms;
  for (const JobResult& j : jobs) {
    search_ms[j.job.id()].push_back(1e3 * j.search_s);
  }
  std::printf("%-10s %5s %7s %11s %11s %14s\n", "job", "runs", "trials",
              "best_ms", "median_ms", "best_setup_ms");
  for (const auto& [id, b] : best) {
    std::printf("%-10s %5zu %7zu %11.2f %11.2f %14.2f\n", id.c_str(), b.runs,
                b.trials, 1e3 * b.search_s, quantile(search_ms[id], 0.5),
                1e3 * b.setup_s);
  }
}

// ---- Tracing --------------------------------------------------------------

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

struct Span {
  const char* name;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::size_t parent = kNoParent;
  std::uint32_t job = 0;
};

/// In-memory span recorder for the whole traced run.
struct SpanBuf {
  std::vector<Span> spans;
  std::uint32_t job = 0;

  std::size_t open(const char* name, std::size_t parent) {
    spans.push_back(Span{name, now_ns(), 0, parent, job});
    return spans.size() - 1;
  }
  void close(std::size_t id) { spans[id].end = now_ns(); }
  std::size_t add(const char* name, std::uint64_t start, std::uint64_t end,
                  std::size_t parent) {
    spans.push_back(Span{name, start, end, parent, job});
    return spans.size() - 1;
  }
  std::uint64_t dur(std::size_t id) const {
    return spans[id].end - spans[id].start;
  }
};

/// A logged trial resolved back to its configuration.
struct ResolvedRecord {
  const search::TestRecord* rec = nullptr;
  std::optional<PrecisionConfig> cfg;
};

/// Rebuilds each TestRecord's PrecisionConfig from the StructureIndex: the
/// candidate configs for the named unit are generated exactly as the search
/// builds units, and the one whose digest equals TestRecord::key wins.
class Resolver {
 public:
  explicit Resolver(const StructureIndex& ix) : ix_(ix) {}

  std::optional<PrecisionConfig> resolve(const search::TestRecord& rec) {
    std::vector<PrecisionConfig> cands = candidates(rec.unit);
    for (PrecisionConfig& c : cands) {
      if (hex_digest(c.stable_hash()) == rec.key) {
        if (rec.passed && rec.unit != "final composition") {
          passing_union_.merge_union(c);
        }
        return std::move(c);
      }
    }
    return std::nullopt;
  }

 private:
  static bool starts_with(const std::string& s, const char* p) {
    return s.rfind(p, 0) == 0;
  }

  /// "<name> part[<n> <what>]" -> (<name>, n); plain "<name>" -> (name, 0).
  static std::pair<std::string, std::size_t> split_part(
      const std::string& rest) {
    const std::size_t at = rest.rfind(" part[");
    if (at == std::string::npos) return {rest, 0};
    return {rest.substr(0, at),
            static_cast<std::size_t>(std::strtoull(rest.c_str() + at + 6,
                                                   nullptr, 10))};
  }

  static std::uint64_t parse_addr(const std::string& s) {
    return std::strtoull(s.c_str(), nullptr, 16);
  }

  std::vector<PrecisionConfig> candidates(const std::string& unit) const {
    std::vector<PrecisionConfig> out;
    if (unit == "final composition") {
      out.push_back(passing_union_);
    } else if (starts_with(unit, "module ")) {
      const std::string name = unit.substr(7);
      for (std::size_t m = 0; m < ix_.modules().size(); ++m) {
        if (ix_.modules()[m].name != name) continue;
        PrecisionConfig c;
        c.set_module(m, Precision::kSingle);
        out.push_back(std::move(c));
      }
    } else if (starts_with(unit, "func ")) {
      const auto [name, n] = split_part(unit.substr(5));
      for (std::size_t f = 0; f < ix_.funcs().size(); ++f) {
        if (ix_.funcs()[f].name != name) continue;
        if (n == 0) {
          PrecisionConfig c;
          c.set_func(f, Precision::kSingle);
          out.push_back(std::move(c));
          continue;
        }
        std::vector<std::size_t> useful;
        for (std::size_t b : ix_.funcs()[f].blocks) {
          if (!ix_.blocks()[b].candidates.empty()) useful.push_back(b);
        }
        for (std::size_t i = 0; i + n <= useful.size(); ++i) {
          PrecisionConfig c;
          for (std::size_t k = i; k < i + n; ++k) {
            c.set_block(useful[k], Precision::kSingle);
          }
          out.push_back(std::move(c));
        }
      }
    } else if (starts_with(unit, "block ")) {
      const auto [head, n] = split_part(unit.substr(6));
      const std::uint64_t addr = parse_addr(head);
      for (std::size_t b = 0; b < ix_.blocks().size(); ++b) {
        if (ix_.blocks()[b].head_addr != addr) continue;
        if (n == 0) {
          PrecisionConfig c;
          c.set_block(b, Precision::kSingle);
          out.push_back(std::move(c));
          continue;
        }
        const std::vector<std::size_t>& cand = ix_.blocks()[b].candidates;
        for (std::size_t i = 0; i + n <= cand.size(); ++i) {
          PrecisionConfig c;
          for (std::size_t k = i; k < i + n; ++k) {
            c.set_instr(cand[k], Precision::kSingle);
          }
          out.push_back(std::move(c));
        }
      }
    } else if (starts_with(unit, "insn ")) {
      const std::uint64_t addr = parse_addr(unit.substr(5));
      if (ix_.has_instr_at(addr)) {
        PrecisionConfig c;
        c.set_instr(ix_.instr_at(addr), Precision::kSingle);
        out.push_back(std::move(c));
      }
    }
    return out;
  }

  const StructureIndex& ix_;
  PrecisionConfig passing_union_;
};

/// Per-trial accounting measured at the replay's layer boundaries.
struct TrialCounts {
  double funcs_reused = 0, funcs_total = 0, image_hits = 0, lookups = 0;
  double instructions = 0, minflt = 0, sys_ms = 0;
};

/// Layer totals of one traced run, accumulated from span self times.
struct Ledger {
  std::size_t jobs = 0;
  std::size_t trials = 0;         // every logged trial (cached included)
  std::size_t live = 0;           // replayed evaluations
  double build_ms = 0, index_ms = 0, reference_ms = 0, profile_ms = 0;
  double patch_ms = 0, predecode_ms = 0, builder_ms = 0;
  double setup_ms = 0, compile_ms = 0, execute_ms = 0;
  double check_ms = 0, commit_ms = 0;
  double replay_ms = 0, hop_ms = 0, hops = 0;
  double other_ms = 0, wall_ms = 0;
  double traced_ms = 0, untraced_ms = 0;
  TrialCounts counts;
  double delta_frames = 0, all_frames = 0;
  std::vector<double> resume_s;
  std::size_t unresolved = 0, mismatched = 0;
};

struct ReplayCtx {
  const WorkloadSpec* spec;
  Prepared* p;
  verify::TrialBuilder* builder;
};

/// Replays one logged trial's evaluation through the layers, recording
/// spans into `buf` under `parent`. Returns the replayed verdict.
bool replay_trial(const ReplayCtx& c, const PrecisionConfig& cfg,
                      std::size_t parent, SpanBuf* buf, TrialCounts* counts) {
  const bool jit = c.spec->engine == vm::Engine::kJit;
  const std::size_t trial = buf->open("trial", parent);

  const std::size_t build = buf->open("verify.build", trial);
  verify::TrialBuilder::Built built = c.builder->build(cfg);
  buf->close(build);
  {
    // The builder times its own patch and predecode stages; lay them out
    // inside the outside-timed build span so its self time is the rest
    // (canonical key, hashing, cache lookup, lock).
    const std::uint64_t s = buf->spans[build].start;
    buf->add("instrument.patch", s, s + built.patch_ns, build);
    buf->add("vm.predecode", s + built.patch_ns,
             s + built.patch_ns + built.predecode_ns, build);
  }
  counts->funcs_reused += built.funcs_reused;
  counts->funcs_total += built.funcs_total;
  counts->image_hits += built.cache_hit ? 1 : 0;
  counts->lookups += 1;

  vm::Machine::Options mopts;
  mopts.max_instructions = c.p->max_instructions;
  mopts.profile = false;
  mopts.engine = c.spec->engine;

  const ThreadUsage u0 = thread_usage();
  const std::size_t setup = buf->open("vm.setup", trial);
  std::optional<vm::Machine> machine;
  machine.emplace(built.exec, mopts);
  buf->close(setup);
  const ThreadUsage u1 = thread_usage();
  const std::size_t run = buf->open(jit ? "vm.run" : "vm.execute", trial);
  const vm::RunResult rr = machine->run();
  buf->close(run);
  const ThreadUsage u2 = thread_usage();
  counts->minflt += static_cast<double>(u1.minflt - u0.minflt);
  counts->sys_ms += 1e3 * (u2.sys_s - u0.sys_s);
  counts->instructions += static_cast<double>(rr.instructions_retired);

  bool passed = false;
  if (rr.ok()) {
    const std::size_t check = buf->open("verify.check", trial);
    passed = c.p->verifier->verify(machine->output_f64());
    buf->close(check);
  }
  const std::size_t teardown = buf->open("vm.teardown", trial);
  machine.reset();
  buf->close(teardown);
  buf->close(trial);

  if (jit) {
    // Warm re-run of the same image: its time is pure execution, so the
    // cold run minus it is JIT compile + link. Outside the trial span --
    // the search never runs an image twice.
    const std::size_t warm = buf->open("trace.warm_rerun", parent);
    vm::Machine again(built.exec, mopts);
    const std::uint64_t t0 = now_ns();
    again.run();
    const std::uint64_t warm_ns = std::min(now_ns() - t0, buf->dur(run));
    buf->close(warm);
    buf->add("vm.execute", buf->spans[run].end - warm_ns, buf->spans[run].end,
             run);
  }
  return passed;
}

/// Off the ledger: commits each replayed trial to a fresh fsynced journal
/// (as the search does in isolate mode) and sends it through a sandboxed
/// worker, then reads the journal back and resumes the search from it. The
/// searches measured here run neither layer; this measures both on the same
/// trial stream.
void replay_journal_and_runner(const Env& env, Prepared* p,
                               verify::TrialBuilder* builder,
                               const std::vector<ResolvedRecord>& records,
                               const std::vector<std::size_t>& live,
                               const search::SearchResult& first,
                               std::size_t job_span, SpanBuf* buf,
                               Ledger* ledger, JobResult* out) {
  const std::string path = replay_journal_path(env);
  std::filesystem::remove(path);
  const std::string fp = search::search_fingerprint(p->verifier->fingerprint(),
                                                    p->max_instructions);
  {
    Journal journal;
    if (!journal.open(path)) throw std::runtime_error("cannot open " + path);
    journal.set_fsync(true);
    journal.append_sealed(search::encode_meta_line(fp));

    runner::WorkerContext wctx;
    wctx.image = &p->image;
    wctx.index = &p->index;
    wctx.verifier = p->verifier.get();
    wctx.eval.max_instructions = p->max_instructions;
    wctx.eval.engine = env.spec.engine;
    wctx.eval.builder = builder;
    runner::WorkerPool pool(wctx, runner::PoolOptions{});
    if (!pool.start()) throw std::runtime_error("worker pool start failed");

    for (std::size_t i : live) {
      const search::TestRecord& rec = *records[i].rec;
      const std::size_t commit = buf->open("search.commit", job_span);
      const search::CachedTrial entry{
          rec.passed,
          rec.passed ? verify::FailureClass::kNone
                     : verify::classify_failure_message(rec.failure),
          rec.failure, 0, 0, false};
      journal.append_sealed(
          search::encode_trial_line(rec.key, rec.unit, rec.candidates, entry));
      buf->close(commit);
      // The round trip minus an in-process evaluation of the same trial,
      // with a builder as warm as the worker's copy, is the runner hop.
      const std::size_t local = buf->open("trace.local_eval", job_span);
      verify::evaluate_config(p->image, p->index, *records[i].cfg,
                              *p->verifier, wctx.eval);
      buf->close(local);
      const std::size_t hop = buf->open("runner.run_batch", job_span);
      pool.run_batch({runner::TrialJob{rec.key, &*records[i].cfg}});
      buf->close(hop);
      ledger->hop_ms += 1e-6 * (static_cast<double>(buf->dur(hop)) -
                                static_cast<double>(buf->dur(local)));
      ledger->hops += 1;
    }
    const runner::PoolStats& ps = pool.stats();
    ledger->delta_frames += static_cast<double>(ps.delta_requests);
    ledger->all_frames +=
        static_cast<double>(ps.delta_requests + ps.full_requests);
  }

  const std::size_t rs = buf->open("search.journal_replay", job_span);
  search::TrialCache cache;
  search::load_journal(path, fp, &cache);
  buf->close(rs);
  ledger->replay_ms += 1e-6 * static_cast<double>(buf->dur(rs));

  search::SearchOptions ro = base_options(env.spec, *p);
  ro.journal_path = path;
  const std::size_t res = buf->open("search.resume", job_span);
  resume_and_check(p, ro, first, out);
  buf->close(res);
  ledger->resume_s.push_back(1e-9 * static_cast<double>(buf->dur(res)));
}

/// Search wall, traced (keep_log) and untraced, plus the trial log.
struct TracedSearch {
  search::SearchResult result;
  std::size_t span = 0;  // the traced search.run span
  double untraced_ms = 0;
};

TracedSearch traced_search(const Env& env, Prepared* p, std::size_t job_no,
                           std::size_t job_span, SpanBuf* buf) {
  const search::SearchOptions plain = base_options(env.spec, *p);
  search::SearchOptions logged = plain;
  logged.keep_log = true;
  TracedSearch ts;
  // Alternate which variant goes first so warm-up favours neither.
  for (int k = 0; k < 2; ++k) {
    const bool traced = (k == 0) == (job_no % 2 == 0);
    const std::size_t s = buf->open(
        traced ? "search.run" : "search.run_untraced", job_span);
    search::SearchResult r = search::run_search(
        p->image, &p->index, *p->verifier, traced ? logged : plain);
    buf->close(s);
    if (traced) {
      ts.result = std::move(r);
      ts.span = s;
    } else {
      ts.untraced_ms = 1e-6 * static_cast<double>(buf->dur(s));
    }
  }
  return ts;
}

/// Traced job: searches, replays the trial stream, and adds the job's
/// layer times to `ledger`.
JobResult trace_job(const Env& env, const Job& job, std::size_t job_no,
                    SpanBuf* buf, Ledger* ledger) {
  JobResult out;
  out.job = job;
  buf->job = static_cast<std::uint32_t>(job_no);
  const std::size_t job_span = buf->open("job", kNoParent);
  try {
    const std::size_t setup = buf->open("setup", job_span);
    Prepared p = prepare(job);
    buf->close(setup);
    {
      const std::uint64_t s = buf->spans[setup].start;
      buf->add("kernels.build_image", s, s + p.build_ns, setup);
      buf->add("config.index", s + p.build_ns, s + p.build_ns + p.index_ns,
               setup);
      buf->add("verify.reference", s + p.build_ns + p.index_ns,
               s + p.setup_ns(), setup);
    }
    out.setup_s = 1e-9 * static_cast<double>(p.setup_ns());

    TracedSearch ts = traced_search(env, &p, job_no, job_span, buf);
    const search::SearchResult& r = ts.result;
    out.search_s = 1e-9 * static_cast<double>(buf->dur(ts.span));
    out.trials = r.configs_tested;
    check_result(env.spec, env.oracle, r, &out);
    ledger->traced_ms += 1e3 * out.search_s;
    ledger->untraced_ms += ts.untraced_ms;

    // Resolve every logged trial back to its configuration.
    const std::size_t res_span = buf->open("trace.resolve", job_span);
    Resolver resolver(p.index);
    std::vector<ResolvedRecord> records;
    for (const search::TestRecord& rec : r.trace) {
      records.push_back(ResolvedRecord{&rec, resolver.resolve(rec)});
      if (!records.back().cfg) {
        ++ledger->unresolved;
        std::printf("UNRESOLVED %s: '%s' key %s\n", job.id().c_str(),
                    rec.unit.c_str(), rec.key.c_str());
      }
    }
    buf->close(res_span);

    // The search's profiling run, through the public Machine API.
    const std::size_t prof = buf->open("search.profile", job_span);
    {
      vm::Machine::Options mo;
      mo.max_instructions = p.max_instructions;
      mo.engine = env.spec.engine;
      vm::Machine m(p.image, mo);
      if (m.run().ok()) p.index.apply_profile(m.profile_by_address());
    }
    buf->close(prof);

    verify::TrialBuilder builder(p.image, p.index);
    const ReplayCtx ctx{&env.spec, &p, &builder};

    std::vector<std::size_t> live;  // indices of records to evaluate
    std::map<std::string, bool> verdicts;
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (!records[i].cfg) continue;
      if (!records[i].rec->cached) live.push_back(i);
    }
    std::vector<char> replayed(records.size(), 0);
    for (std::size_t i : live) {
      replayed[i] = replay_trial(ctx, *records[i].cfg, job_span, buf,
                                 &ledger->counts);
    }

    // Replay self-check: every verdict must equal the search's, and cached
    // records must repeat an earlier replayed verdict.
    for (std::size_t i = 0; i < records.size(); ++i) {
      const ResolvedRecord& rr = records[i];
      if (!rr.cfg) continue;
      bool v = replayed[i] != 0;
      if (rr.rec->cached) {
        const auto it = verdicts.find(rr.rec->key);
        v = it != verdicts.end() ? it->second : !rr.rec->passed;
      } else {
        verdicts.emplace(rr.rec->key, v);
      }
      if (v != rr.rec->passed) {
        ++ledger->mismatched;
        std::printf("MISMATCH %s: '%s' search passed=%d replay passed=%d\n",
                    job.id().c_str(), rr.rec->unit.c_str(),
                    rr.rec->passed ? 1 : 0, v ? 1 : 0);
      }
    }
    replay_journal_and_runner(env, &p, &builder, records, live, r, job_span,
                              buf, ledger, &out);
    ledger->jobs += 1;
    ledger->trials += r.trace.size();
    ledger->live += live.size();

    // Wall accounting: whatever of the search's wall the replayed layers
    // do not explain is the search's own work (queueing, hashing, logging).
    double replayed_ms = 1e-6 * static_cast<double>(buf->dur(prof));
    for (const Span& sp : buf->spans) {
      if (sp.parent == job_span && std::strcmp(sp.name, "trial") == 0) {
        replayed_ms += 1e-6 * static_cast<double>(sp.end - sp.start);
      }
    }
    const double wall_ms = 1e3 * out.search_s;
    ledger->other_ms += wall_ms - replayed_ms;
    ledger->wall_ms += wall_ms;
    std::printf("ledger %-10s wall %9.2f ms  replayed layers %9.2f ms  "
                "residue %8.2f ms (%5.1f%%)\n",
                job.id().c_str(), wall_ms, replayed_ms, wall_ms - replayed_ms,
                100.0 * (wall_ms - replayed_ms) / wall_ms);
  } catch (const std::exception& e) {
    add_failure(&out, std::string("threw: ") + e.what());
  }
  buf->close(job_span);
  return out;
}

/// Folds span self times into the ledger's layer totals.
void add_self_times(const SpanBuf& all, Ledger* l) {
  std::vector<std::uint64_t> child(all.spans.size(), 0);
  for (const Span& s : all.spans) {
    if (s.parent != kNoParent) child[s.parent] += s.end - s.start;
  }
  for (std::size_t i = 0; i < all.spans.size(); ++i) {
    const Span& s = all.spans[i];
    const std::uint64_t dur = s.end - s.start;
    const double self_ms =
        1e-6 * static_cast<double>(dur > child[i] ? dur - child[i] : 0);
    const std::string n = s.name;
    if (n == "kernels.build_image") l->build_ms += self_ms;
    else if (n == "config.index") l->index_ms += self_ms;
    else if (n == "verify.reference") l->reference_ms += self_ms;
    else if (n == "search.profile") l->profile_ms += self_ms;
    else if (n == "instrument.patch") l->patch_ms += self_ms;
    else if (n == "vm.predecode") l->predecode_ms += self_ms;
    else if (n == "verify.build") l->builder_ms += self_ms;
    else if (n == "vm.setup" || n == "vm.teardown") l->setup_ms += self_ms;
    else if (n == "vm.run") l->compile_ms += self_ms;
    else if (n == "vm.execute") l->execute_ms += self_ms;
    else if (n == "verify.check") l->check_ms += self_ms;
    else if (n == "search.commit") l->commit_ms += self_ms;
  }
}

void write_spans(const SpanBuf& all, const std::string& path) {
  std::ofstream out(path);
  std::uint64_t t0 = all.spans.empty() ? 0 : all.spans.front().start;
  for (const Span& s : all.spans) t0 = std::min(t0, s.start);
  for (std::size_t i = 0; i < all.spans.size(); ++i) {
    const Span& s = all.spans[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << (s.start - t0)
        << ",\"end_ns\":" << (s.end - t0) << ",\"parent\":"
        << (s.parent == kNoParent ? -1 : static_cast<long long>(s.parent))
        << ",\"job\":" << s.job << "}\n";
  }
}

// ---- Main ---------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string oracle_path = "searchbench/switch_oracle.tsv";
  std::string work_dir = ".bench_build/searchbench-work";
  std::string oracle_mode;  // "", "check" or "write"
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (k == "--oracle-check") {
      a->oracle_mode = "check";
    } else if (k == "--oracle-write") {
      a->oracle_mode = "write";
    } else if (!value(&v)) {
      return false;
    } else if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      char* end = nullptr;
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
      if (!(a->seconds > 0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1" ? 1 : 0;
    } else if (k == "--oracle") {
      a->oracle_path = v;
    } else if (k == "--work-dir") {
      a->work_dir = v;
    } else {
      return false;
    }
  }
  return true;
}

const char* compiler_id() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

constexpr bool kOptimisedBuild =
#if defined(__OPTIMIZE__)
    true;
#else
    false;
#endif

int usage() {
  std::fprintf(stderr,
               "usage: search_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--oracle FILE] [--work-dir DIR]\n"
               "       search_bench --oracle-check|--oracle-write "
               "[--oracle FILE]\n"
               "workloads:");
  for (const WorkloadSpec& s : workload_specs()) {
    std::fprintf(stderr, " %s", s.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int run(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& s : workload_specs()) {
    if (s.name == args.workload) spec = &s;
  }
  if (spec == nullptr) return usage();

  // Preflight: refuse numbers that would not describe an optimised build
  // running the requested engine.
  const std::string build_type = SEARCHBENCH_BUILD_TYPE;
  const bool jit_ok = vm::jit::jit_supported();
  std::printf("provenance: {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"nproc\": %ld, "
              "\"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"optimised\": %s, \"jit_supported\": %s}\n",
              spec->name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace, sysconf(_SC_NPROCESSORS_ONLN),
              compiler_id(), build_type.c_str(),
              kOptimisedBuild ? "true" : "false", jit_ok ? "true" : "false");
  if (!kOptimisedBuild || (build_type != "Release" &&
                           build_type != "RelWithDebInfo")) {
    std::fprintf(stderr, "refusing to benchmark an unoptimised build (%s)\n",
                 build_type.c_str());
    return 3;
  }
  if (spec->engine == vm::Engine::kJit && !jit_ok) {
    std::fprintf(stderr, "refusing to report %s: the JIT engine is "
                 "unavailable here (%s)\n", spec->name.c_str(),
                 vm::jit::jit_unsupported_reason());
    return 3;
  }

  Env env{*spec, {}, args.work_dir};
  if (!load_oracle(args.oracle_path, &env.oracle)) {
    std::fprintf(stderr, "cannot read oracle %s\n", args.oracle_path.c_str());
    return 2;
  }
  std::filesystem::create_directories(env.work_dir);

  const std::vector<Job> space = job_space(spec->scales);
  // Warm-up, untimed: process-wide lazy state (JIT runtime, allocator
  // arenas, page cache) is paid here, not by the first measured job.
  run_job(env, Job{"ep", spec->scales.front()});

  std::vector<JobResult> jobs;
  SpanBuf spans;
  Ledger ledger;
  const double cpu0 = cpu_seconds_with_children();
  Timer run_timer;
  std::size_t passes = 0;
  bool done = false;
  while (!done) {
    for (const Job& job : draw_pass(space, args.seed, passes)) {
      // After the first whole pass every job type has a reading, so an
      // untraced run stops at the deadline even mid-pass. A traced run
      // keeps whole passes: its per-job counts must repeat exactly.
      if (passes > 0 && args.trace == 0 &&
          run_timer.elapsed_seconds() >= args.seconds) {
        done = true;
        break;
      }
      if (args.trace == 1) {
        jobs.push_back(trace_job(env, job, jobs.size(), &spans, &ledger));
      } else {
        jobs.push_back(run_job(env, job));
      }
      if (jobs.back().failed) {
        std::printf("FAILED %s: %s\n", job.id().c_str(),
                    jobs.back().why.c_str());
      }
      if (jobs.back().jit_downgraded) {
        std::fprintf(stderr, "refusing to report %s: a job downgraded the "
                     "JIT engine\n", spec->name.c_str());
        return 3;
      }
    }
    if (!done) ++passes;
    done = done || run_timer.elapsed_seconds() >= args.seconds;
  }
  const double run_cpu = cpu_seconds_with_children() - cpu0;
  if (args.trace == 0) {
    // The next job's calibration closes each job's bracket; one more run
    // of the kernel closes the last job's.
    const double last = calibration_seconds();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const double after =
          i + 1 < jobs.size() ? jobs[i + 1].calibration_s : last;
      jobs[i].host_scale =
          kCalibrationRefSeconds / (0.5 * (jobs[i].calibration_s + after));
    }
  }
  std::filesystem::remove(replay_journal_path(env));

  // A slow spell of the host only ever adds time, and each job type --
  // every (kernel, scale) of the space, run once per pass, the passes
  // spread over the whole run -- is represented by its best reading, taken
  // after scaling each reading to reference speed. The end-to-end metrics
  // are then computed over the job types.
  const std::map<std::string, BestReading> best = best_readings(jobs, true);
  std::size_t failed = 0;
  std::size_t trials = 0;
  std::size_t fewest_runs = jobs.size();
  std::vector<double> host_scale;
  for (const JobResult& j : jobs) {
    failed += j.failed ? 1 : 0;
    trials += j.trials;
    host_scale.push_back(j.host_scale);
  }
  for (const auto& [id, b] : best) fewest_runs = std::min(fewest_runs, b.runs);
  print_job_table(jobs, best);
  std::printf("run: %zu whole pass(es), %zu job(s), %zu trial(s), %zu "
              "failed, %.2f s CPU\n", passes, jobs.size(), trials, failed,
              run_cpu);

  std::vector<Metric> metrics;
  bool correct = failed == 0;
  if (args.trace == 0) {
    std::printf("search_s samples: %zu job types, best of at least %zu "
                "run(s) each\n", best.size(), fewest_runs);
    std::printf("host scale (reference %.2f ms / calibration kernel): "
                "min %.3f, median %.3f, max %.3f\n",
                1e3 * kCalibrationRefSeconds, quantile(host_scale, 0.0),
                quantile(host_scale, 0.5), quantile(host_scale, 1.0));
    std::printf("unscaled:");
    for (const Metric& m : timed_metrics(best_readings(jobs, false))) {
      std::printf(" %s %.6g %s;", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("\n");
    metrics = timed_metrics(best);
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  } else {
    add_self_times(spans, &ledger);
    const std::string span_path = env.work_dir + "/spans-" + spec->name +
                                  "-" + std::to_string(args.seed) + ".jsonl";
    write_spans(spans, span_path);
    const double jobs_n =
        static_cast<double>(std::max<std::size_t>(1, ledger.jobs));
    const double live =
        static_cast<double>(std::max<std::size_t>(1, ledger.live));
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    std::printf("trace: %zu span(s) written to %s; %zu unresolved, %zu "
                "mismatched record(s)\n", spans.spans.size(),
                span_path.c_str(), ledger.unresolved, ledger.mismatched);
    std::printf("trace: residue %.2f ms of %.2f ms search wall (%.2f%%); "
                "tracing overhead %+.2f%% (traced %.2f ms vs untraced %.2f "
                "ms)\n", ledger.other_ms, ledger.wall_ms,
                100.0 * ratio(ledger.other_ms, ledger.wall_ms),
                100.0 * ratio(ledger.traced_ms - ledger.untraced_ms,
                              ledger.untraced_ms),
                ledger.traced_ms, ledger.untraced_ms);
    const auto share = [&](double ms) {
      return 100.0 * ratio(ms, ledger.wall_ms);
    };
    std::printf("trace: share of search wall: vm.execute %.1f%%, "
                "vm.jit_compile %.1f%%, vm.setup %.1f%%, instrument.patch "
                "%.1f%%, vm.predecode %.1f%%, verify.builder %.1f%%, "
                "verify.check %.2f%%, search.profile %.1f%%, residue %.1f%%\n",
                share(ledger.execute_ms), share(ledger.compile_ms),
                share(ledger.setup_ms), share(ledger.patch_ms),
                share(ledger.predecode_ms), share(ledger.builder_ms),
                share(ledger.check_ms), share(ledger.profile_ms),
                share(ledger.other_ms));
    correct = correct && ledger.unresolved == 0 && ledger.mismatched == 0;
    metrics = {
        {"kernels.build_ms", ledger.build_ms / jobs_n, "ms"},
        {"config.index_ms", ledger.index_ms / jobs_n, "ms"},
        {"verify.reference_ms", ledger.reference_ms / jobs_n, "ms"},
        {"search.profile_ms", ledger.profile_ms / jobs_n, "ms"},
        {"instrument.patch_ms_per_trial", ledger.patch_ms / live, "ms"},
        {"vm.predecode_ms_per_trial", ledger.predecode_ms / live, "ms"},
        {"verify.builder_ms_per_trial", ledger.builder_ms / live, "ms"},
        {"instrument.funcs_reused_frac",
         ratio(ledger.counts.funcs_reused, ledger.counts.funcs_total),
         "fraction"},
        {"verify.image_cache_hit_frac",
         ratio(ledger.counts.image_hits, ledger.counts.lookups), "fraction"},
        {"vm.setup_ms_per_trial", ledger.setup_ms / live, "ms"},
        {"vm.setup_minflt_per_trial", ledger.counts.minflt / live, "count"},
        {"vm.jit_compile_ms_per_trial", ledger.compile_ms / live, "ms"},
        {"vm.execute_ms_per_trial", ledger.execute_ms / live, "ms"},
        {"vm.execute_mips",
         ratio(ledger.counts.instructions, 1e3 * ledger.execute_ms), "MIPS"},
        {"vm.sys_ms_per_trial", ledger.counts.sys_ms / live, "ms"},
        {"verify.check_us_per_trial", 1e3 * ledger.check_ms / live, "us"},
        {"search.commit_us_per_trial", 1e3 * ledger.commit_ms / live, "us"},
        {"search.replay_ms", ledger.replay_ms / jobs_n, "ms"},
        {"resume_s.p50", quantile(ledger.resume_s, 0.5), "s"},
        {"runner.hop_ms_per_trial", ratio(ledger.hop_ms, ledger.hops), "ms"},
        {"runner.delta_frame_frac",
         ratio(ledger.delta_frames, ledger.all_frames), "fraction"},
        {"search.other_ms_per_trial",
         ledger.other_ms / static_cast<double>(ledger.trials), "ms"},
        {"search.other_frac", ratio(ledger.other_ms, ledger.wall_ms),
         "fraction"},
        {"search.trials_per_job",
         static_cast<double>(ledger.trials) / jobs_n, "count"},
        {"jobs_failed_frac",
         static_cast<double>(failed) / static_cast<double>(jobs.size()),
         "fraction"},
        {"trace.overhead_pct",
         100.0 * ratio(ledger.traced_ms - ledger.untraced_ms,
                       ledger.untraced_ms), "%"},
    };
  }
  print_result(correct, jobs.size(), failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) return usage();
  // Search warnings would interleave with the report; errors still show.
  log::set_level(log::Level::kError);
  try {
    if (!args.oracle_mode.empty()) {
      return oracle_mode(args.oracle_path, args.oracle_mode == "write");
    }
    if (args.workload.empty()) return usage();
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "search_bench: %s\n", e.what());
    return 1;
  }
}
