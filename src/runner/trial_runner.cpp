#include "runner/trial_runner.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <new>
#include <vector>

#include "config/config.hpp"
#include "support/strings.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define FPMIX_RUNNER_POSIX 1
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

// AddressSanitizer reserves terabytes of shadow address space; RLIMIT_AS
// would kill every worker at startup, so sandboxed builds skip that one cap
// (RLIMIT_CPU and RLIMIT_CORE still apply).
#if defined(__SANITIZE_ADDRESS__)
#define FPMIX_RUNNER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FPMIX_RUNNER_ASAN 1
#endif
#endif

namespace fpmix::runner {

bool isolation_supported() {
#if FPMIX_RUNNER_POSIX
  return true;
#else
  return false;
#endif
}

std::string signal_name(int signo) {
#if FPMIX_RUNNER_POSIX
  switch (signo) {
    case SIGSEGV: return "SIGSEGV";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGILL: return "SIGILL";
    case SIGABRT: return "SIGABRT";
    case SIGKILL: return "SIGKILL";
    case SIGTERM: return "SIGTERM";
    case SIGXCPU: return "SIGXCPU";
    default: break;
  }
#endif
  return strformat("signal %d", signo);
}

verify::FailureClass classify_death(const Worker::Death& death,
                                    std::string* detail) {
#if FPMIX_RUNNER_POSIX
  if (death.signaled && death.signal == SIGXCPU) {
    *detail = "worker hit its CPU rlimit (SIGXCPU)";
    return verify::FailureClass::kResource;
  }
#endif
  if (death.signaled) {
    *detail = strformat("worker killed by %s",
                        signal_name(death.signal).c_str());
  } else {
    *detail = strformat("worker exited with code %d", death.exit_code);
  }
  return verify::FailureClass::kCrash;
}

#if FPMIX_RUNNER_POSIX

namespace {

/// Writes all of `data` to `fd`, retrying on EINTR / short writes.
/// Returns false on any hard error (EPIPE: the reader died).
bool write_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

void apply_rlimits(const RlimitSpec& limits) {
  // No core dumps: a soak run crashes workers by the hundreds on purpose,
  // and a core per crash would fill the disk.
  rlimit core{0, 0};
  ::setrlimit(RLIMIT_CORE, &core);
#if !FPMIX_RUNNER_ASAN
  if (limits.address_space_mb > 0) {
    const rlim_t bytes =
        static_cast<rlim_t>(limits.address_space_mb) * 1024 * 1024;
    rlimit as{bytes, bytes};
    ::setrlimit(RLIMIT_AS, &as);
  }
#endif
  if (limits.cpu_seconds > 0) {
    rlimit cpu{static_cast<rlim_t>(limits.cpu_seconds),
               static_cast<rlim_t>(limits.cpu_seconds) + 2};
    ::setrlimit(RLIMIT_CPU, &cpu);
  }
}

/// Allocation storm for HardFault::kOomStorm: grabs and touches memory
/// until the allocator refuses (the rlimit path -- reported as a resource
/// failure) or a cap is reached (the ASan / uncapped path -- the storm then
/// SIGKILLs itself, modelling the kernel OOM-killer). Returns true when the
/// rlimit stopped it.
bool allocation_storm(const RlimitSpec& limits) {
  constexpr std::size_t kChunk = 8u << 20;  // 8 MiB
  // Under an address-space cap the storm must overrun it; otherwise stop
  // at a fixed ceiling so an uncapped (ASan) worker does not take the
  // machine down for real.
  const std::size_t cap_bytes =
      limits.address_space_mb > 0
          ? static_cast<std::size_t>(limits.address_space_mb + 64) * 1024 *
                1024
          : 256u << 20;
  std::vector<char*> chunks;
  bool refused = false;
  std::size_t total = 0;
  while (total < cap_bytes) {
    char* p = new (std::nothrow) char[kChunk];
    if (p == nullptr) {
      refused = true;
      break;
    }
    // Touch every page so the allocation is real, not a lazy reservation.
    for (std::size_t i = 0; i < kChunk; i += 4096) p[i] = 1;
    chunks.push_back(p);
    total += kChunk;
  }
  for (char* p : chunks) delete[] p;
  return refused;
}

/// Blocking read of at least one byte into `buf`; false on EOF or error.
bool read_some(int fd, std::string* buf) {
  char tmp[4096];
  while (true) {
    const ssize_t n = ::read(fd, tmp, sizeof(tmp));
    if (n > 0) {
      buf->append(tmp, static_cast<std::size_t>(n));
      return true;
    }
    if (n == 0) return false;
    if (errno != EINTR) return false;
  }
}

/// The worker's request loop. Never returns; exits the process directly so
/// no parent-side atexit handlers or stream flushes run twice.
[[noreturn]] void worker_child_main(int req_fd, int resp_fd,
                                    const WorkerContext& ctx,
                                    const RlimitSpec& limits) {
  apply_rlimits(limits);
  std::signal(SIGPIPE, SIG_IGN);

  // Per-session base config for delta-encoded requests. The driver mirrors
  // it on every request it successfully sends, so both sides advance in
  // lockstep; a worker death resets both (the driver clears its mirror on
  // respawn).
  config::PrecisionConfig session_base;
  bool has_base = false;

  std::string inbox;
  while (true) {
    // Assemble the next request frame.
    std::string payload;
    std::size_t consumed = 0;
    FrameStatus st;
    while ((st = decode_frame(inbox, &payload, &consumed)) ==
           FrameStatus::kNeedMore) {
      if (!read_some(req_fd, &inbox)) _exit(0);  // driver closed: shut down
    }
    if (st == FrameStatus::kCorrupt) _exit(3);
    inbox.erase(0, consumed);

    TrialRequest req;
    if (!decode_request(payload, &req)) _exit(3);

    fault::TrialFaults faults;
    if (ctx.injector != nullptr) {
      faults = ctx.injector->for_trial(req.key, req.exec_index);
    }

    // Decode the config and advance the session base BEFORE any injected
    // hard fault fires: the driver advances its mirror on every request it
    // manages to send, and a worker can survive a hard fault (kOomStorm on
    // the rlimit path) -- skipping the advance there would desync the
    // session. Every other divergence ends in worker death, which resets
    // both sides.
    config::PrecisionConfig cfg;
    if (req.opcode == kReqDelta) {
      if (!has_base || !config::PrecisionConfig::apply_delta(
                           session_base, req.config_key, &cfg)) {
        _exit(3);
      }
    } else {
      if (!config::PrecisionConfig::from_canonical_key(req.config_key,
                                                       &cfg)) {
        _exit(3);
      }
    }
    session_base = cfg;
    has_base = true;

    // Hard faults that strike before the trial completes.
    switch (faults.hard) {
      case fault::HardFault::kSegv:
        std::signal(SIGSEGV, SIG_DFL);
        ::raise(SIGSEGV);
        _exit(3);  // unreachable unless a handler swallowed it
      case fault::HardFault::kKill:
        ::raise(SIGKILL);
        _exit(3);
      case fault::HardFault::kHang:
        std::signal(SIGTERM, SIG_DFL);
        while (true) ::pause();
      case fault::HardFault::kHangIgnoreTerm:
        std::signal(SIGTERM, SIG_IGN);
        while (true) ::pause();
      default:
        break;
    }

    verify::EvalResult result;
    if (faults.hard == fault::HardFault::kOomStorm) {
      if (allocation_storm(limits)) {
        // The rlimit refused the storm: a clean resource verdict the
        // supervisor treats like a worker death (retry, then quarantine).
        result.passed = false;
        result.failure_class = verify::FailureClass::kResource;
        result.failure = "out of memory (rlimit refused allocation storm)";
      } else {
        ::raise(SIGKILL);  // uncapped: the OOM-killer analogue
        _exit(3);
      }
    } else {
      verify::EvalOptions eopts = ctx.eval;
      if (faults.vm.kind != fault::VmFault::kNone || faults.flip_verdict) {
        eopts.faults = &faults;
      }
      result = verify::evaluate_config(*ctx.image, *ctx.index, cfg,
                                       *ctx.verifier, eopts);
    }

    std::string frame = encode_frame(encode_result(result));
    if (faults.hard == fault::HardFault::kTruncResult) {
      frame.resize(frame.size() / 2);  // deliver half a frame, then die
      write_all(resp_fd, frame);
      _exit(4);
    }
    if (faults.hard == fault::HardFault::kCorruptResult) {
      // Flip one payload byte: the CRC catches it on the driver side.
      frame[8 + faults.hard_seed % std::max<std::size_t>(
                                       1, frame.size() - 12)] ^= 0x40;
      write_all(resp_fd, frame);
      _exit(4);
    }
    if (!write_all(resp_fd, frame)) _exit(0);  // driver went away
  }
}

}  // namespace

Worker::~Worker() { shutdown(); }

bool Worker::spawn(const WorkerContext& ctx, const RlimitSpec& limits) {
  shutdown();
  // The driver writes into a dead worker's request pipe when a crash races
  // a send; that must surface as EPIPE, not a fatal SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  int req[2] = {-1, -1};
  int resp[2] = {-1, -1};
  if (::pipe(req) != 0) return false;
  if (::pipe(resp) != 0) {
    ::close(req[0]);
    ::close(req[1]);
    return false;
  }

  const int pid = ::fork();
  if (pid < 0) {
    for (int fd : {req[0], req[1], resp[0], resp[1]}) ::close(fd);
    return false;
  }
  if (pid == 0) {
    ::close(req[1]);
    ::close(resp[0]);
    // Drop every other inherited descriptor -- in particular the pipe ends
    // of previously-spawned siblings. A sibling's inherited request-pipe
    // write end would otherwise keep that worker's read from ever hitting
    // EOF, so orphaned workers would pin each other alive after the driver
    // dies without reaping them.
    const int keep_lo = req[0] < resp[1] ? req[0] : resp[1];
    const int keep_hi = req[0] < resp[1] ? resp[1] : req[0];
    for (int fd = 3; fd < 1024; ++fd) {
      if (fd != keep_lo && fd != keep_hi) ::close(fd);
    }
    worker_child_main(req[0], resp[1], ctx, limits);
  }
  ::close(req[0]);
  ::close(resp[1]);
  // The supervisor multiplexes responses with poll; reads must not block.
  ::fcntl(resp[0], F_SETFL, O_NONBLOCK);
  pid_ = pid;
  req_fd_ = req[1];
  resp_fd_ = resp[0];
  buf_.clear();
  return true;
}

bool Worker::send_request(const TrialRequest& req) {
  if (req_fd_ < 0) return false;
  return write_all(req_fd_, encode_frame(encode_request(req)));
}

FrameStatus Worker::read_result(std::string* payload, bool* eof) {
  *eof = false;
  if (resp_fd_ < 0) {
    *eof = true;
    return FrameStatus::kNeedMore;
  }
  char tmp[4096];
  while (true) {
    const ssize_t n = ::read(resp_fd_, tmp, sizeof(tmp));
    if (n > 0) {
      buf_.append(tmp, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      *eof = true;
      break;
    }
    if (errno == EINTR) continue;
    break;  // EAGAIN: drained what was available
  }
  std::size_t consumed = 0;
  const FrameStatus st = decode_frame(buf_, payload, &consumed);
  if (st == FrameStatus::kOk) {
    buf_.erase(0, consumed);
    return FrameStatus::kOk;
  }
  if (st == FrameStatus::kCorrupt) return FrameStatus::kCorrupt;
  // A stream that ended mid-frame is a truncated delivery: corruption.
  if (*eof && !buf_.empty()) return FrameStatus::kCorrupt;
  return FrameStatus::kNeedMore;
}

void Worker::send_sigterm() {
  if (pid_ > 0) ::kill(pid_, SIGTERM);
}

void Worker::send_sigkill() {
  if (pid_ > 0) ::kill(pid_, SIGKILL);
}

bool Worker::reap(Death* death, bool block) {
  if (pid_ <= 0) return false;
  int status = 0;
  const int r = ::waitpid(pid_, &status, block ? 0 : WNOHANG);
  if (r == 0) return false;  // still running
  *death = Death{};
  if (r == pid_) {
    if (WIFSIGNALED(status)) {
      death->signaled = true;
      death->signal = WTERMSIG(status);
    } else if (WIFEXITED(status)) {
      death->exit_code = WEXITSTATUS(status);
    }
  }
  // r < 0 (ECHILD etc.): nothing to learn; report a generic exit.
  pid_ = -1;
  if (req_fd_ >= 0) ::close(req_fd_);
  if (resp_fd_ >= 0) ::close(resp_fd_);
  req_fd_ = resp_fd_ = -1;
  buf_.clear();
  return true;
}

void Worker::shutdown() {
  if (pid_ <= 0) return;
  if (req_fd_ >= 0) ::close(req_fd_);
  if (resp_fd_ >= 0) ::close(resp_fd_);
  req_fd_ = resp_fd_ = -1;
  // Closing the request pipe asks the child to exit; workers stuck in a
  // fault-injected hang need force. SIGKILL is safe: workers hold no state
  // the driver has not already received.
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  buf_.clear();
}

#else  // !FPMIX_RUNNER_POSIX — stubs; isolation_supported() is false.

Worker::~Worker() {}
bool Worker::spawn(const WorkerContext&, const RlimitSpec&) { return false; }
bool Worker::send_request(const TrialRequest&) { return false; }
FrameStatus Worker::read_result(std::string*, bool* eof) {
  *eof = true;
  return FrameStatus::kNeedMore;
}
void Worker::send_sigterm() {}
void Worker::send_sigkill() {}
bool Worker::reap(Death*, bool) { return false; }
void Worker::shutdown() {}

#endif

}  // namespace fpmix::runner
