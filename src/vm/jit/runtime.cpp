// Host side of the JIT: the code arena, the entry/epilogue thunks, the
// capability probe, and the linker.
//
// Everything here is mechanism-only: policy (when to JIT, cache lookup,
// helper semantics) lives with the Machine in machine.cpp. Blobs are placed
// in the arena when they are compiled, so linking an image is just filling
// its FuncSlot table and native address table -- no code is copied or
// patched.

#include <algorithm>
#include <cstring>
#include <map>
#include <mutex>

#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>

#include "support/error.hpp"
#include "vm/jit/emitter.hpp"
#include "vm/jit/jit.hpp"

// Compile-time disqualifiers. Sanitizers intercept neither the generated
// code nor its stack discipline, so running JIT'd frames under them produces
// false positives (and hides true ones); the engine downgrades instead.
#if !defined(__x86_64__)
#define FPMIX_JIT_OFF "host is not x86-64"
#elif defined(FPMIX_SANITIZER_BUILD) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
#define FPMIX_JIT_OFF "sanitizer build"
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define FPMIX_JIT_OFF "sanitizer build"
#endif
#endif

namespace fpmix::vm::jit {
namespace {

// JitContext displacements used by the thunks and the off-end stub (the full
// table lives in compile.cpp; both are static_asserted against the struct).
constexpr std::int32_t kCtxGpr = 0;
constexpr std::int32_t kCtxMemBase = 8;
constexpr std::int32_t kCtxXmm = 24;
constexpr std::int32_t kCtxRetired = 32;
constexpr std::int32_t kCtxMaxInstructions = 40;
constexpr std::int32_t kCtxExitStatus = 72;
constexpr std::int32_t kCtxEpilogue = 80;
constexpr std::int32_t kCtxHelpExec = 104;
static_assert(offsetof(JitContext, gpr) == kCtxGpr);
static_assert(offsetof(JitContext, mem_base) == kCtxMemBase);
static_assert(offsetof(JitContext, xmm) == kCtxXmm);
static_assert(offsetof(JitContext, max_instructions) == kCtxMaxInstructions);
static_assert(offsetof(JitContext, help_exec) == kCtxHelpExec);

}  // namespace

// ---------------------------------------------------------------------------
// Code arena
// ---------------------------------------------------------------------------

namespace {

/// Process-wide W^X arena of MAP_PRIVATE anonymous chunks. Every placement
/// owns whole pages, so sealing one blob's pages never touches a page
/// another thread may be executing; free runs stay read-write (placing
/// costs one mprotect) and coalesce with their neighbours. Chunks stay
/// mapped for the life of the process, so the mapped size is bounded by
/// the peak live size. Private mappings make fork() safe: the child's
/// placements and releases write its own copy-on-write pages.
class CodeArena {
 public:
  /// Chunks are small so JIT keeps working in workers run under a tight
  /// RLIMIT_AS; a blob larger than a chunk gets a chunk of its own size.
  static constexpr std::size_t kChunkBytes = std::size_t{256} << 10;

  /// Never destroyed: blobs owned by other statics may be released
  /// during exit, after any function-local static would be gone.
  static CodeArena& arena() {
    static CodeArena* a = new CodeArena;
    return *a;
  }

  /// Copies `size` bytes of code into a fresh page run and seals it
  /// read+execute. Returns nullptr when no executable memory is available.
  const std::uint8_t* place(const std::uint8_t* code, std::size_t size) {
    const std::size_t bytes = round_up(size);
    std::uint8_t* p = take(bytes);
    if (p == nullptr) return nullptr;
    std::memcpy(p, code, size);
    if (::mprotect(p, bytes, PROT_READ | PROT_EXEC) != 0) {
      give(p, bytes, 0);
      return nullptr;
    }
    std::lock_guard<std::mutex> lock(mu_);
    live_ += bytes;
    return p;
  }

  /// Returns a placed run to the free list, read-write again. A run that
  /// cannot be made writable is leaked, never reused.
  void release(const std::uint8_t* code, std::size_t size) {
    const std::size_t bytes = round_up(size);
    auto* p = const_cast<std::uint8_t*>(code);
    const bool writable = ::mprotect(p, bytes, PROT_READ | PROT_WRITE) == 0;
    give(writable ? p : nullptr, bytes, bytes);
  }

  ArenaStats stats() {
    std::lock_guard<std::mutex> lock(mu_);
    return {live_, mapped_};
  }

 private:
  CodeArena() : page_(static_cast<std::size_t>(::sysconf(_SC_PAGESIZE))) {
    // A fork() while another thread holds the lock would leave the child
    // unable to place anything; hold it across the fork instead.
    ::pthread_atfork([] { arena().mu_.lock(); },
                     [] { arena().mu_.unlock(); },
                     [] { arena().mu_.unlock(); });
  }

  std::size_t round_up(std::size_t n) const {
    return (std::max<std::size_t>(n, 1) + page_ - 1) / page_ * page_;
  }

  /// First-fit: carves `bytes` off the lowest free run that holds them,
  /// mapping a new chunk when none does.
  std::uint8_t* take(std::size_t bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = free_.begin();
    while (it != free_.end() && it->second < bytes) ++it;
    if (it == free_.end()) {
      const std::size_t chunk = std::max(kChunkBytes, bytes);
      void* m = ::mmap(nullptr, chunk, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (m == MAP_FAILED) return nullptr;
      mapped_ += chunk;
      it = insert(reinterpret_cast<std::uintptr_t>(m), chunk);
    }
    const std::uintptr_t start = it->first;
    const std::size_t run = it->second;
    free_.erase(it);
    if (run > bytes) free_.emplace(start + bytes, run - bytes);
    return reinterpret_cast<std::uint8_t*>(start);
  }

  /// Puts a run (null: none) back on the free list and takes `live`
  /// bytes off the live count.
  void give(std::uint8_t* p, std::size_t bytes, std::size_t live) {
    std::lock_guard<std::mutex> lock(mu_);
    live_ -= live;
    if (p != nullptr) insert(reinterpret_cast<std::uintptr_t>(p), bytes);
  }

  /// Inserts a free run, merging it with address-adjacent free runs (which
  /// may lie in a neighbouring chunk: mprotect spans mappings that touch).
  std::map<std::uintptr_t, std::size_t>::iterator insert(
      std::uintptr_t start, std::size_t bytes) {
    auto next = free_.lower_bound(start);
    if (next != free_.end() && start + bytes == next->first) {
      bytes += next->second;
      next = free_.erase(next);
    }
    if (next != free_.begin()) {
      auto prev = std::prev(next);
      if (prev->first + prev->second == start) {
        prev->second += bytes;
        return prev;
      }
    }
    return free_.emplace_hint(next, start, bytes);
  }

  std::mutex mu_;
  const std::size_t page_;
  std::map<std::uintptr_t, std::size_t> free_;  // run start -> bytes
  std::size_t live_ = 0;
  std::size_t mapped_ = 0;
};

}  // namespace

SegmentBlob::~SegmentBlob() {
  if (code_ != nullptr) CodeArena::arena().release(code_, size_);
}

ArenaStats arena_stats() { return CodeArena::arena().stats(); }

const std::uint8_t* place_code(const std::vector<std::uint8_t>& code) {
  return CodeArena::arena().place(code.data(), code.size());
}

// ---------------------------------------------------------------------------
// Runtime thunks + capability probe
// ---------------------------------------------------------------------------

namespace {

struct RuntimeHolder {
  Runtime rt{};
  bool ok = false;
  const char* reason = "";
};

void init_runtime(RuntimeHolder& r) {
#ifdef FPMIX_JIT_OFF
  r.reason = FPMIX_JIT_OFF;
#else
    // Probe: some hardened kernels (or seccomp'd runner children) refuse
    // PROT_EXEC on anonymous mappings. Emit and run a trivial stub before
    // promising anything.
    {
      Emitter probe;
      probe.mov_ri32(RAX, 42);
      probe.ret();
      const std::uint8_t* p = place_code(probe.code);
      if (p == nullptr) {
        r.reason = "kernel refused a writable-then-executable mapping";
        return;
      }
      auto fn = reinterpret_cast<std::uint32_t (*)()>(
          reinterpret_cast<std::uintptr_t>(p));
      const std::uint32_t got = fn();
      CodeArena::arena().release(p, probe.code.size());
      if (got != 42) {
        r.reason = "executable-memory probe returned garbage";
        return;
      }
    }

    // entry(JitContext* rdi, const void* start rsi): save host callee-saved
    // state, pin the VM bases, and jump into compiled code. The extra 8
    // bytes keep rsp 16-aligned at the helper call sites inside JIT code.
    Emitter t;
    t.push_r(RBP);
    t.push_r(RBX);
    t.push_r(R12);
    t.push_r(R13);
    t.push_r(R14);
    t.push_r(R15);
    t.alu_ri8(Alu::kSub, RSP, 8);
    t.mov_rr(R15, RDI);
    t.mov_rm(R12, R15, kCtxGpr);
    t.mov_rm(R13, R15, kCtxMemBase);
    t.mov_rm(RBX, R15, kCtxXmm);
    t.mov_rm(R14, R15, kCtxRetired);
    t.mov_rm(RBP, R15, kCtxMaxInstructions);
    t.jmp_r(RSI);

    // epilogue (reached via jmp [r15+epilogue]): publish the retired count,
    // return the exit status.
    const std::size_t epi_off = t.size();
    t.mov_mr(R15, kCtxRetired, R14);
    t.mov_rm32(RAX, R15, kCtxExitStatus);
    t.alu_ri8(Alu::kAdd, RSP, 8);
    t.pop_r(R15);
    t.pop_r(R14);
    t.pop_r(R13);
    t.pop_r(R12);
    t.pop_r(RBX);
    t.pop_r(RBP);
    t.ret();

    // off-end stub: execution ran past the last instruction of the image
    // (native_addr(count), or the last function's FuncSlot::end). Any pc at
    // or past the end makes help_exec report the condition at the end.
    const std::size_t off_end_off = t.size();
    t.mov_mr(R15, kCtxRetired, R14);
    t.mov_ri32(RSI, 0xFFFFFFFFu);
    t.mov_rr(RDI, R15);
    t.call_m(R15, kCtxHelpExec);
    t.jmp_m(R15, kCtxEpilogue);

    const std::uint8_t* base = place_code(t.code);
    if (base == nullptr) {
      r.reason = "kernel refused a writable-then-executable mapping";
      return;
    }
    r.rt.entry = reinterpret_cast<std::uint32_t (*)(JitContext*, const void*)>(
        reinterpret_cast<std::uintptr_t>(base));
    r.rt.epilogue = base + epi_off;
    r.rt.off_end = base + off_end_off;
    r.ok = true;
#endif
}

RuntimeHolder& holder() {
  static RuntimeHolder h;
  static const bool initialised = (init_runtime(h), true);
  (void)initialised;
  return h;
}

}  // namespace

const Runtime* runtime() {
  RuntimeHolder& h = holder();
  return h.ok ? &h.rt : nullptr;
}

bool jit_supported() { return holder().ok; }

const char* jit_unsupported_reason() { return holder().reason; }

// ---------------------------------------------------------------------------
// JitImage::link
// ---------------------------------------------------------------------------

std::shared_ptr<const JitImage> JitImage::link(
    std::vector<LinkSegment> segments, std::size_t total) {
  const Runtime* rt = runtime();
  FPMIX_CHECK(rt != nullptr);
  std::shared_ptr<JitImage> img(new JitImage());
  img->native_.resize(total + 1);
  std::size_t next = 0;
  for (const LinkSegment& s : segments) {
    const SegmentBlob& b = *s.blob;
    FPMIX_CHECK(s.first_index == next);
    next += b.instr_off.size();
    FPMIX_CHECK(next <= total);
    const void** out = img->native_.data() + s.first_index;
    for (std::size_t j = 0; j < b.instr_off.size(); ++j) {
      out[j] = b.code() + b.instr_off[j];
    }
  }
  FPMIX_CHECK(next == total);
  img->native_[total] = rt->off_end;

  img->funcs_.reserve(segments.size());
  img->blobs_.reserve(segments.size());
  for (std::size_t f = 0; f < segments.size(); ++f) {
    LinkSegment& s = segments[f];
    FPMIX_CHECK(s.blob->func == f);
    const std::size_t end = s.first_index + s.blob->instr_off.size();
    img->funcs_.push_back({img->native_[s.first_index], img->native_[end],
                           s.byte_base, s.first_index});
    img->blobs_.push_back(std::move(s.blob));
  }
  return img;
}

}  // namespace fpmix::vm::jit
