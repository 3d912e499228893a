// Baseline template JIT: lowers predecoded MicroOp streams to x86-64.
//
// Shape of the pipeline (mirrors the predecode layer one level down):
//
//   CodeSegment uops (local form) --compile_stream--> SegmentBlob
//     native code for ONE function, placed once, when it is compiled, in
//     the process-wide W^X code arena and never moved or patched again.
//     Cached on the segment (jit::BlobCache), so a delta trial compiles
//     only its dirty functions and re-uses every other blob as it stands;
//   SegmentBlobs --JitImage::link--> JitImage
//     no code: a per-function link table (FuncSlot: entry, end, byte base,
//     first index) and a per-instruction native address table for
//     resume/ret/fallback re-entry. O(functions + instructions) stores.
//     Cached on the ExecutableImage, so a warm ImageCache hit carries it.
//
// Placed code is position-independent with respect to its image. Branches
// inside a function are resolved when the blob is compiled; everything that
// depends on where the function sits in an image -- calls to other
// functions, the fall-through past the function's end, return addresses,
// the global pcs handed to helpers and the profile counter index -- is read
// at run time from the image's FuncSlot table through JitContext::funcs.
// A blob is therefore compiled for one function index and serves every
// image that splices its segment at that index.
//
// The arena is made of MAP_PRIVATE anonymous chunks, and every blob owns
// whole pages: placing one writes its pages while they are read-write, then
// flips them read+execute with one mprotect; a dead blob's pages go back to
// read-write and are reused. No page is ever writable and executable at
// once, and a fork()ed child gets private copy-on-write copies, so parent
// and child never write pages the other executes.
//
// Compiled code keeps VM state in host registers by role, not by copy: the
// register file, xmm file and memory stay in the Machine's own arrays, and
// the JIT pins *pointers* to them (plus the retired counter and budget) in
// callee-saved registers. That makes the chunked-supervision contract free:
// between chunks the supervisor reads and mutates Machine state directly,
// and re-entry just jumps to the native address of pc_.
//
//   r15 = JitContext*        r12 = gpr file base     r13 = VM memory base
//   rbx = xmm file base      r14 = retired counter   rbp = max_instructions
//
// Every guest instruction begins with the interpreter's exact sequencing:
// budget check, (profiled: counter bump), retire. Trapping paths jump to
// per-site out-of-line stubs that call C++ helpers through the context
// block; helpers compose byte-identical trap messages and never unwind into
// JIT frames. Unspecialised or rare operand forms call the generic-exec
// helper, which runs the micro-op interpreter's own handler for exactly one
// instruction -- lowering never fails, and the two engines cannot drift.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "arch/intrinsics.hpp"
#include "vm/exec_image.hpp"

namespace fpmix::vm::jit {

struct FuncSlot;

// ---------------------------------------------------------------------------
// Runtime context shared between compiled code and the C++ helpers.
// Compiled code addresses every field as [r15 + offset], so the layout is
// fixed and static_asserted; keep all offsets within disp8 range.
// ---------------------------------------------------------------------------

/// entry() return values (also JitContext::exit_status).
enum : std::uint32_t {
  kExitHalt = 0,    // clean stop: halt, or ret to the null frame
  kExitBudget = 1,  // retired reached max_instructions (exit_pc = resume pc)
  kExitTrap = 2,    // helper composed a trap (exit_pc = faulting pc)
  kExitBudgetNear = 3,  // a block-entry guard found the budget boundary
                        // inside the block: fewer than the block's retire
                        // count remain. Nothing was executed; the driver
                        // interprets from exit_pc to the exact boundary.
};

struct JitContext {
  std::uint64_t* gpr;              // +0   Machine gpr file (17 slots)
  std::uint8_t* mem_base;          // +8   VM memory
  std::uint64_t mem_size;          // +16
  void* xmm;                       // +24  Machine xmm file (16-byte stride)
  std::uint64_t retired;           // +32  synced with r14 at entry/exit/helpers
  std::uint64_t max_instructions;  // +40
  std::uint64_t* counts;           // +48  profile counters (null when off)
  std::uint64_t tag_cmp;           // +56  sentinel high word, or unmatchable
  std::uint64_t exit_pc;           // +64
  std::uint32_t exit_status;       // +72
  std::uint8_t flag_eq;            // +76  VM flags, mirrored while in JIT code
  std::uint8_t flag_lt;            // +77
  std::uint8_t flag_ltu;           // +78
  std::uint8_t pad_ = 0;           // +79
  const void* epilogue;            // +80  jmp target: restore host state, ret
  const void* help_mem_trap;       // +88  (ctx, addr, bytes, pc, is_store)
  const void* help_tag_trap;       // +96  (ctx, bits, pc)
  const void* help_exec;           // +104 (ctx, pc) -> next native addr | 0
  const void* help_ret;            // +112 (ctx, ra, pc) -> native addr | 0
  const void* help_intrin;         // +120 (ctx, pc) -> 1 | 0 on trap
  void* run_state;                 // +128 Machine-side state (trap sink)
  const void* image;               // +136 owning JitImage
  const void* help_op_trap;        // +144 (ctx, pc, msg_id) divide/cvtt traps
  const void* const* intrin_fn;    // +152 per-id double(*)(double) | null
  // One-compare bounds limits: addr >= mem_limitN  ⟺  addr + N > mem_size,
  // with no wrap possible because the address itself is compared. 0 when
  // mem_size < N (every address faults).
  std::uint64_t mem_limit8;        // +160 mem_size - 7, saturated to 0
  std::uint64_t mem_limit4;        // +168 mem_size - 3, saturated to 0
  const FuncSlot* funcs;           // +176 the image's per-function link table
};
static_assert(offsetof(JitContext, retired) == 32);
static_assert(offsetof(JitContext, tag_cmp) == 56);
static_assert(offsetof(JitContext, exit_status) == 72);
static_assert(offsetof(JitContext, flag_eq) == 76);
static_assert(offsetof(JitContext, epilogue) == 80);
static_assert(offsetof(JitContext, help_intrin) == 120);
static_assert(offsetof(JitContext, image) == 136);
static_assert(offsetof(JitContext, help_op_trap) == 144);
static_assert(offsetof(JitContext, intrin_fn) == 152);
static_assert(offsetof(JitContext, mem_limit8) == 160);
static_assert(offsetof(JitContext, mem_limit4) == 168);
static_assert(offsetof(JitContext, funcs) == 176);

/// help_op_trap message selectors (kept in one place so the helper composes
/// byte-identical interpreter trap text).
enum : std::uint32_t {
  kOpTrapDivZero = 0,       // "integer division by zero"
  kOpTrapRemZero = 1,       // "integer remainder by zero"
  kOpTrapDivOverflow = 2,   // "integer division overflow"
  kOpTrapRemOverflow = 3,   // "integer remainder overflow"
  kOpTrapCvttSdRange = 4,   // "cvttsd2si operand out of int64 range"
  kOpTrapCvttSsRange = 5,   // "cvttss2si operand out of int64 range"
};

/// tag_cmp value when the tag trap is disabled: compiled code compares
/// `bits >> 32` (always < 2^32) against this, so it can never match and no
/// separate no-trap compilation variant is needed.
inline constexpr std::uint64_t kTagCmpDisabled = 1ull << 40;

/// True for intrinsic ids whose bodies compiled code may invoke directly
/// through JitContext::intrin_fn (the hot unary math set: one f64 in, one
/// f64 out, no machine-state side effects). Must agree with the non-null
/// entries of the machine's intrin_fn table -- checked at table build time.
constexpr bool intrinsic_inlinable(std::uint16_t id) {
  using arch::intrinsics::Id;
  switch (static_cast<Id>(id)) {
    case Id::kSin: case Id::kCos: case Id::kTan:
    case Id::kExp: case Id::kLog:
    case Id::kFloor: case Id::kCeil: case Id::kFabs:
    case Id::kSinF32: case Id::kCosF32: case Id::kTanF32:
    case Id::kExpF32: case Id::kLogF32:
    case Id::kFloorF32: case Id::kCeilF32: case Id::kFabsF32:
      return true;
    default:
      return false;
  }
}

// ---------------------------------------------------------------------------
// Placed segment blobs.
// ---------------------------------------------------------------------------

/// How each micro-op was lowered, tallied per op family: "native" = inline
/// host code, "helper" = out-of-line C++ helper on the hot path
/// (intrinsic/ret), "generic" = one-instruction micro-op interpreter
/// fallback. Surfaced by bench_jit_compile and --metrics-json so
/// specialisation gaps are visible instead of silent.
struct LoweringStats {
  enum Family : int {
    kInt = 0,    // mov/lea/alu/shift/cmp/test
    kMem,        // load/store/push/pop (gpr + xmm)
    kBranch,     // jmp/jcc (incl. the branch half of fused pairs)
    kCallRet,
    kF64,        // scalar double arithmetic/compare/minmax/sqrt
    kF32,        // scalar float arithmetic/compare/minmax/sqrt
    kPacked,     // pd/ps packed arithmetic
    kBitwise,    // andpd/orpd/xorpd
    kConvert,    // cvt* conversions
    kDivRem,     // idiv/irem
    kIntrin,
    kOther,      // nop/halt/fallback
    kNumFamilies,
  };
  std::uint64_t native[kNumFamilies] = {};
  std::uint64_t generic[kNumFamilies] = {};
  std::uint64_t helper[kNumFamilies] = {};
  std::uint64_t fused_pairs = 0;  // cmp/test+jcc pairs with flags elided
  std::uint64_t reg_alloc_blocks = 0;  // blocks that got host registers
  std::uint64_t reg_alloc_slots = 0;   // guest slots promoted across blocks

  void add(const LoweringStats& o) {
    for (int f = 0; f < kNumFamilies; ++f) {
      native[f] += o.native[f];
      generic[f] += o.generic[f];
      helper[f] += o.helper[f];
    }
    fused_pairs += o.fused_pairs;
    reg_alloc_blocks += o.reg_alloc_blocks;
    reg_alloc_slots += o.reg_alloc_slots;
  }
  std::uint64_t total(const std::uint64_t* a) const {
    std::uint64_t s = 0;
    for (int f = 0; f < kNumFamilies; ++f) s += a[f];
    return s;
  }
  std::uint64_t total_native() const { return total(native); }
  std::uint64_t total_generic() const { return total(generic); }
  std::uint64_t total_helper() const { return total(helper); }
};

/// Human-readable name for a LoweringStats::Family index.
const char* lowering_family_name(int family);

/// Process-wide lowering totals accumulated by every compile_stream call
/// (internally synchronised), for --metrics-json; reset for benchmarks.
LoweringStats lowering_totals();
void reset_lowering_totals();

/// Compilation mode for a stream's control-transfer immediates.
struct CompileMode {
  /// Local form (CodeSegment): call imm = callee function index, call aux =
  /// local return byte offset, branch imm may equal the uop count (branch
  /// to the function's end). Global form (ExecutableImage::build output):
  /// call imm = callee's global instruction index, aux = absolute address.
  bool local = false;
  bool profile = false;
  /// The function index this stream occupies in every image that links it
  /// (0 for a global-form stream, which is its image's only function).
  std::uint32_t func = 0;
};

/// Native code compiled from one micro-op stream, placed in the code arena.
/// Immutable: the code stays at one address for the blob's lifetime, and
/// the blob's pages go back to the arena when the last image using it dies.
class SegmentBlob {
 public:
  SegmentBlob() = default;
  SegmentBlob(const SegmentBlob&) = delete;
  SegmentBlob& operator=(const SegmentBlob&) = delete;
  ~SegmentBlob();

  /// First byte of the sealed (read+execute) code.
  const std::uint8_t* code() const { return code_; }
  std::size_t code_size() const { return size_; }

  /// Byte offset of each instruction's native entry (size = uop count).
  std::vector<std::uint32_t> instr_off;
  /// Function index whose FuncSlot the code reads its link data from.
  std::uint32_t func = 0;
  /// Per-blob lowering census (also accumulated into lowering_totals()).
  LoweringStats stats;

 private:
  friend std::shared_ptr<const SegmentBlob> compile_stream(
      const std::vector<MicroOp>& uops, CompileMode mode);
  const std::uint8_t* code_ = nullptr;
  std::size_t size_ = 0;
};

/// Compiles one micro-op stream and places it in the code arena. Lowering
/// never fails (unspecialised forms lower to generic-exec helper calls);
/// returns nullptr only when the arena cannot map executable memory.
std::shared_ptr<const SegmentBlob> compile_stream(
    const std::vector<MicroOp>& uops, CompileMode mode);

/// Code arena occupancy: page-rounded bytes held by live blobs (and the
/// runtime thunks), and bytes mapped for the arena in total.
struct ArenaStats {
  std::size_t live_bytes = 0;
  std::size_t mapped_bytes = 0;
};
ArenaStats arena_stats();

// ---------------------------------------------------------------------------
// Linked images.
// ---------------------------------------------------------------------------

/// Link data of one function in one image. Placed code reads slot `func`
/// of JitContext::funcs; the layout is fixed and static_asserted in
/// compile.cpp.
struct FuncSlot {
  const void* entry;          // +0  native entry of its first instruction
  const void* end;            // +8  where control goes past its last one:
                              //     the next function or the off-end stub
  std::uint64_t byte_base;    // +16 guest address of its first byte
  std::uint64_t first_index;  // +24 global index of its first instruction
};
static_assert(sizeof(FuncSlot) == 32);

/// Per-function link input, in program order.
struct LinkSegment {
  std::shared_ptr<const SegmentBlob> blob;  // blob->func == its position
  std::size_t first_index;  // global index of the segment's first instruction
  std::uint64_t byte_base;  // guest byte address of the segment
};

/// The executable translation of one ExecutableImage variant: the placed
/// blobs it runs, their link table and a native address per instruction.
class JitImage {
 public:
  /// Native entry address for a global instruction index; index == count
  /// (execution fell off the end of the code) resolves to the runtime's
  /// off-end stub, which reports the condition through generic-exec.
  const void* native_addr(std::size_t index) const { return native_[index]; }
  std::size_t instruction_count() const { return native_.size() - 1; }
  const FuncSlot* funcs() const { return funcs_.data(); }

  /// Links placed blobs (one per function, in program order, matching the
  /// image's instruction numbering; `total` is the image's instruction
  /// count). Copies no code and patches nothing: fills the link table and
  /// the native address table, and keeps the blobs alive.
  static std::shared_ptr<const JitImage> link(
      std::vector<LinkSegment> segments, std::size_t total);

 private:
  JitImage() = default;
  std::vector<std::shared_ptr<const SegmentBlob>> blobs_;
  std::vector<FuncSlot> funcs_;
  std::vector<const void*> native_;  // size = total + 1
};

// ---------------------------------------------------------------------------
// Host runtime.
// ---------------------------------------------------------------------------

/// Host-state save/restore trampolines and the off-end stub, placed once
/// per process in the code arena.
struct Runtime {
  /// Enters JIT code at `start` with the context loaded; returns the exit
  /// status (kExit*).
  std::uint32_t (*entry)(JitContext*, const void* start);
  /// Address compiled code jumps to in order to leave (via ctx->epilogue).
  const void* epilogue;
  /// Target of native_addr(count) and of the last function's FuncSlot::end:
  /// reports "execution ran past the end of the code" via help_exec.
  const void* off_end;
};

/// The process-wide runtime, built on first use. Null when jit_supported()
/// is false.
const Runtime* runtime();

/// True when this host can run JIT-compiled trials: x86-64, not a sanitizer
/// build, and the kernel grants a writable-then-executable mapping (probed
/// once by emitting and running a trivial stub). Cached after the first
/// call; thread-safe.
bool jit_supported();

/// Human-readable reason jit_supported() is false ("" when supported).
const char* jit_unsupported_reason();

}  // namespace fpmix::vm::jit
