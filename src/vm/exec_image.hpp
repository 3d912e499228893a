// Shared predecoded images and the micro-op program representation.
//
// Constructing a vm::Machine used to repeat, per trial, work that depends
// only on the image bytes: decoding, branch-target -> instruction-index
// resolution, and (implicitly, on every retired instruction) operand-kind
// classification. ExecutableImage hoists all of it into a single build step
// whose result is immutable and shareable across Machines and threads: the
// search predecodes the unpatched reference once, and each trial predecodes
// only its freshly patched image.
//
// Lowering: every arch::Instr becomes exactly one MicroOp -- a compact
// record with pre-resolved register indices, an effective-address recipe
// (with absent base/index registers redirected to an always-zero register
// slot, so address computation is branch-free), the immediate, and a
// handler id selected by (opcode x operand shape). The execution engine
// dispatches through a function-pointer table indexed by that id, so the
// inner loop never re-inspects OperandKind.
//
// The 1:1 instruction<->micro-op mapping is load-bearing: the micro-op
// index IS the instruction index, so branch targets, profiles and trap
// diagnostics are shared verbatim with the reference switch interpreter.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/instr.hpp"
#include "program/image.hpp"
#include "vm/jit/cache.hpp"

namespace fpmix::program {
struct FuncLayout;
}  // namespace fpmix::program

namespace fpmix::vm {

/// Handler selector: one enumerator per specialized (opcode x operand
/// shape) execution routine. Suffixes: RR/RI = gpr,gpr / gpr,imm;
/// XX/XM = xmm,xmm / xmm,[mem]. The handler table in machine.cpp is
/// indexed by these values.
enum class MicroKind : std::uint16_t {
  kNop = 0,
  kHalt,
  // Control flow (imm = resolved target micro-op index).
  kJmp, kJe, kJne, kJl, kJle, kJg, kJge, kJb, kJbe, kJa, kJae,
  kCall, kRet,
  // Integer file.
  kMovRR, kMovRI, kLoad, kStore, kLea,
  kAddRR, kAddRI, kSubRR, kSubRI, kImulRR, kImulRI,
  kIdivRR, kIdivRI, kIremRR, kIremRI,
  kAndRR, kAndRI, kOrRR, kOrRI, kXorRR, kXorRI,
  kShlRR, kShlRI, kShrRR, kShrRI, kSarRR, kSarRI,
  kCmpRR, kCmpRI, kTestRR, kTestRI,
  kPush, kPop,
  // XMM data movement.
  kMovqXR, kMovqRX, kMovsdXX, kMovsdXM, kMovsdMX, kMovssXM, kMovssMX,
  kMovapdXX, kMovapdXM, kMovapdMX, kPushX, kPopX,
  // Scalar f64.
  kAddsdXX, kAddsdXM, kSubsdXX, kSubsdXM, kMulsdXX, kMulsdXM,
  kDivsdXX, kDivsdXM, kMinsdXX, kMinsdXM, kMaxsdXX, kMaxsdXM,
  kSqrtsdXX, kSqrtsdXM, kUcomisdXX, kUcomisdXM,
  kCvtsd2ssXX, kCvtsd2ssXM, kCvtss2sdXX, kCvtss2sdXM,
  kCvtsi2sd, kCvttsd2si,
  // Scalar f32.
  kAddssXX, kAddssXM, kSubssXX, kSubssXM, kMulssXX, kMulssXM,
  kDivssXX, kDivssXM, kMinssXX, kMinssXM, kMaxssXX, kMaxssXM,
  kSqrtssXX, kSqrtssXM, kUcomissXX, kUcomissXM,
  kCvtsi2ss, kCvttss2si,
  // Packed f64 / f32.
  kAddpdXX, kAddpdXM, kSubpdXX, kSubpdXM, kMulpdXX, kMulpdXM,
  kDivpdXX, kDivpdXM, kSqrtpdXX, kSqrtpdXM,
  kAddpsXX, kAddpsXM, kSubpsXX, kSubpsXM, kMulpsXX, kMulpsXM,
  kDivpsXX, kDivpsXM, kSqrtpsXX, kSqrtpsXM,
  // 128-bit bitwise.
  kAndpdXX, kAndpdXM, kOrpdXX, kOrpdXM, kXorpdXX, kXorpdXM,
  // Intrinsic call (imm = intrinsics::Id).
  kIntrin,
  // Any legal-but-unspecialized form: delegates to the switch oracle for
  // this one instruction. Lowering never fails.
  kFallback,

  kNumMicroKinds,
};

/// Index of the always-zero register slot used by effective-address
/// recipes whose base or index register is absent (Machine's gpr file has
/// arch::kNumGprs + 1 slots; only 0..15 are architecturally writable).
inline constexpr std::uint8_t kZeroRegSlot = 16;

/// One predecoded instruction. 32 bytes; everything the handler needs
/// without touching arch::Instr on the hot path.
struct MicroOp {
  std::uint16_t kind = 0;      // MicroKind, stored raw for direct indexing
  std::uint8_t a = 0;          // dst register index (gpr or xmm file)
  std::uint8_t b = 0;          // src register index
  std::uint8_t ea_base = kZeroRegSlot;   // effective-address base slot
  std::uint8_t ea_index = kZeroRegSlot;  // effective-address index slot
  std::uint8_t ea_shift = 0;             // log2 of the scale (decode-checked)
  std::uint8_t pad_ = 0;
  std::int32_t ea_disp = 0;
  std::uint32_t pad2_ = 0;
  std::int64_t imm = 0;        // immediate / branch-target index / intrin id
  std::uint64_t aux = 0;       // kCall: precomputed return address
};
static_assert(sizeof(MicroOp) == 32);

/// Lowers one decoded instruction to its micro-op (always 1:1; lowering
/// never fails). The branch/call immediate passes through untouched, so the
/// caller decides whether it holds a local or a global instruction index.
MicroOp lower_instr(const arch::Instr& ins);

/// Predecoded, position-independent form of ONE function's code: the
/// decoded instructions and lowered micro-ops of a FuncLayout, with control
/// transfers kept in local form (branch imm = instruction index *within the
/// segment*, or one-past-the-end for a branch to the function's end; call
/// imm = callee *function index*; call aux = local return offset; instr
/// addr = local byte offset). Immutable and shared: the incremental patcher
/// caches segments per (function, precision signature) and
/// ExecutableImage::build_spliced rebases any mix of them into a full
/// image without re-decoding or re-lowering.
class CodeSegment {
 public:
  /// Decodes and lowers `layout`. Throws VmError if a branch relocation
  /// does not land on an instruction boundary within the segment.
  static std::shared_ptr<const CodeSegment> build(
      const program::FuncLayout& layout);

  std::size_t instruction_count() const { return code_.size(); }
  std::size_t byte_size() const { return byte_size_; }

  const std::vector<arch::Instr>& code() const { return code_; }
  const std::vector<MicroOp>& uops() const { return uops_; }

  /// Lazily-filled native-code cache (see jit/cache.hpp): the JIT engine
  /// compiles and places a segment's local-form micro-ops at most once per
  /// profile variant, so delta trials that re-splice shared segments re-JIT
  /// only the dirty functions.
  jit::BlobCache& jit_cache() const { return jit_cache_; }

 private:
  friend class ExecutableImage;
  CodeSegment() = default;

  std::vector<arch::Instr> code_;
  std::vector<MicroOp> uops_;
  /// Instruction indices whose imm needs `+ first instruction index of this
  /// segment` (branches) or resolution through the callee's segment (calls).
  std::vector<std::uint32_t> branch_sites_;
  std::vector<std::uint32_t> call_sites_;
  std::size_t byte_size_ = 0;
  mutable jit::BlobCache jit_cache_;
};

/// An immutable, shareable execution form of a program::Image: decoded
/// instructions with control-transfer targets resolved to instruction
/// indices, and the lowered micro-op stream.
/// Build once per image; share freely across Machines and threads.
class ExecutableImage {
 public:
  static constexpr std::size_t kNoIndex = ~static_cast<std::size_t>(0);

  /// Validates and predecodes `image` (taken by value: move in to avoid the
  /// copy). Throws VmError when the image has no code, when a control
  /// transfer targets a non-boundary, or when the entry point is not an
  /// instruction boundary.
  static std::shared_ptr<const ExecutableImage> build(program::Image image);

  /// Splices predecoded per-function segments (one per function, in program
  /// order, matching `image`'s layout) into a full executable: bulk-copies
  /// each segment's instructions and micro-ops, rebases addresses, and
  /// rewrites branch/call immediates to global instruction indices. Produces
  /// a result indistinguishable from build(std::move(image)) without
  /// re-decoding or re-lowering unchanged functions. Throws VmError under
  /// exactly the same conditions (and with the same messages) as build().
  static std::shared_ptr<const ExecutableImage> build_spliced(
      program::Image image,
      const std::vector<std::shared_ptr<const CodeSegment>>& segments);

  const program::Image& image() const { return image_; }

  /// Decoded instructions. NOTE: branch/call `src.imm` fields hold
  /// *instruction indices*, not addresses (resolved at build time).
  const std::vector<arch::Instr>& code() const { return code_; }

  const std::vector<MicroOp>& uops() const { return uops_; }

  std::size_t entry_index() const { return entry_index_; }

  /// Instruction index for an address, or kNoIndex (a binary search:
  /// code() is sorted by address).
  std::size_t index_of(std::uint64_t addr) const;

  /// Segments this image was spliced from (empty when built from scratch).
  /// Holding them keeps the structural sharing alive for diagnostics.
  const std::vector<std::shared_ptr<const CodeSegment>>& segments() const {
    return segments_;
  }

  /// When spliced: global instruction index of each segment's first
  /// instruction, plus a final total-count entry (size = segments + 1).
  const std::vector<std::size_t>& segment_first_index() const {
    return segment_first_index_;
  }

  /// Lazily-filled JIT link cache: the JIT engine links a whole image at
  /// most once per profile variant, so a warm ImageCache hit carries the
  /// link table along with the predecode.
  jit::ImageJitCache& jit_cache() const { return jit_cache_; }

 private:
  ExecutableImage() = default;

  program::Image image_;
  std::vector<arch::Instr> code_;
  std::vector<MicroOp> uops_;
  std::size_t entry_index_ = 0;
  std::vector<std::shared_ptr<const CodeSegment>> segments_;
  std::vector<std::size_t> segment_first_index_;
  mutable jit::ImageJitCache jit_cache_;
};

}  // namespace fpmix::vm
