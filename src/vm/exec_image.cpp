#include "vm/exec_image.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "arch/encode.hpp"
#include "arch/opcode.hpp"
#include "program/layout.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace fpmix::vm {

using arch::Instr;
using arch::Opcode;
using arch::Operand;

namespace {

void fill_ea(const arch::MemRef& m, MicroOp* u) {
  u->ea_base = m.base == arch::kNoReg ? kZeroRegSlot : m.base;
  u->ea_index = m.index == arch::kNoReg ? kZeroRegSlot : m.index;
  // Decode guarantees scale is 1/2/4/8; a shift keeps the index term off
  // the multiplier on the engine's address critical path.
  u->ea_shift = static_cast<std::uint8_t>(std::countr_zero(m.scale));
  u->ea_disp = m.disp;
}

/// Picks the XX or XM variant of an FP op from the src operand and fills
/// the shared fields (dst xmm in `a`; src xmm in `b` or the address
/// recipe). Returns kFallback for any form the specialization set does not
/// cover, which the engine executes through the switch oracle.
MicroKind xmm_variant(const Instr& ins, MicroKind xx, MicroKind xm,
                      MicroOp* u) {
  if (!ins.dst.is_xmm()) return MicroKind::kFallback;
  u->a = ins.dst.reg;
  if (ins.src.is_xmm()) {
    u->b = ins.src.reg;
    return xx;
  }
  if (ins.src.is_mem()) {
    fill_ea(ins.src.mem, u);
    return xm;
  }
  return MicroKind::kFallback;
}

/// Same scheme for two-operand integer ops (gpr,gpr / gpr,imm).
MicroKind int_variant(const Instr& ins, MicroKind rr, MicroKind ri,
                      MicroOp* u) {
  if (!ins.dst.is_gpr()) return MicroKind::kFallback;
  u->a = ins.dst.reg;
  if (ins.src.is_gpr()) {
    u->b = ins.src.reg;
    return rr;
  }
  if (ins.src.is_imm()) {
    u->imm = ins.src.imm;
    return ri;
  }
  return MicroKind::kFallback;
}

}  // namespace

MicroOp lower_instr(const Instr& ins) {
  MicroOp u;
  const auto set = [&u](MicroKind k) {
    u.kind = static_cast<std::uint16_t>(k);
  };
  switch (ins.op) {
    case Opcode::kNop: set(MicroKind::kNop); break;
    case Opcode::kHalt: set(MicroKind::kHalt); break;

    case Opcode::kJmp: set(MicroKind::kJmp); u.imm = ins.src.imm; break;
    case Opcode::kJe: set(MicroKind::kJe); u.imm = ins.src.imm; break;
    case Opcode::kJne: set(MicroKind::kJne); u.imm = ins.src.imm; break;
    case Opcode::kJl: set(MicroKind::kJl); u.imm = ins.src.imm; break;
    case Opcode::kJle: set(MicroKind::kJle); u.imm = ins.src.imm; break;
    case Opcode::kJg: set(MicroKind::kJg); u.imm = ins.src.imm; break;
    case Opcode::kJge: set(MicroKind::kJge); u.imm = ins.src.imm; break;
    case Opcode::kJb: set(MicroKind::kJb); u.imm = ins.src.imm; break;
    case Opcode::kJbe: set(MicroKind::kJbe); u.imm = ins.src.imm; break;
    case Opcode::kJa: set(MicroKind::kJa); u.imm = ins.src.imm; break;
    case Opcode::kJae: set(MicroKind::kJae); u.imm = ins.src.imm; break;
    case Opcode::kCall:
      set(MicroKind::kCall);
      u.imm = ins.src.imm;
      u.aux = ins.addr + ins.size;  // return address, precomputed
      break;
    case Opcode::kRet: set(MicroKind::kRet); break;

    case Opcode::kMov:
      set(int_variant(ins, MicroKind::kMovRR, MicroKind::kMovRI, &u));
      break;
    case Opcode::kLoad:
      if (ins.dst.is_gpr() && ins.src.is_mem()) {
        set(MicroKind::kLoad);
        u.a = ins.dst.reg;
        fill_ea(ins.src.mem, &u);
      } else {
        set(MicroKind::kFallback);
      }
      break;
    case Opcode::kStore:
      if (ins.dst.is_mem() && ins.src.is_gpr()) {
        set(MicroKind::kStore);
        u.b = ins.src.reg;
        fill_ea(ins.dst.mem, &u);
      } else {
        set(MicroKind::kFallback);
      }
      break;
    case Opcode::kLea:
      if (ins.dst.is_gpr() && ins.src.is_mem()) {
        set(MicroKind::kLea);
        u.a = ins.dst.reg;
        fill_ea(ins.src.mem, &u);
      } else {
        set(MicroKind::kFallback);
      }
      break;

    case Opcode::kAdd:
      set(int_variant(ins, MicroKind::kAddRR, MicroKind::kAddRI, &u));
      break;
    case Opcode::kSub:
      set(int_variant(ins, MicroKind::kSubRR, MicroKind::kSubRI, &u));
      break;
    case Opcode::kImul:
      set(int_variant(ins, MicroKind::kImulRR, MicroKind::kImulRI, &u));
      break;
    case Opcode::kIdiv:
      set(int_variant(ins, MicroKind::kIdivRR, MicroKind::kIdivRI, &u));
      break;
    case Opcode::kIrem:
      set(int_variant(ins, MicroKind::kIremRR, MicroKind::kIremRI, &u));
      break;
    case Opcode::kAnd:
      set(int_variant(ins, MicroKind::kAndRR, MicroKind::kAndRI, &u));
      break;
    case Opcode::kOr:
      set(int_variant(ins, MicroKind::kOrRR, MicroKind::kOrRI, &u));
      break;
    case Opcode::kXor:
      set(int_variant(ins, MicroKind::kXorRR, MicroKind::kXorRI, &u));
      break;
    case Opcode::kShl:
      set(int_variant(ins, MicroKind::kShlRR, MicroKind::kShlRI, &u));
      break;
    case Opcode::kShr:
      set(int_variant(ins, MicroKind::kShrRR, MicroKind::kShrRI, &u));
      break;
    case Opcode::kSar:
      set(int_variant(ins, MicroKind::kSarRR, MicroKind::kSarRI, &u));
      break;
    case Opcode::kCmp:
      set(int_variant(ins, MicroKind::kCmpRR, MicroKind::kCmpRI, &u));
      break;
    case Opcode::kTest:
      set(int_variant(ins, MicroKind::kTestRR, MicroKind::kTestRI, &u));
      break;
    case Opcode::kPush: set(MicroKind::kPush); u.a = ins.dst.reg; break;
    case Opcode::kPop: set(MicroKind::kPop); u.a = ins.dst.reg; break;

    case Opcode::kMovqXR:
      set(MicroKind::kMovqXR);
      u.a = ins.dst.reg;
      u.b = ins.src.reg;
      break;
    case Opcode::kMovqRX:
      set(MicroKind::kMovqRX);
      u.a = ins.dst.reg;
      u.b = ins.src.reg;
      break;
    case Opcode::kMovsdXX:
      set(MicroKind::kMovsdXX);
      u.a = ins.dst.reg;
      u.b = ins.src.reg;
      break;
    case Opcode::kMovsdXM:
      set(MicroKind::kMovsdXM);
      u.a = ins.dst.reg;
      fill_ea(ins.src.mem, &u);
      break;
    case Opcode::kMovsdMX:
      set(MicroKind::kMovsdMX);
      u.b = ins.src.reg;
      fill_ea(ins.dst.mem, &u);
      break;
    case Opcode::kMovssXM:
      set(MicroKind::kMovssXM);
      u.a = ins.dst.reg;
      fill_ea(ins.src.mem, &u);
      break;
    case Opcode::kMovssMX:
      set(MicroKind::kMovssMX);
      u.b = ins.src.reg;
      fill_ea(ins.dst.mem, &u);
      break;
    case Opcode::kMovapdXX:
      set(MicroKind::kMovapdXX);
      u.a = ins.dst.reg;
      u.b = ins.src.reg;
      break;
    case Opcode::kMovapdXM:
      set(MicroKind::kMovapdXM);
      u.a = ins.dst.reg;
      fill_ea(ins.src.mem, &u);
      break;
    case Opcode::kMovapdMX:
      set(MicroKind::kMovapdMX);
      u.b = ins.src.reg;
      fill_ea(ins.dst.mem, &u);
      break;
    case Opcode::kPushX: set(MicroKind::kPushX); u.a = ins.dst.reg; break;
    case Opcode::kPopX: set(MicroKind::kPopX); u.a = ins.dst.reg; break;

    case Opcode::kAddsd:
      set(xmm_variant(ins, MicroKind::kAddsdXX, MicroKind::kAddsdXM, &u));
      break;
    case Opcode::kSubsd:
      set(xmm_variant(ins, MicroKind::kSubsdXX, MicroKind::kSubsdXM, &u));
      break;
    case Opcode::kMulsd:
      set(xmm_variant(ins, MicroKind::kMulsdXX, MicroKind::kMulsdXM, &u));
      break;
    case Opcode::kDivsd:
      set(xmm_variant(ins, MicroKind::kDivsdXX, MicroKind::kDivsdXM, &u));
      break;
    case Opcode::kMinsd:
      set(xmm_variant(ins, MicroKind::kMinsdXX, MicroKind::kMinsdXM, &u));
      break;
    case Opcode::kMaxsd:
      set(xmm_variant(ins, MicroKind::kMaxsdXX, MicroKind::kMaxsdXM, &u));
      break;
    case Opcode::kSqrtsd:
      set(xmm_variant(ins, MicroKind::kSqrtsdXX, MicroKind::kSqrtsdXM, &u));
      break;
    case Opcode::kUcomisd:
      set(xmm_variant(ins, MicroKind::kUcomisdXX, MicroKind::kUcomisdXM,
                      &u));
      break;
    case Opcode::kCvtsd2ss:
      set(xmm_variant(ins, MicroKind::kCvtsd2ssXX, MicroKind::kCvtsd2ssXM,
                      &u));
      break;
    case Opcode::kCvtss2sd:
      set(xmm_variant(ins, MicroKind::kCvtss2sdXX, MicroKind::kCvtss2sdXM,
                      &u));
      break;
    case Opcode::kCvtsi2sd:
      set(MicroKind::kCvtsi2sd);
      u.a = ins.dst.reg;
      u.b = ins.src.reg;
      break;
    case Opcode::kCvttsd2si:
      set(MicroKind::kCvttsd2si);
      u.a = ins.dst.reg;
      u.b = ins.src.reg;
      break;

    case Opcode::kAddss:
      set(xmm_variant(ins, MicroKind::kAddssXX, MicroKind::kAddssXM, &u));
      break;
    case Opcode::kSubss:
      set(xmm_variant(ins, MicroKind::kSubssXX, MicroKind::kSubssXM, &u));
      break;
    case Opcode::kMulss:
      set(xmm_variant(ins, MicroKind::kMulssXX, MicroKind::kMulssXM, &u));
      break;
    case Opcode::kDivss:
      set(xmm_variant(ins, MicroKind::kDivssXX, MicroKind::kDivssXM, &u));
      break;
    case Opcode::kMinss:
      set(xmm_variant(ins, MicroKind::kMinssXX, MicroKind::kMinssXM, &u));
      break;
    case Opcode::kMaxss:
      set(xmm_variant(ins, MicroKind::kMaxssXX, MicroKind::kMaxssXM, &u));
      break;
    case Opcode::kSqrtss:
      set(xmm_variant(ins, MicroKind::kSqrtssXX, MicroKind::kSqrtssXM, &u));
      break;
    case Opcode::kUcomiss:
      set(xmm_variant(ins, MicroKind::kUcomissXX, MicroKind::kUcomissXM,
                      &u));
      break;
    case Opcode::kCvtsi2ss:
      set(MicroKind::kCvtsi2ss);
      u.a = ins.dst.reg;
      u.b = ins.src.reg;
      break;
    case Opcode::kCvttss2si:
      set(MicroKind::kCvttss2si);
      u.a = ins.dst.reg;
      u.b = ins.src.reg;
      break;

    case Opcode::kAddpd:
      set(xmm_variant(ins, MicroKind::kAddpdXX, MicroKind::kAddpdXM, &u));
      break;
    case Opcode::kSubpd:
      set(xmm_variant(ins, MicroKind::kSubpdXX, MicroKind::kSubpdXM, &u));
      break;
    case Opcode::kMulpd:
      set(xmm_variant(ins, MicroKind::kMulpdXX, MicroKind::kMulpdXM, &u));
      break;
    case Opcode::kDivpd:
      set(xmm_variant(ins, MicroKind::kDivpdXX, MicroKind::kDivpdXM, &u));
      break;
    case Opcode::kSqrtpd:
      set(xmm_variant(ins, MicroKind::kSqrtpdXX, MicroKind::kSqrtpdXM, &u));
      break;
    case Opcode::kAddps:
      set(xmm_variant(ins, MicroKind::kAddpsXX, MicroKind::kAddpsXM, &u));
      break;
    case Opcode::kSubps:
      set(xmm_variant(ins, MicroKind::kSubpsXX, MicroKind::kSubpsXM, &u));
      break;
    case Opcode::kMulps:
      set(xmm_variant(ins, MicroKind::kMulpsXX, MicroKind::kMulpsXM, &u));
      break;
    case Opcode::kDivps:
      set(xmm_variant(ins, MicroKind::kDivpsXX, MicroKind::kDivpsXM, &u));
      break;
    case Opcode::kSqrtps:
      set(xmm_variant(ins, MicroKind::kSqrtpsXX, MicroKind::kSqrtpsXM, &u));
      break;

    case Opcode::kAndpd:
      set(xmm_variant(ins, MicroKind::kAndpdXX, MicroKind::kAndpdXM, &u));
      break;
    case Opcode::kOrpd:
      set(xmm_variant(ins, MicroKind::kOrpdXX, MicroKind::kOrpdXM, &u));
      break;
    case Opcode::kXorpd:
      set(xmm_variant(ins, MicroKind::kXorpdXX, MicroKind::kXorpdXM, &u));
      break;

    case Opcode::kIntrin:
      set(MicroKind::kIntrin);
      u.imm = ins.src.imm;
      break;

    default:
      set(MicroKind::kFallback);
      break;
  }
  return u;
}

namespace {

/// Index of the instruction at `addr` in `code` (sorted by address, as
/// decode_all and splicing produce it), or ExecutableImage::kNoIndex.
std::size_t find_addr(const std::vector<Instr>& code, std::uint64_t addr) {
  const auto it = std::lower_bound(
      code.begin(), code.end(), addr,
      [](const Instr& ins, std::uint64_t a) { return ins.addr < a; });
  if (it == code.end() || it->addr != addr) return ExecutableImage::kNoIndex;
  return static_cast<std::size_t>(it - code.begin());
}

}  // namespace

std::size_t ExecutableImage::index_of(std::uint64_t addr) const {
  return find_addr(code_, addr);
}

std::shared_ptr<const ExecutableImage> ExecutableImage::build(
    program::Image image) {
  // shared_ptr<ExecutableImage> first so members stay mutable during
  // construction; returned as pointer-to-const.
  auto exec = std::shared_ptr<ExecutableImage>(new ExecutableImage);
  exec->image_ = std::move(image);
  exec->image_.validate();
  exec->code_ = arch::decode_all(exec->image_.code, exec->image_.code_base);
  if (exec->code_.empty()) throw VmError("image has no code");
  // Resolve branch/call targets to instruction indices once (targets are
  // looked up in the still-unmodified address column).
  for (Instr& ins : exec->code_) {
    const auto& info = arch::opcode_info(ins.op);
    if (info.is_branch || info.is_call) {
      const auto target = static_cast<std::uint64_t>(ins.src.imm);
      const std::size_t idx = find_addr(exec->code_, target);
      if (idx == kNoIndex) {
        throw VmError(strformat(
            "control transfer at 0x%llx targets 0x%llx, which is not an "
            "instruction boundary",
            static_cast<unsigned long long>(ins.addr),
            static_cast<unsigned long long>(target)));
      }
      ins.src.imm = static_cast<std::int64_t>(idx);
    }
  }
  const std::size_t entry = exec->index_of(exec->image_.entry);
  if (entry == kNoIndex) {
    throw VmError(strformat(
        "entry point 0x%llx is not an instruction boundary",
        static_cast<unsigned long long>(exec->image_.entry)));
  }
  exec->entry_index_ = entry;

  exec->uops_.reserve(exec->code_.size());
  for (const Instr& ins : exec->code_) {
    exec->uops_.push_back(lower_instr(ins));
  }
  return exec;
}

std::shared_ptr<const CodeSegment> CodeSegment::build(
    const program::FuncLayout& layout) {
  auto seg = std::shared_ptr<CodeSegment>(new CodeSegment);
  seg->byte_size_ = layout.bytes.size();
  // Decoding at image base 0 makes every instr addr a local byte offset.
  seg->code_ = arch::decode_all(layout.bytes, /*image_base=*/0);

  for (std::size_t i = 0; i < seg->code_.size(); ++i) {
    Instr& ins = seg->code_[i];
    const auto& info = arch::opcode_info(ins.op);
    if (info.is_branch) {
      const auto target = static_cast<std::uint64_t>(ins.src.imm);
      if (target == seg->byte_size_) {
        // Branch to the function's end (an empty trailing block): local
        // index one-past-the-end, resolved against the NEXT function's
        // first instruction -- or rejected -- at splice time.
        ins.src.imm = static_cast<std::int64_t>(seg->code_.size());
      } else {
        const std::size_t idx = find_addr(seg->code_, target);
        if (idx == ExecutableImage::kNoIndex) {
          throw VmError(strformat(
              "branch at local offset 0x%llx targets local offset 0x%llx, "
              "which is not an instruction boundary in its segment",
              static_cast<unsigned long long>(ins.addr),
              static_cast<unsigned long long>(target)));
        }
        ins.src.imm = static_cast<std::int64_t>(idx);
      }
      seg->branch_sites_.push_back(static_cast<std::uint32_t>(i));
    } else if (info.is_call) {
      // imm stays the callee function index until splice time.
      seg->call_sites_.push_back(static_cast<std::uint32_t>(i));
    }
  }
  seg->uops_.reserve(seg->code_.size());
  for (const Instr& ins : seg->code_) {
    seg->uops_.push_back(lower_instr(ins));
  }
  return seg;
}

std::shared_ptr<const ExecutableImage> ExecutableImage::build_spliced(
    program::Image image,
    const std::vector<std::shared_ptr<const CodeSegment>>& segments) {
  auto exec = std::shared_ptr<ExecutableImage>(new ExecutableImage);
  exec->image_ = std::move(image);
  exec->image_.validate();

  const std::size_t n = segments.size();
  std::vector<std::uint64_t> seg_addr(n);
  std::vector<std::size_t> instr_base(n + 1);
  std::uint64_t pc = exec->image_.code_base;
  std::size_t total = 0;
  for (std::size_t f = 0; f < n; ++f) {
    seg_addr[f] = pc;
    instr_base[f] = total;
    pc += segments[f]->byte_size_;
    total += segments[f]->code_.size();
  }
  instr_base[n] = total;
  if (pc - exec->image_.code_base != exec->image_.code.size()) {
    throw VmError("spliced segments do not cover the image's code section");
  }
  if (total == 0) throw VmError("image has no code");

  exec->code_.reserve(total);
  exec->uops_.reserve(total);
  for (std::size_t f = 0; f < n; ++f) {
    const CodeSegment& seg = *segments[f];
    const std::uint64_t base = seg_addr[f];
    exec->code_.insert(exec->code_.end(), seg.code_.begin(),
                       seg.code_.end());
    exec->uops_.insert(exec->uops_.end(), seg.uops_.begin(),
                       seg.uops_.end());
    for (std::size_t i = instr_base[f]; i < instr_base[f + 1]; ++i) {
      exec->code_[i].addr += base;
    }
  }

  // Control-transfer fixups. Targets are read from the pristine segment
  // data (the copies above were already rebased), and the out-of-range
  // errors reconstruct the absolute target address so the message matches
  // build()'s byte-for-byte.
  for (std::size_t f = 0; f < n; ++f) {
    const CodeSegment& seg = *segments[f];
    const std::uint64_t base = seg_addr[f];
    const std::size_t ibase = instr_base[f];
    for (std::uint32_t site : seg.branch_sites_) {
      const auto local = static_cast<std::size_t>(seg.code_[site].src.imm);
      const std::size_t global = ibase + local;
      if (global >= total) {
        const std::uint64_t target =
            base + (local == seg.code_.size() ? seg.byte_size_
                                              : seg.code_[local].addr);
        throw VmError(strformat(
            "control transfer at 0x%llx targets 0x%llx, which is not an "
            "instruction boundary",
            static_cast<unsigned long long>(base + seg.code_[site].addr),
            static_cast<unsigned long long>(target)));
      }
      exec->code_[ibase + site].src.imm = static_cast<std::int64_t>(global);
      exec->uops_[ibase + site].imm = static_cast<std::int64_t>(global);
    }
    for (std::uint32_t site : seg.call_sites_) {
      const auto callee = static_cast<std::size_t>(seg.code_[site].src.imm);
      FPMIX_CHECK(callee < n);
      const std::size_t global = instr_base[callee];
      if (global >= total) {
        // Callee (and every function after it) is empty: its address is not
        // an instruction boundary, exactly as build() would discover.
        throw VmError(strformat(
            "control transfer at 0x%llx targets 0x%llx, which is not an "
            "instruction boundary",
            static_cast<unsigned long long>(base + seg.code_[site].addr),
            static_cast<unsigned long long>(seg_addr[callee])));
      }
      exec->code_[ibase + site].src.imm = static_cast<std::int64_t>(global);
      MicroOp& u = exec->uops_[ibase + site];
      u.imm = static_cast<std::int64_t>(global);
      u.aux += base;  // local return offset -> absolute return address
    }
  }

  const std::size_t entry = exec->index_of(exec->image_.entry);
  if (entry == kNoIndex) {
    throw VmError(strformat(
        "entry point 0x%llx is not an instruction boundary",
        static_cast<unsigned long long>(exec->image_.entry)));
  }
  exec->entry_index_ = entry;
  exec->segments_ = segments;
  exec->segment_first_index_ = std::move(instr_base);
  return exec;
}

}  // namespace fpmix::vm
