// Tests for verification routines and the configuration evaluator.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "asm/assembler.hpp"
#include "config/config.hpp"
#include "program/layout.hpp"
#include "verify/evaluate.hpp"
#include "support/error.hpp"
#include "verify/verifier.hpp"

// AddressSanitizer and ThreadSanitizer reserve terabytes of shadow address
// space, so an RLIMIT_AS cap cannot be applied under them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FPMIX_TEST_SHADOW_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define FPMIX_TEST_SHADOW_SANITIZER 1
#endif
#endif

namespace fpmix::verify {
namespace {

using arch::Opcode;
using arch::Operand;
namespace in = arch::intrinsics;

TEST(RelativeErrorVerifier, BasicChecks) {
  RelativeErrorVerifier v({1.0, -2.0, 0.0}, 1e-3, 1e-9);
  EXPECT_TRUE(v.verify(std::vector<double>{1.0, -2.0, 0.0}));
  EXPECT_TRUE(v.verify(std::vector<double>{1.0005, -2.001, 1e-10}));
  EXPECT_FALSE(v.verify(std::vector<double>{1.01, -2.0, 0.0}));
  EXPECT_FALSE(v.verify(std::vector<double>{1.0, -2.0}));        // count
  EXPECT_FALSE(v.verify(std::vector<double>{1.0, -2.0, 1e-3}));  // abs
  EXPECT_FALSE(v.verify(std::vector<double>{NAN, -2.0, 0.0}));
  EXPECT_FALSE(v.verify(std::vector<double>{INFINITY, -2.0, 0.0}));
}

TEST(RelativeErrorVerifier, PerOutputOverrides) {
  RelativeErrorVerifier v({10.0, 10.0}, 1e-6);
  v.set_output_tolerance(1, 0.5);
  EXPECT_TRUE(v.verify(std::vector<double>{10.0, 14.0}));   // loose slot
  EXPECT_FALSE(v.verify(std::vector<double>{10.1, 10.0}));  // tight slot
}

TEST(BitExactVerifier, ExactOrNothing) {
  const double x = 1.0 / 3.0;
  BitExactVerifier v({x});
  EXPECT_TRUE(v.verify(std::vector<double>{x}));
  EXPECT_FALSE(v.verify(std::vector<double>{x, x}));  // count mismatch
  // One ulp away must fail.
  EXPECT_FALSE(v.verify(std::vector<double>{std::nextafter(x, 1.0)}));
}

TEST(ThresholdVerifier, ChecksReportedError) {
  ThresholdVerifier v(0, 1e-4, 2);
  EXPECT_TRUE(v.verify(std::vector<double>{5e-5, 123.0}));
  EXPECT_FALSE(v.verify(std::vector<double>{2e-4, 123.0}));
  EXPECT_FALSE(v.verify(std::vector<double>{5e-5}));            // count
  EXPECT_FALSE(v.verify(std::vector<double>{NAN, 123.0}));      // non-finite
}

TEST(Evaluate, CrashCountsAsFailure) {
  // A program whose single-precision narrowing leads to a division that the
  // verifier would accept -- but the configuration flags the consumer
  // `ignore`, so the run traps and must be reported as failed.
  casm::Assembler a;
  a.begin_function("main", "main");
  const auto x = a.data_f64(2.0);
  a.emit(Opcode::kMovsdXM, Operand::xmm(2),
         Operand::mem_abs(static_cast<std::int32_t>(x)));
  a.emit(Opcode::kAddsd, Operand::xmm(2), Operand::xmm(2));
  a.emit(Opcode::kMulsd, Operand::xmm(2), Operand::xmm(2));
  a.emit(Opcode::kMovsdXX, Operand::xmm(0), Operand::xmm(2));
  a.intrin(in::Id::kOutputF64);
  a.halt();
  a.end_function();
  const program::Image img = program::relayout(a.finish("main"));
  auto ix = config::StructureIndex::build(program::lift(img));

  const std::vector<double> ref = reference_outputs(img);
  RelativeErrorVerifier verifier(ref, 1.0);  // accepts anything finite

  config::PrecisionConfig cfg;
  std::size_t add_id = SIZE_MAX, mul_id = SIZE_MAX;
  for (std::size_t i : ix.candidates()) {
    if (ix.instrs()[i].instr.op == Opcode::kAddsd) add_id = i;
    if (ix.instrs()[i].instr.op == Opcode::kMulsd) mul_id = i;
  }
  cfg.set_instr(add_id, config::Precision::kSingle);
  cfg.set_instr(mul_id, config::Precision::kIgnore);

  const EvalResult r = evaluate_config(img, ix, cfg, verifier);
  EXPECT_FALSE(r.passed);
  EXPECT_EQ(r.run_status, vm::RunResult::Status::kTrapped);
  EXPECT_NE(r.failure.find("sentinel"), std::string::npos);
}

TEST(Evaluate, BudgetBlowupCountsAsFailure) {
  casm::Assembler a;
  a.begin_function("main", "main");
  auto l = a.new_label();
  a.bind(l);
  a.emit(Opcode::kAddsd, Operand::xmm(1), Operand::xmm(1));
  a.jmp(l);
  a.end_function();
  const program::Image img = program::relayout(a.finish("main"));
  auto ix = config::StructureIndex::build(program::lift(img));
  RelativeErrorVerifier verifier({}, 1.0);
  EvalOptions opts;
  opts.max_instructions = 5000;
  const EvalResult r =
      evaluate_config(img, ix, config::PrecisionConfig{}, verifier, opts);
  EXPECT_FALSE(r.passed);
  EXPECT_EQ(r.run_status, vm::RunResult::Status::kOutOfBudget);
}

TEST(Evaluate, ReferenceOutputsThrowOnBrokenProgram) {
  casm::Assembler a;
  a.begin_function("main", "main");
  a.emit(Opcode::kMov, Operand::gpr(1), Operand::make_imm(1));
  a.emit(Opcode::kMov, Operand::gpr(2), Operand::make_imm(0));
  a.emit(Opcode::kIdiv, Operand::gpr(1), Operand::gpr(2));
  a.halt();
  a.end_function();
  const program::Image img = program::relayout(a.finish("main"));
  EXPECT_THROW(reference_outputs(img), fpmix::Error);
}

/// Current virtual address-space size of this process, in bytes (0 when
/// /proc is unavailable).
std::uint64_t address_space_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long pages = 0;
  const int n = std::fscanf(f, "%llu", &pages);
  std::fclose(f);
  if (n != 1) return 0;
  return pages * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

TEST(Evaluate, RefusedGuestMappingIsResourceFailure) {
#if FPMIX_TEST_SHADOW_SANITIZER
  GTEST_SKIP() << "RLIMIT_AS is not applicable under a shadow-memory "
                  "sanitizer";
#else
  if (address_space_bytes() == 0) GTEST_SKIP() << "no /proc/self/statm";
  casm::Assembler a;
  a.begin_function("main", "main");
  a.emit(Opcode::kMov, Operand::gpr(1), Operand::make_imm(42));
  a.intrin(in::Id::kOutputI64);
  a.halt();
  a.end_function();
  const program::Image img = program::relayout(a.finish("main"));
  ASSERT_EQ(img.memory_size, program::Image::kDefaultMemorySize);
  const auto ix = config::StructureIndex::build(program::lift(img));
  RelativeErrorVerifier verifier({}, 1.0);

  // The child caps its address space a few MiB above what it already uses:
  // room for the trial's heap work, none for the 16 MiB guest mapping.
  // Exit codes: 0 = kResource, 1 = uncapped warm-up failed, 2 = setrlimit
  // refused, 10 + class = any other outcome.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    if (!evaluate_config(img, ix, config::PrecisionConfig{}, verifier)
             .passed) {
      ::_exit(1);
    }
    const rlim_t cap = address_space_bytes() + (4u << 20);
    const rlimit as{cap, cap};
    if (::setrlimit(RLIMIT_AS, &as) != 0) ::_exit(2);
    const EvalResult r =
        evaluate_config(img, ix, config::PrecisionConfig{}, verifier);
    ::_exit(r.failure_class == FailureClass::kResource
                ? 0
                : 10 + static_cast<int>(r.failure_class));
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child died, raw status " << status;
  const int code = WEXITSTATUS(status);
  EXPECT_EQ(code, 0) << (code >= 10 ? failure_class_name(
                                          static_cast<FailureClass>(code - 10))
                                    : "");
#endif
}

}  // namespace
}  // namespace fpmix::verify
