// Lazily-filled JIT caches embedded in the predecode layer.
//
// A CodeSegment is immutable and shared (by ExecutableImages that splice it
// and by the IncrementalPatcher's per-signature variant table), so the blob
// compiled from its micro-ops -- placed once in the code arena, and read
// through a per-image link table -- serves every image that splices it: a
// delta trial compiles only its dirty functions. An ExecutableImage is
// shared too (by every Machine built on it, and by forked workers), so its
// link (link table plus native address table, no code) is built at most
// once per profile variant. Both caches live behind a mutex on the
// otherwise-const owner; exec_image.hpp embeds these handles by value,
// which is why this header stays free of the emitter/linker machinery.
#pragma once

#include <memory>
#include <mutex>

namespace fpmix::vm::jit {

class SegmentBlob;
class JitImage;

/// Two slots: [0] plain, [1] profiled (per-instruction execution counters
/// compiled in). The tag-trap option does not fork the cache: compiled code
/// compares against a per-run sentinel value that is unmatchable when the
/// trap is disabled.
struct BlobCache {
  std::mutex mu;
  std::shared_ptr<const SegmentBlob> variant[2];
};

struct ImageJitCache {
  std::mutex mu;
  std::shared_ptr<const JitImage> variant[2];
};

}  // namespace fpmix::vm::jit
