// CPU feature detection for the SIMD kernel dispatch (exec/simd.h and
// the nn GEMM in nn/matrix.cc).
//
// Detection answers "what can this CPU run", not "what did we compile"
// — each layer combines both (plus the MOSAIC_SIMD override, parsed
// here once for all of them) to pick its active kernels. Levels are
// ordered: a higher level implies every lower x86 level (AVX2 CPUs run
// the SSE2 kernels), so the dispatcher can fall down the ladder when a
// variant was not compiled in.
#ifndef MOSAIC_COMMON_CPU_H_
#define MOSAIC_COMMON_CPU_H_

#include <cstddef>
#include <optional>

namespace mosaic {

/// Instruction-set level of a SIMD kernel variant. kScalar is always
/// available and is the bit-parity reference for every other level.
enum class SimdIsa { kScalar = 0, kSse2 = 1, kAvx2 = 2, kNeon = 3 };

/// Stable lowercase name ("scalar", "sse2", "avx2", "neon") — used in
/// bench JSON, EXPLAIN ANALYZE notes, and the MOSAIC_SIMD override.
const char* SimdIsaName(SimdIsa isa);

/// Best level this CPU supports at runtime (cpuid on x86; NEON is
/// baseline on aarch64). Independent of what was compiled.
SimdIsa DetectBestSimdIsa();

/// True when `isa` can run on this CPU.
bool CpuSupports(SimdIsa isa);

/// The MOSAIC_SIMD override, read from the environment once per
/// process. nullopt means "auto" (unset, "", "1", "auto", or an
/// unknown value, which warns once on stderr); "0"/"off"/"scalar"
/// request kScalar and "sse2"/"avx2"/"neon" that level. Whether the
/// requested level is compiled in and runs on this CPU is the
/// caller's check.
std::optional<SimdIsa> SimdOverride();

/// Hardware threads (>= 1) — recorded in bench JSON so a flat
/// thread-scaling curve on a 1-core box is attributable from the
/// file alone.
size_t HardwareThreads();

}  // namespace mosaic

#endif  // MOSAIC_COMMON_CPU_H_
