// CPU feature detection for the SIMD kernel dispatch (exec/simd.h and
// the nn GEMM in nn/matrix.cc).
//
// Detection answers "what can this CPU run", not "what did we compile"
// — each layer combines both (plus the MOSAIC_SIMD override, parsed
// here once for all of them) to pick its active kernels. The x86
// levels are ordered scalar < sse2 < avx2 < avx512: a higher level
// implies every lower one (AVX2 CPUs run the SSE2 kernels), so a
// dispatcher falls down the ladder when a variant was not compiled in.
// Who uses which level:
//   - exec (simd.h): scalar, sse2, avx2 and neon tables; at kAvx512 it
//     keeps its AVX2 table.
//   - nn GEMM (nn/matrix.h): an 8x8 AVX-512 tile, a 4x8 AVX2 tile and
//     the scalar 4x8 reference tile.
//
// Floating-point code built for avx512f (the GEMM tile, the M-SWG
// coverage scan) must not be contracted into FMA: a fused
// multiply-add rounds once where the scalar reference rounds twice,
// and M-SWG training is pinned bit for bit across levels. avx512f
// brings FMA with it, and GCC 12 fuses a separate multiply and add
// inside a target("avx512f") function even under -std=c++17, whose
// default is not to contract. So each such function carries
// MOSAIC_NO_FP_CONTRACT below. The guard lives in the source, not in
// build flags, because every build of src/ (the CMake project, the
// standalone perfbench build) must get it without per-file options.
#ifndef MOSAIC_COMMON_CPU_H_
#define MOSAIC_COMMON_CPU_H_

#include <cstddef>
#include <optional>

/// MOSAIC_AVX512 is defined where the AVX-512 kernels are compiled in:
/// x86-64 GCC with SIMD on. Clang is left out because it ignores the
/// optimize attribute behind MOSAIC_NO_FP_CONTRACT.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(MOSAIC_SIMD_DISABLED)
#define MOSAIC_AVX512 1
#define MOSAIC_NO_FP_CONTRACT __attribute__((optimize("fp-contract=off")))
#endif

namespace mosaic {

/// Instruction-set level of a SIMD kernel variant. kScalar is always
/// available and is the bit-parity reference for every other level.
/// kAvx512 is AVX-512F with the ZMM state saved by the OS.
enum class SimdIsa {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
  kNeon = 3,
  kAvx512 = 4
};

/// Stable lowercase name ("scalar", "sse2", "avx2", "neon", "avx512")
/// — used in bench JSON, EXPLAIN ANALYZE notes, and the MOSAIC_SIMD
/// override.
const char* SimdIsaName(SimdIsa isa);

/// Best level this CPU supports at runtime (cpuid on x86; NEON is
/// baseline on aarch64). Independent of what was compiled.
SimdIsa DetectBestSimdIsa();

/// True when `isa` can run on this CPU.
bool CpuSupports(SimdIsa isa);

/// The MOSAIC_SIMD override, read from the environment once per
/// process. nullopt means "auto" (unset, "", "1", "auto", or an
/// unknown value, which warns once on stderr); "0"/"off"/"scalar"
/// request kScalar and "sse2"/"avx2"/"avx512"/"neon" that level.
/// Whether the requested level is compiled in and runs on this CPU is
/// the caller's check.
std::optional<SimdIsa> SimdOverride();

/// Hardware threads (>= 1) — recorded in bench JSON so a flat
/// thread-scaling curve on a 1-core box is attributable from the
/// file alone.
size_t HardwareThreads();

}  // namespace mosaic

#endif  // MOSAIC_COMMON_CPU_H_
