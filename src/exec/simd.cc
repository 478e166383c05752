// Runtime kernel dispatch: combine what was compiled (per-ISA
// translation units), what the CPU supports (common/cpu.h), and the
// MOSAIC_SIMD override into the one table the executor uses.
#include "exec/simd.h"

#include <cstdio>
#include <initializer_list>
#include <optional>

#include "exec/simd_internal.h"

namespace mosaic {
namespace exec {
namespace simd {

namespace {

const KernelTable* BestAvailable() {
  for (SimdIsa isa :
       {SimdIsa::kNeon, SimdIsa::kAvx2, SimdIsa::kSse2}) {
    const KernelTable* t = KernelsFor(isa);
    if (t != nullptr) return t;
  }
  return &ScalarKernels();
}

/// Resolve the MOSAIC_SIMD override (common/cpu.h) into a table:
/// auto = best available; a requested level that is not available on
/// this build/CPU falls back to auto with a warning.
const KernelTable* Resolve() {
  const std::optional<SimdIsa> want = SimdOverride();
  if (!want.has_value()) return BestAvailable();
  const KernelTable* t = KernelsFor(*want);
  if (t != nullptr) return t;
  std::fprintf(stderr,
               "mosaic: MOSAIC_SIMD=%s not available on this build/CPU; "
               "using auto\n",
               SimdIsaName(*want));
  return BestAvailable();
}

}  // namespace

const KernelTable* KernelsFor(SimdIsa isa) {
  if (!CpuSupports(isa)) return isa == SimdIsa::kScalar ? &ScalarKernels()
                                                        : nullptr;
  switch (isa) {
    case SimdIsa::kScalar:
      return &ScalarKernels();
    case SimdIsa::kSse2:
      return internal::Sse2KernelsOrNull();
    case SimdIsa::kAvx2:
    case SimdIsa::kAvx512:  // no AVX-512 executor kernels: the AVX2 table
      return internal::Avx2KernelsOrNull();
    case SimdIsa::kNeon:
      return internal::NeonKernelsOrNull();
  }
  return nullptr;
}

const KernelTable& ActiveKernels() {
  static const KernelTable* table = Resolve();
  return *table;
}

SimdIsa ActiveIsa() { return ActiveKernels().isa; }

const char* ActiveIsaName() { return SimdIsaName(ActiveIsa()); }

}  // namespace simd
}  // namespace exec
}  // namespace mosaic
