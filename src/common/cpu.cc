#include "common/cpu.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <thread>

namespace mosaic {

const char* SimdIsaName(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar:
      return "scalar";
    case SimdIsa::kSse2:
      return "sse2";
    case SimdIsa::kAvx2:
      return "avx2";
    case SimdIsa::kNeon:
      return "neon";
    case SimdIsa::kAvx512:
      return "avx512";
  }
  return "scalar";
}

bool CpuSupports(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar:
      return true;
    case SimdIsa::kNeon:
#if defined(__aarch64__)
      return true;  // NEON is baseline on aarch64
#else
      return false;
#endif
    case SimdIsa::kSse2:
#if defined(__x86_64__) || defined(_M_X64)
      return true;  // SSE2 is baseline on x86-64
#else
      return false;
#endif
    case SimdIsa::kAvx2:
#if (defined(__x86_64__) || defined(_M_X64)) && defined(__GNUC__)
      // The AVX2 kernels use BMI2 (pdep/pext) for mask<->byte
      // expansion, so both must be present.
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("bmi2");
#else
      return false;
#endif
    case SimdIsa::kAvx512:
#if (defined(__x86_64__) || defined(_M_X64)) && defined(__GNUC__)
      // libgcc sets avx512f only when XGETBV shows the OS saves the
      // opmask and ZMM state, and AVX-512F CPUs run the AVX2 kernels.
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx512f") && CpuSupports(SimdIsa::kAvx2);
#else
      return false;
#endif
  }
  return false;
}

namespace {

std::optional<SimdIsa> ParseSimdOverride() {
  const char* env = std::getenv("MOSAIC_SIMD");
  if (env == nullptr || env[0] == '\0' || std::strcmp(env, "1") == 0 ||
      std::strcmp(env, "auto") == 0) {
    return std::nullopt;
  }
  if (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
      std::strcmp(env, "scalar") == 0) {
    return SimdIsa::kScalar;
  }
  for (SimdIsa isa : {SimdIsa::kSse2, SimdIsa::kAvx2, SimdIsa::kAvx512,
                      SimdIsa::kNeon}) {
    if (std::strcmp(env, SimdIsaName(isa)) == 0) return isa;
  }
  std::fprintf(stderr,
               "mosaic: unknown MOSAIC_SIMD value '%s' "
               "(want 0|scalar|sse2|avx2|avx512|neon|auto); using auto\n",
               env);
  return std::nullopt;
}

}  // namespace

std::optional<SimdIsa> SimdOverride() {
  static const std::optional<SimdIsa> isa = ParseSimdOverride();
  return isa;
}

SimdIsa DetectBestSimdIsa() {
  if (CpuSupports(SimdIsa::kNeon)) return SimdIsa::kNeon;
  if (CpuSupports(SimdIsa::kAvx512)) return SimdIsa::kAvx512;
  if (CpuSupports(SimdIsa::kAvx2)) return SimdIsa::kAvx2;
  if (CpuSupports(SimdIsa::kSse2)) return SimdIsa::kSse2;
  return SimdIsa::kScalar;
}

size_t HardwareThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<size_t>(n);
}

}  // namespace mosaic
