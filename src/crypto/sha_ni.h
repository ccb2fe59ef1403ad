// Runtime selection of the SHA-NI kernels shared by SHA-1 and SHA-256.
//
// Each hash has a portable scalar block function and, on x86-64 GCC-style
// builds, one compiled for the SHA extensions with
// __attribute__((target(...))). The build adds no -march flag, so binaries
// stay portable: CpuHasShaNi() asks the CPU once per process, and machines
// without the instructions run the portable rounds. Both paths produce
// identical digests (held by the crypto_differential ctest).
#pragma once

#if defined(__x86_64__) && defined(__GNUC__)
#define PAST_HAS_SHA_NI 1
#endif

namespace past::detail {

// True when this build carries the SHA-NI kernels and the CPU runs them
// (SHA plus the SSE4.1/SSSE3 shuffles the kernels use). Probed on the first
// call, then a cached load.
inline bool CpuHasShaNi() {
#if PAST_HAS_SHA_NI
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1") &&
           __builtin_cpu_supports("ssse3");
  }();
  return has;
#else
  return false;
#endif
}

}  // namespace past::detail
