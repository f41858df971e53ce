// Kernel self-test harness: runs every compiled-and-supported micro-kernel
// (f32, f64, int8) against its reference on random packed panels. Intended
// for install-time verification (`tools/cake_info`) and CI smoke checks —
// a wrong-ISA dispatch or a miscompiled kernel fails here before it can
// corrupt a GEMM.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"

namespace cake {

struct KernelSelfTestResult {
    std::string kernel;   ///< kernel name (e.g. "avx512_14x32")
    std::string family;   ///< KernelFamily<F>::name: "f32" | "f64" | "i8"
    bool passed = false;
    double max_error = 0;  ///< worst |kernel - reference| observed
};

/// Test every supported kernel at reduction depth `kc` with deterministic
/// random panels.
std::vector<KernelSelfTestResult> run_kernel_selftest(index_t kc = 128,
                                                      std::uint64_t seed = 1);

/// True iff every supported kernel passes its self-test.
bool all_kernels_ok();

}  // namespace cake
