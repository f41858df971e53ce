#!/usr/bin/env bash
# Repo lint: ban the pointer-level constructs the checked-access layer
# exists to replace, outside the files that legitimately need them.
#
#   * reinterpret_cast — allowed only in the SIMD kernels (src/kernel),
#     the checked/aligned instrumentation itself (which implements the
#     byte-level canary/poison machinery), binary matrix IO, and the test
#     that validates that IO. Everywhere else, hot-path code must use
#     Span<T>/make_span so checked builds can see the extent.
#   * naked `new` / `delete` — all buffers go through AlignedBuffer or a
#     standard container; owning raw pointers defeat the canary fencing.
#   * C-style pointer casts — same rationale as reinterpret_cast, with no
#     grep-visible marker of intent.
#   * raw std::atomic / std::thread / volatile-as-synchronisation — all
#     cross-thread coordination goes through src/threading (ThreadPool,
#     SpinBarrier, TeamContext) so the CAKE_RACECHECK happens-before
#     auditor can see every edge. An ad-hoc atomic elsewhere is invisible
#     to the auditor and unverifiable by the schedule fuzzer.
#   * console IO (std::cout / std::cerr / printf) in src/ library code —
#     the library reports through return values, CakeStats, AuditIssue
#     lists and the obs tracer; stray prints corrupt tool output (the
#     Perfetto exporter and cake_verify write machine-parsed streams to
#     stdout). Drivers under tools/, bench/ and examples/ own the console.
#     (std::fprintf/snprintf stay legal: checked.hpp's abort diagnostics
#     and the obs exporters format through them deliberately.)
#   * naked narrowing float casts (static_cast<float>(…) or C-style
#     (float)x) in src/ library code — the numerics layer derives per-plan
#     error bounds from declared dtype widths (core/fperror.hpp), and a
#     stray double→float narrowing invisibly adds rounding the bound never
#     accounted for. The allowlist names every deliberate narrowing site
#     (quantizers, RNG, probe timers, reference kernels); extending it is
#     a review decision, not a convenience.
#   * raw syscall(...) — the one sanctioned raw syscall in the tree is the
#     perf_event_open wrapper in src/obs/perf.cpp (glibc exports no
#     wrapper for it). Anywhere else, a direct syscall bypasses both the
#     portability layer and every sanitizer interceptor.
#   * raw SIMD intrinsics (_mm256_* / _mm512_*) outside src/kernel/ — the
#     micro-kernel layer is the only code allowed to speak vector ISA:
#     every kernel there is registered, selftested against the scalar
#     reference, and statically proved by the kernel-IR checker
#     (analysis/kernelcheck). An intrinsic elsewhere is an unregistered
#     kernel no verifier ever sees.
#   * a second JSON reader (struct JsonValue / JsonParser / detail_json)
#     outside src/common/json.* — every consumer parses through that one
#     module, so the depth cap and full-token number check cannot drift.
#
# Exit 0 iff clean; prints every violation as file:line:text.
set -uo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "${repo_root}"

# --probe-rule4: self-test that rule 4 (raw-atomic ban) still fires after
# an allowlist edit. Plants a throwaway std::atomic use under src/core
# (the lint MUST flag it) and then under the allowlisted src/obs (the lint
# MUST NOT), cleaning up the probe files on every exit path.
if [[ "${1:-}" == "--probe-rule4" ]]; then
  probe_bad="src/core/lint_rule4_probe_tmp.hpp"
  probe_ok="src/obs/lint_rule4_probe_tmp.hpp"
  trap 'rm -f "${repo_root}/${probe_bad}" "${repo_root}/${probe_ok}"' EXIT
  printf '#include <atomic>\ninline std::atomic<int> lint_probe{0};\n' \
    > "${probe_bad}"
  if "${repo_root}/tools/lint.sh" >/dev/null 2>&1; then
    echo "lint probe: FAILED (rule 4 did not flag ${probe_bad})"
    exit 1
  fi
  rm -f "${repo_root}/${probe_bad}"
  printf '#include <atomic>\ninline std::atomic<int> lint_probe{0};\n' \
    > "${probe_ok}"
  if ! "${repo_root}/tools/lint.sh" >/dev/null 2>&1; then
    echo "lint probe: FAILED (allowlisted ${probe_ok} was flagged)"
    exit 1
  fi
  rm -f "${repo_root}/${probe_ok}"
  echo "lint probe: OK (rule 4 fires under src/core, allows src/obs)"
  exit 0
fi

# --probe-rule5: self-test that rule 5 (console-IO ban) fires in library
# code and stays silent in the driver trees.
if [[ "${1:-}" == "--probe-rule5" ]]; then
  probe_bad="src/core/lint_rule5_probe_tmp.hpp"
  probe_ok="tools/lint_rule5_probe_tmp.hpp"
  trap 'rm -f "${repo_root}/${probe_bad}" "${repo_root}/${probe_ok}"' EXIT
  printf '#include <iostream>\ninline void lint_probe() { std::cout << 1; }\n' \
    > "${probe_bad}"
  if "${repo_root}/tools/lint.sh" >/dev/null 2>&1; then
    echo "lint probe: FAILED (rule 5 did not flag ${probe_bad})"
    exit 1
  fi
  rm -f "${repo_root}/${probe_bad}"
  printf '#include <iostream>\ninline void lint_probe() { std::cout << 1; }\n' \
    > "${probe_ok}"
  if ! "${repo_root}/tools/lint.sh" >/dev/null 2>&1; then
    echo "lint probe: FAILED (driver-tree ${probe_ok} was flagged)"
    exit 1
  fi
  rm -f "${repo_root}/${probe_ok}"
  echo "lint probe: OK (rule 5 fires under src/core, allows tools/)"
  exit 0
fi

# --probe-rule6: self-test that rule 6 (narrowing float-cast ban) fires in
# library code outside the allowlist and stays silent inside it and in the
# test tree.
if [[ "${1:-}" == "--probe-rule6" ]]; then
  probe_bad="src/core/lint_rule6_probe_tmp.hpp"
  probe_ok="tests/lint_rule6_probe_tmp.hpp"
  trap 'rm -f "${repo_root}/${probe_bad}" "${repo_root}/${probe_ok}"' EXIT
  printf 'inline float lint_probe(double v) { return static_cast<float>(v); }\n' \
    > "${probe_bad}"
  if "${repo_root}/tools/lint.sh" >/dev/null 2>&1; then
    echo "lint probe: FAILED (rule 6 did not flag ${probe_bad})"
    exit 1
  fi
  rm -f "${repo_root}/${probe_bad}"
  printf 'inline float lint_probe(double v) { return (float)v; }\n' \
    > "${probe_bad}"
  if "${repo_root}/tools/lint.sh" >/dev/null 2>&1; then
    echo "lint probe: FAILED (rule 6 did not flag the C-style cast in ${probe_bad})"
    exit 1
  fi
  rm -f "${repo_root}/${probe_bad}"
  printf 'inline float lint_probe(double v) { return static_cast<float>(v); }\n' \
    > "${probe_ok}"
  if ! "${repo_root}/tools/lint.sh" >/dev/null 2>&1; then
    echo "lint probe: FAILED (test-tree ${probe_ok} was flagged)"
    exit 1
  fi
  rm -f "${repo_root}/${probe_ok}"
  echo "lint probe: OK (rule 6 fires under src/core, allows tests/)"
  exit 0
fi

# --probe-rule7: self-test that rule 7 (raw-syscall ban) fires outside
# the perf_event_open wrapper and stays silent for src/obs/perf.cpp.
if [[ "${1:-}" == "--probe-rule7" ]]; then
  probe_bad="src/core/lint_rule7_probe_tmp.hpp"
  trap 'rm -f "${repo_root}/${probe_bad}"' EXIT
  printf '#include <unistd.h>\ninline long lint_probe() { return syscall(39); }\n' \
    > "${probe_bad}"
  if "${repo_root}/tools/lint.sh" >/dev/null 2>&1; then
    echo "lint probe: FAILED (rule 7 did not flag ${probe_bad})"
    exit 1
  fi
  rm -f "${probe_bad}"
  # The real perf_event_open wrapper must stay allowlisted: a clean tree
  # (which contains src/obs/perf.cpp's syscall) must lint clean.
  if ! "${repo_root}/tools/lint.sh" >/dev/null 2>&1; then
    echo "lint probe: FAILED (allowlisted src/obs/perf.cpp was flagged)"
    exit 1
  fi
  echo "lint probe: OK (rule 7 fires under src/core, allows src/obs/perf.cpp)"
  exit 0
fi

# --probe-rule8: self-test that rule 8 (raw-intrinsics ban) fires outside
# src/kernel/ and stays silent inside it.
if [[ "${1:-}" == "--probe-rule8" ]]; then
  probe_bad="src/core/lint_rule8_probe_tmp.hpp"
  probe_ok="src/kernel/lint_rule8_probe_tmp.hpp"
  trap 'rm -f "${repo_root}/${probe_bad}" "${repo_root}/${probe_ok}"' EXIT
  printf '#include <immintrin.h>\ninline __m256 lint_probe() { return _mm256_setzero_ps(); }\n' \
    > "${probe_bad}"
  if "${repo_root}/tools/lint.sh" >/dev/null 2>&1; then
    echo "lint probe: FAILED (rule 8 did not flag ${probe_bad})"
    exit 1
  fi
  rm -f "${repo_root}/${probe_bad}"
  printf '#include <immintrin.h>\ninline __m256 lint_probe() { return _mm256_setzero_ps(); }\n' \
    > "${probe_ok}"
  if ! "${repo_root}/tools/lint.sh" >/dev/null 2>&1; then
    echo "lint probe: FAILED (kernel-tree ${probe_ok} was flagged)"
    exit 1
  fi
  rm -f "${repo_root}/${probe_ok}"
  echo "lint probe: OK (rule 8 fires under src/core, allows src/kernel/)"
  exit 0
fi

# --probe-rule9: self-test that rule 9 (second-JSON-reader ban) fires
# outside src/common/json.* and that the clean tree, which holds the one
# reader, lints clean.
if [[ "${1:-}" == "--probe-rule9" ]]; then
  probe_bad="bench/lint_rule9_probe_tmp.hpp"
  trap 'rm -f "${repo_root}/${probe_bad}"' EXIT
  printf 'struct JsonValue { double number = 0; };\n' > "${probe_bad}"
  if "${repo_root}/tools/lint.sh" >/dev/null 2>&1; then
    echo "lint probe: FAILED (rule 9 did not flag ${probe_bad})"
    exit 1
  fi
  rm -f "${probe_bad}"
  if ! "${repo_root}/tools/lint.sh" >/dev/null 2>&1; then
    echo "lint probe: FAILED (the clean tree was flagged)"
    exit 1
  fi
  echo "lint probe: OK (rule 9 fires under bench/, the clean tree passes)"
  exit 0
fi

# Scanned trees: everything we compile.
mapfile -t files < <(find src tests tools bench examples \
  \( -name '*.cpp' -o -name '*.hpp' \) 2>/dev/null | sort)

# Files allowed to use reinterpret_cast (kept deliberately short; adding
# an entry is a review decision, not a convenience).
reinterpret_allow='^src/kernel/|^src/common/checked\.hpp$|^src/common/aligned\.hpp$|^src/io/matrix_io\.cpp$|^tests/common_test\.cpp$'

# scan PATTERN FILE...: grep with line numbers, after stripping //
# comments and string literals so prose never trips a code rule.
scan() {
  local pattern="$1"
  shift
  local f
  for f in "$@"; do
    awk -v fname="${f}" -v pat="${pattern}" '
      {
        line = $0
        gsub(/"([^"\\]|\\.)*"/, "\"\"", line)  # drop string contents
        sub(/\/\/.*/, "", line)                 # drop // comments
        if (line ~ pat) printf "%s:%d:%s\n", fname, FNR, $0
      }' "${f}"
  done
}

failures=0
fail_rule() {
  echo "lint: $1:"
  echo "$2" | sed 's/^/  /'
  failures=1
}

# 1. reinterpret_cast outside the allowlist.
plain_files=()
for f in "${files[@]}"; do
  [[ "${f}" =~ ${reinterpret_allow} ]] || plain_files+=("${f}")
done
out="$(scan 'reinterpret_cast' "${plain_files[@]}")"
[[ -z "${out}" ]] \
  || fail_rule "reinterpret_cast outside src/kernel and the byte-level allowlist" "${out}"

# 2. Naked new / delete expressions.
out="$(scan '(^|[^_[:alnum:]])new[[:space:]]+[A-Za-z_:<(]' "${files[@]}")
$(scan '(^|[^_[:alnum:]])delete([[:space:]]*\[\]|[[:space:]]+[A-Za-z_*(])' "${files[@]}")"
out="$(echo "${out}" | sed '/^$/d')"
[[ -z "${out}" ]] \
  || fail_rule "naked new/delete (use AlignedBuffer or std containers)" "${out}"

# 3. C-style pointer casts of the arithmetic element types.
out="$(scan '\(\s*(const[[:space:]]+)?(float|double|int8_t|int32_t|char|void)[[:space:]]*\*+[[:space:]]*\)[[:space:]]*[A-Za-z_&]' "${files[@]}")"
[[ -z "${out}" ]] \
  || fail_rule "C-style pointer cast (use static_cast, or reinterpret_cast in an allowlisted file)" "${out}"

# 4. Raw synchronisation primitives outside src/threading (and the
# analysis layer that instruments it). The allowlist names every existing
# legitimate use — executors' phase counters, the bandwidth probe's timing
# loops, the obs tracer/metrics internals (per-thread ring head counters
# and lock-free metric cells; see src/obs/trace.cpp), benches and
# threading tests; extending it is a review decision.
# (std::this_thread is fine anywhere: yield/sleep are not synchronisation.)
sync_allow='^src/threading/|^src/analysis/|^src/obs/|^src/machine/machine\.cpp$|^src/machine/bw_probe\.cpp$|^src/conv/conv2d\.cpp$|^src/core/batched\.cpp$|^src/core/cake_gemm\.cpp$|^tests/threading_test\.cpp$|^tests/misc_test\.cpp$|^bench/bench_pipeline\.cpp$'
sync_files=()
for f in "${files[@]}"; do
  [[ "${f}" =~ ${sync_allow} ]] || sync_files+=("${f}")
done
out="$(scan 'std::(atomic(_ref|_flag|_thread_fence|_signal_fence)?|jthread|thread)([^_[:alnum:]]|$)' "${sync_files[@]}")
$(scan '(^|[^_[:alnum:]])volatile([^_[:alnum:]]|$)' "${sync_files[@]}" | grep -vE 'asm[[:space:]]+volatile')"
out="$(echo "${out}" | sed '/^$/d')"
[[ -z "${out}" ]] \
  || fail_rule "raw synchronisation primitive outside src/threading (route it through ThreadPool/SpinBarrier so the race auditor can see it)" "${out}"

# 5. Console IO in src/ library code. Drivers (tools/, bench/, examples/)
# and tests own the console; the library reports through its APIs. The
# pattern guards against prefixed formatters (fprintf/snprintf) which
# remain legal.
lib_files=()
for f in "${files[@]}"; do
  [[ "${f}" == src/* ]] && lib_files+=("${f}")
done
out="$(scan 'std::(cout|cerr)([^_[:alnum:]]|$)' "${lib_files[@]}")
$(scan '(^|[^a-z_:])printf[[:space:]]*\(' "${lib_files[@]}")"
out="$(echo "${out}" | sed '/^$/d')"
[[ -z "${out}" ]] \
  || fail_rule "console IO in library code (return data / stats / AuditIssue instead; printing belongs to tools/, bench/, examples/)" "${out}"

# 6. Naked narrowing float casts in src/ library code. Every deliberate
# double→float narrowing lives in the allowlist below; anywhere else it
# silently adds rounding the static numerics bounds (core/fperror.hpp)
# never modelled. Tests, tools and benches narrow freely (oracles and
# report formatting legitimately cross precisions).
narrow_allow='^src/common/rng\.cpp$|^src/conv/conv2d\.cpp$|^src/core/quant\.cpp$|^src/dnn/layers\.cpp$|^src/linalg/cholesky\.cpp$|^src/machine/bw_probe\.cpp$|^src/ref/naive_gemm\.cpp$'
narrow_files=()
for f in "${files[@]}"; do
  [[ "${f}" == src/* && ! "${f}" =~ ${narrow_allow} ]] \
    && narrow_files+=("${f}")
done
out="$(scan 'static_cast<[[:space:]]*float[[:space:]]*>' "${narrow_files[@]}")
$(scan '\([[:space:]]*float[[:space:]]*\)[[:space:]]*[A-Za-z_(]' "${narrow_files[@]}")"
out="$(echo "${out}" | sed '/^$/d')"
[[ -z "${out}" ]] \
  || fail_rule "naked narrowing float cast in library code (the numerics bounds cannot see it; add the file to the rule-6 allowlist only for a deliberate, documented narrowing)" "${out}"

# 7. Raw syscall(...) outside the sanctioned perf_event_open wrapper.
# glibc exports no perf_event_open wrapper, so src/obs/perf.cpp calls
# syscall(SYS_perf_event_open, ...) directly — and ONLY it may.
syscall_allow='^src/obs/perf\.cpp$'
syscall_files=()
for f in "${files[@]}"; do
  [[ "${f}" =~ ${syscall_allow} ]] || syscall_files+=("${f}")
done
out="$(scan '(^|[^_[:alnum:]])syscall[[:space:]]*\(' "${syscall_files[@]}")"
[[ -z "${out}" ]] \
  || fail_rule "raw syscall() outside src/obs/perf.cpp (the perf_event_open wrapper is the only sanctioned direct syscall)" "${out}"

# 8. Raw SIMD intrinsics outside src/kernel/. The micro-kernel layer is
# the only code allowed to speak vector ISA — everything there is
# registered, selftested and statically verified (analysis/kernelcheck);
# an intrinsic anywhere else is an unregistered kernel no verifier sees.
simd_files=()
for f in "${files[@]}"; do
  [[ "${f}" == src/kernel/* ]] || simd_files+=("${f}")
done
out="$(scan '(^|[^_[:alnum:]])_mm(256|512)_[a-z0-9_]+' "${simd_files[@]}")"
[[ -z "${out}" ]] \
  || fail_rule "raw SIMD intrinsic outside src/kernel/ (register a micro-kernel so selftest and kernelcheck can see it)" "${out}"

# 9. A second JSON reader outside src/common/json.*: schema mapping
# belongs in the consumer, the grammar does not.
json_allow='^src/common/json\.(hpp|cpp)$'
json_files=()
for f in "${files[@]}"; do
  [[ "${f}" =~ ${json_allow} ]] || json_files+=("${f}")
done
out="$(scan 'struct[[:space:]]+JsonValue|JsonParser|detail_json' "${json_files[@]}")"
[[ -z "${out}" ]] \
  || fail_rule "second JSON reader outside src/common/json.* (parse with cake::json and keep only the schema mapping)" "${out}"

if [[ ${failures} -ne 0 ]]; then
  echo "lint: FAILED"
  exit 1
fi
echo "lint: OK (${#files[@]} files scanned)"
