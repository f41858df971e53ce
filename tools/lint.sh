#!/usr/bin/env bash
# Repo lint: ban the pointer-level constructs the checked-access layer
# exists to replace, outside the files that legitimately need them.
#
#   * reinterpret_cast — allowed only in the SIMD kernels (src/kernel),
#     the checked/aligned instrumentation itself (which implements the
#     byte-level canary/poison machinery), and the test that validates
#     it. Everywhere else, hot-path code must use Span<T>/make_span so
#     checked builds can see the extent.
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
#     the library reports through return values, CakeStats, cake::Issue
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
#   * raw syscall(...) — banned everywhere, with no exemption. A direct
#     syscall bypasses both the portability layer and every sanitizer
#     interceptor; use the libc wrapper.
#   * raw SIMD intrinsics (_mm256_* / _mm512_*) outside src/kernel/ — the
#     micro-kernel layer is the only code allowed to speak vector ISA:
#     every kernel there is registered, selftested against the scalar
#     reference, and statically proved by the kernel-IR checker
#     (analysis/kernelcheck). An intrinsic elsewhere is an unregistered
#     kernel no verifier ever sees.
#   * a second JSON reader (struct JsonValue / JsonParser / detail_json)
#     outside src/common/json.* — every consumer parses through that one
#     module, so the depth cap and full-token number check cannot drift.
#   * a second micro-kernel registry (a *MicroKernel struct, a kernel-fn
#     typedef, an all_*_microkernels list) outside
#     src/kernel/{microkernel.hpp,registry.*} — every kernel family is a
#     MicroKernelT<F> in the one registry, so dispatch, the edge-tile
#     runner and its checked-build operand contract cannot drift. The
#     ledger-only int8 forwards of kernel/kernel_int8.hpp and
#     pack/pack_int8.hpp are also flagged anywhere but there (and
#     pack.cpp, which defines the pack forwards) and bench/ledger/:
#     every other caller packs through a registry entry's own packers.
#   * a hand walk of the block order — a carried_surfaces() call outside
#     the files that own the carry-over rule (src/core/{schedule,
#     block_plan,fperror}), the verifiers' one closed-form walk
#     (src/analysis/verify.cpp), the numerics chain walk, memsim's
#     address stream and the tests. Everything else reads
#     build_block_plan, so a second copy of the §2.2 fetch rule cannot
#     drift from the plan the executor runs.
#   * a second place that orients the block grid — a build_schedule() or
#     build_layered_schedule() call in src/ or tools/ outside
#     src/core/schedule.{hpp,cpp}. Library code and tools take their order
#     from block_order(), which owns the grid ceil-divs and the §2.2
#     orientation; tests, benches and examples may build explicit orders.
#   * a stale allowlist entry — every ^path alternative of every *_allow
#     regex below must match a tracked file, so an exemption cannot
#     outlive the code it was granted for. An empty regex, or an empty
#     '|' alternative, fails too: [[ f =~ "" ]] is true for every path.
#
# Exit 0 iff clean; prints every violation as file:line:text.
set -uo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "${repo_root}"

# probe RULE SUMMARY [EXPECT FILE CONTENT]...: self-test that rule RULE
# still fires after an allowlist edit. Each step plants FILE with CONTENT
# (printf escapes) and requires the full lint to fail (EXPECT=flag) or to
# pass (EXPECT=allow); an empty FILE lints the clean tree. The planted
# file is removed after each step and on every exit path.
probe() {
  local rule="$1" summary="$2" expect content
  shift 2
  probe_file=""
  trap '[[ -z "${probe_file}" ]] || rm -f "${repo_root}/${probe_file}"' EXIT
  while [[ $# -gt 0 ]]; do
    expect="$1" probe_file="$2" content="$3"
    shift 3
    [[ -n "${probe_file}" ]] && printf '%b' "${content}" > "${probe_file}"
    if "${repo_root}/tools/lint.sh" >/dev/null 2>&1; then
      if [[ "${expect}" == flag ]]; then
        echo "lint probe: FAILED (rule ${rule} did not flag ${probe_file})"
        exit 1
      fi
    elif [[ "${expect}" == allow ]]; then
      echo "lint probe: FAILED (${probe_file:-the clean tree} was flagged)"
      exit 1
    fi
    [[ -n "${probe_file}" ]] && rm -f "${probe_file}"
  done
  echo "lint probe: OK (rule ${rule} ${summary})"
  exit 0
}

# allow_probe SUMMARY MESSAGE VALUE...: self-test of rule 11. For each
# VALUE, a copy of this script that also defines probe_allow='VALUE' must
# fail with MESSAGE; then the clean tree must pass.
allow_probe() {
  local summary="$1" message="$2" value out rc
  shift 2
  local copy="tools/lint_allow_probe_tmp.sh"
  trap 'rm -f "${repo_root}/tools/lint_allow_probe_tmp.sh"' EXIT
  for value in "$@"; do
    { sed '/^set -uo pipefail$/q' tools/lint.sh
      echo "probe_allow='${value}'"
      sed '1,/^set -uo pipefail$/d' tools/lint.sh; } > "${copy}"
    out="$(bash "${copy}")" && rc=0 || rc=$?
    if [[ ${rc} -eq 0 || "${out}" != *"${message}"* ]]; then
      echo "lint probe: FAILED (rule 11 did not flag probe_allow='${value}')"
      exit 1
    fi
  done
  if ! "${repo_root}/tools/lint.sh" >/dev/null 2>&1; then
    echo "lint probe: FAILED (the clean tree was flagged)"
    exit 1
  fi
  echo "lint probe: OK (rule 11 fires on ${summary}, the clean tree passes)"
  exit 0
}

atomic_use='#include <atomic>\ninline std::atomic<int> lint_probe{0};\n'
cout_use='#include <iostream>\ninline void lint_probe() { std::cout << 1; }\n'
narrow_cast='inline float lint_probe(double v) { return static_cast<float>(v); }\n'
c_cast='inline float lint_probe(double v) { return (float)v; }\n'
syscall_use='#include <unistd.h>\ninline long lint_probe() { return syscall(39); }\n'
simd_use='#include <immintrin.h>\ninline __m256 lint_probe() { return _mm256_setzero_ps(); }\n'
json_reader='struct JsonValue { double number = 0; };\n'
kernel_struct='struct Fp16MicroKernel { int mr = 0; };\n'
kernel_fn='using Fp16KernelFn = void (*)(long);\n'
ledger_use='inline int lint_probe() { return best_int8_microkernel().mr; }\n'
pack_forward_use='inline long lint_probe() { return packed_a_int8_size(8, 8, 8); }\n'
order_use='#include "core/schedule.hpp"\ninline auto lint_probe() { return cake::build_schedule(cake::ScheduleKind::kGoto, 1, 1, 1); }\n'
layered_use='#include "core/schedule.hpp"\ninline auto lint_probe() { return cake::build_layered_schedule(cake::ScheduleKind::kGoto, 1, 1, 2, 2); }\n'
walk_use='#include "core/schedule.hpp"\ninline bool lint_probe(cake::BlockCoord a, cake::BlockCoord b) { return cake::carried_surfaces(cake::ScheduleKind::kGoto, a, b).c; }\n'
case "${1:-}" in
  # Rule 4 (raw-atomic ban) fires under src/core, not in allowlisted src/obs.
  --probe-rule4) probe 4 "fires under src/core, allows src/obs" \
    flag src/core/lint_rule4_probe_tmp.hpp "${atomic_use}" \
    allow src/obs/lint_rule4_probe_tmp.hpp "${atomic_use}" ;;
  # Rule 5 (console-IO ban) fires in library code, not in the driver trees.
  --probe-rule5) probe 5 "fires under src/core, allows tools/" \
    flag src/core/lint_rule5_probe_tmp.hpp "${cout_use}" \
    allow tools/lint_rule5_probe_tmp.hpp "${cout_use}" ;;
  # Rule 6 (narrowing float-cast ban) fires on both cast spellings in
  # library code and stays silent in the test tree.
  --probe-rule6) probe 6 "fires under src/core, allows tests/" \
    flag src/core/lint_rule6_probe_tmp.hpp "${narrow_cast}" \
    flag src/core/lint_rule6_probe_tmp.hpp "${c_cast}" \
    allow tests/lint_rule6_probe_tmp.hpp "${narrow_cast}" ;;
  # Rule 7 (raw-syscall ban) has no exemption: it fires under src/core and
  # under src/obs alike, and the clean tree lints clean.
  --probe-rule7) probe 7 "fires under src/core and src/obs, the clean tree passes" \
    flag src/core/lint_rule7_probe_tmp.hpp "${syscall_use}" \
    flag src/obs/lint_rule7_probe_tmp.hpp "${syscall_use}" \
    allow "" "" ;;
  # Rule 8 (raw-intrinsics ban) fires outside src/kernel/, not inside it.
  --probe-rule8) probe 8 "fires under src/core, allows src/kernel/" \
    flag src/core/lint_rule8_probe_tmp.hpp "${simd_use}" \
    allow src/kernel/lint_rule8_probe_tmp.hpp "${simd_use}" ;;
  # Rule 9 (second-JSON-reader ban) fires outside src/common/json.*; the
  # clean tree, which holds the one reader, lints clean.
  --probe-rule9) probe 9 "fires under bench/, the clean tree passes" \
    flag bench/lint_rule9_probe_tmp.hpp "${json_reader}" \
    allow "" "" ;;
  # Rule 10 (one micro-kernel registry) fires on a kernel struct, a
  # kernel-fn typedef and a ledger-forward use (kernel or pack) outside
  # their files; the clean tree, which holds the one registry, lints clean.
  --probe-rule10) probe 10 "fires under src/core, tools/ and tests/, the clean tree passes" \
    flag src/core/lint_rule10_probe_tmp.hpp "${kernel_struct}" \
    flag src/core/lint_rule10_probe_tmp.hpp "${kernel_fn}" \
    flag tools/lint_rule10_probe_tmp.hpp "${ledger_use}" \
    flag tests/lint_rule10_probe_tmp.hpp "${pack_forward_use}" \
    allow "" "" ;;
  # Rule 12 (no hand walk of the block order) fires under src/model and
  # src/sim, not in the test tree; the clean tree lints clean.
  --probe-rule12) probe 12 "fires under src/model and src/sim, allows tests/" \
    flag src/model/lint_rule12_probe_tmp.hpp "${walk_use}" \
    flag src/sim/lint_rule12_probe_tmp.hpp "${walk_use}" \
    allow tests/lint_rule12_probe_tmp.hpp "${walk_use}" ;;
  # Rule 13 (one block orientation) fires on a build_schedule or
  # build_layered_schedule call under src/ and tools/, not in bench/.
  --probe-rule13) probe 13 "fires under src/model and tools/, allows bench/" \
    flag src/model/lint_rule13_probe_tmp.hpp "${order_use}" \
    flag tools/lint_rule13_probe_tmp.hpp "${layered_use}" \
    allow bench/lint_rule13_probe_tmp.hpp "${order_use}" ;;
  # Rule 11 (stale allowlist entries) fires on a copy of this script that
  # carries an entry naming no file; the clean tree lints clean.
  --probe-stale-allow) allow_probe "a stale entry" "stale allowlist entry" \
    '^src/core/lint_stale_allow_probe_tmp\.cpp$' ;;
  # Rule 11 also fires on an empty allowlist and on an empty alternative
  # (leading, trailing or doubled '|'), each of which bash's =~ would
  # match against every path.
  --probe-empty-allow) allow_probe "an empty allowlist or alternative" \
    "empty allowlist" '' '^tools/lint\.sh$|' '|^tools/lint\.sh$' \
    '^tools/lint\.sh$||^tools/cli\.hpp$' ;;
esac

# Scanned trees: everything we compile.
mapfile -t files < <(find src tests tools bench examples \
  \( -name '*.cpp' -o -name '*.hpp' \) 2>/dev/null | sort)

# Files allowed to use reinterpret_cast (kept deliberately short; adding
# an entry is a review decision, not a convenience).
reinterpret_allow='^src/kernel/|^src/common/checked\.hpp$|^src/common/aligned\.hpp$|^tests/common_test\.cpp$'

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
sync_allow='^src/threading/|^src/analysis/|^src/obs/|^src/machine/machine\.cpp$|^src/machine/bw_probe\.cpp$|^src/core/batched\.cpp$|^src/core/cake_gemm\.cpp$|^tests/threading_test\.cpp$|^tests/misc_test\.cpp$'
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
  || fail_rule "console IO in library code (return data / stats / cake::Issue instead; printing belongs to tools/, bench/, examples/)" "${out}"

# 6. Naked narrowing float casts in src/ library code. Every deliberate
# double→float narrowing lives in the allowlist below; anywhere else it
# silently adds rounding the static numerics bounds (core/fperror.hpp)
# never modelled. Tests, tools and benches narrow freely (oracles and
# report formatting legitimately cross precisions).
narrow_allow='^src/common/rng\.cpp$|^src/core/quant\.cpp$|^src/machine/bw_probe\.cpp$|^src/ref/naive_gemm\.cpp$'
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

# 7. Raw syscall(...) anywhere. No file is exempt.
out="$(scan '(^|[^_[:alnum:]])syscall[[:space:]]*\(' "${files[@]}")"
[[ -z "${out}" ]] \
  || fail_rule "raw syscall() (use the libc wrapper; no file may call syscall directly)" "${out}"

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

# 10. A second micro-kernel registry outside src/kernel/microkernel.hpp and
# src/kernel/registry.*: every kernel family is a MicroKernelT<F> there.
# The ledger-only int8 names live in src/kernel/kernel_int8.hpp and
# src/pack/pack_int8.hpp (defined in src/pack/pack.cpp) and are used by
# bench/ledger/ alone.
registry_allow='^src/kernel/microkernel\.hpp$|^src/kernel/registry\.(hpp|cpp)$'
registry_files=()
for f in "${files[@]}"; do
  [[ "${f}" =~ ${registry_allow} ]] || registry_files+=("${f}")
done
ledger_allow='^src/kernel/kernel_int8\.hpp$|^src/pack/pack_int8\.hpp$|^src/pack/pack\.cpp$|^bench/ledger/'
ledger_files=()
for f in "${files[@]}"; do
  [[ "${f}" =~ ${ledger_allow} ]] || ledger_files+=("${f}")
done
out="$(scan 'struct[[:space:]]+[A-Za-z0-9_]*MicroKernel[A-Za-z0-9_]*([^A-Za-z0-9_]|$)|(using[[:space:]]+[A-Za-z0-9_]*KernelFn[A-Za-z0-9_]*[[:space:]]*=)|typedef[^;]*KernelFn|all_[a-z0-9_]+_microkernels([^A-Za-z0-9_]|$)' "${registry_files[@]}")
$(scan '(^|[^A-Za-z0-9_])(Int8MicroKernel|best_int8_microkernel|run_int8_tile|pack_[ab]_panel_int8|packed_[ab]_int8_size|int8_kq)([^A-Za-z0-9_]|$)' "${ledger_files[@]}")"
out="$(echo "${out}" | sed '/^$/d')"
[[ -z "${out}" ]] \
  || fail_rule "second micro-kernel registry outside src/kernel/{microkernel.hpp,registry.*} (register a MicroKernelT<F> of a KernelFamily instead), or a ledger-only int8 forward outside bench/ledger/" "${out}"

# 12. A hand walk of the block order: carried_surfaces() is called only
# where the carry-over rule is defined or consumed once — the plan, the
# verifiers' closed form, the numerics chain walk, memsim's stream and
# the tests. Traffic models and simulators read build_block_plan.
walk_allow='^src/core/(schedule|block_plan|fperror)\.(hpp|cpp)$|^src/analysis/verify\.cpp$|^src/analysis/numerics\.cpp$|^src/memsim/trace\.cpp$|^tests/'
walk_files=()
for f in "${files[@]}"; do
  [[ "${f}" =~ ${walk_allow} ]] || walk_files+=("${f}")
done
out="$(scan '(^|[^_[:alnum:]])carried_surfaces[[:space:]]*\(' "${walk_files[@]}")"
[[ -z "${out}" ]] \
  || fail_rule "hand walk of the block order (carried_surfaces outside the plan, the verifiers' closed form, numerics, memsim and tests: read build_block_plan instead)" "${out}"

# 13. A second place that orients the block grid: build_schedule and
# build_layered_schedule are called in src/ and tools/ only by
# src/core/schedule.cpp's block_order. Tests, benches and examples may
# build explicit orders.
order_allow='^src/core/schedule\.(hpp|cpp)$'
order_files=()
for f in "${files[@]}"; do
  [[ "${f}" =~ ^(src|tools)/ && ! "${f}" =~ ${order_allow} ]] \
    && order_files+=("${f}")
done
out="$(scan '(^|[^_[:alnum:]])build_(layered_)?schedule[[:space:]]*\(' "${order_files[@]}")"
[[ -z "${out}" ]] \
  || fail_rule "block order built outside src/core/schedule (call block_order, which owns the grid and the §2.2 orientation)" "${out}"

# 11. Stale allowlist entries: every ^path alternative of every *_allow
# regex above must match a tracked file (outside a git checkout, a
# scanned file). Alternatives split at top-level '|' only, so a group
# such as json\.(hpp|cpp) stays one entry. An empty alternative (or an
# empty regex) is reported apart: it matches every path.
if ! tracked="$(git ls-files 2>/dev/null)" || [[ -z "${tracked}" ]]; then
  tracked="$(printf '%s\n' "${files[@]}")"
fi
out=""
empty=""
for var in $(compgen -v -X '!*_allow'); do
  while IFS= read -r alt; do
    if [[ -z "${alt}" ]]; then
      empty+="${var}='${!var}'"$'\n'
      continue
    fi
    grep -qE -- "${alt}" <<<"${tracked}" || out+="${var}: ${alt}"$'\n'
  done < <(awk '{
    depth = 0; alt = ""
    for (i = 1; i <= length($0); ++i) {
      c = substr($0, i, 1)
      if (c == "(") ++depth; else if (c == ")") --depth
      if (c == "|" && depth == 0) { print alt; alt = "" } else alt = alt c
    }
    print alt
  }' <<<"${!var}")
done
out="$(echo "${out}" | sed '/^$/d')"
[[ -z "${out}" ]] \
  || fail_rule "stale allowlist entry (it matches no tracked file: drop it)" "${out}"
empty="$(echo "${empty}" | sed '/^$/d')"
[[ -z "${empty}" ]] \
  || fail_rule "empty allowlist or empty '|' alternative (an empty regex matches every path, so it would exempt every file)" "${empty}"

if [[ ${failures} -ne 0 ]]; then
  echo "lint: FAILED"
  exit 1
fi
echo "lint: OK (${#files[@]} files scanned)"
