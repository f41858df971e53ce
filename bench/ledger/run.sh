#!/usr/bin/env bash
# Build cake_ledger (Release, standalone) and run every workload, each in
# its own process.
#
#   bench/ledger/run.sh OUT [SEED]  end-to-end (--trace 0) and per-layer
#                                   (--trace 1) runs of all five workloads;
#                                   logs and Perfetto traces go to OUT/
#   bench/ledger/run.sh --smoke     all five workloads at 0.3 s each;
#                                   exits nonzero if any call failed
#
# The window is BENCHMARK.json's run_seconds. Every metric is printed by
# name with its unit; compare.py compares two OUT directories.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$here/../.." && pwd)"
workloads=(square_f32 skinny_m_f32 shallow_k_f32 small_mixed_f32 square_i8)
bench=(python3 "$here/bench.py")

if [[ "${1:-}" == "--smoke" ]]; then
  for w in "${workloads[@]}"; do
    "${bench[@]}" --workload "$w" --seed 1 --seconds 0.3 --trace 0 --smoke \
      | grep -E '^e2e ' | sed "s/^/$w /"
  done
  echo "smoke: all workloads passed"
  exit 0
fi

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 OUT [SEED] | $0 --smoke" >&2
  exit 2
fi
out="$1"
seed="${2:-1}"
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$root/BENCHMARK.json")"
mkdir -p "$out"

for w in "${workloads[@]}"; do
  e2e="$out/$w.s$seed.e2e.log"
  layer="$out/$w.s$seed.layer.log"
  "${bench[@]}" --workload "$w" --seed "$seed" --seconds "$seconds" \
    --trace 0 > "$e2e"
  "${bench[@]}" --workload "$w" --seed "$seed" --seconds "$seconds" \
    --trace 1 --trace-dir "$out" > "$layer"
  grep -E '^(e2e|reference) ' "$e2e" | sed "s/^/$w /"
  grep -E '^(layer|reference) ' "$layer" | sed "s/^/$w /"
done
