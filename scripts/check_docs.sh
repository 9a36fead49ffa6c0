#!/usr/bin/env bash
# Docs consistency checks (tier-1, see tests/CMakeLists.txt):
#  1. every figure/ablation/micro benchmark in bench/ has a "bench/<name>"
#     entry in docs/FIGURES.md;
#  2. every sim::MachineConfig field (src/sim/config.h) is documented in
#     docs/API.md;
#  3. every DCUDA_* environment variable referenced by sources or scripts
#     is documented somewhere under docs/ (or README/EXPERIMENTS/ROADMAP);
#  4. numbers the docs quote from a committed BENCH_*.json record equal the
#     record's values at the quoted precision.
# Run manually from the repo root: scripts/check_docs.sh [repo-root]
set -euo pipefail

ROOT="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
FIGURES="$ROOT/docs/FIGURES.md"
API="$ROOT/docs/API.md"
CONFIG="$ROOT/src/sim/config.h"

if [ ! -f "$FIGURES" ]; then
  echo "FAIL: $FIGURES does not exist" >&2
  exit 1
fi

missing=0
for src in "$ROOT"/bench/fig*.cpp "$ROOT"/bench/ablation_*.cpp \
           "$ROOT"/bench/micro_*.cpp; do
  [ -f "$src" ] || continue
  name="$(basename "$src" .cpp)"
  if ! grep -q "bench/$name" "$FIGURES"; then
    echo "FAIL: bench/$name has no entry in docs/FIGURES.md" >&2
    missing=$((missing + 1))
  fi
done

# -- MachineConfig field coverage (config/docs drift) ----------------------
# Field names are the identifiers of member declarations inside
# `struct MachineConfig { ... };` (comments and member functions excluded).
if [ ! -f "$API" ] || [ ! -f "$CONFIG" ]; then
  echo "FAIL: docs/API.md or src/sim/config.h missing" >&2
  exit 1
fi
fields="$(awk '/^struct MachineConfig \{/,/^\};/' "$CONFIG" \
  | sed 's://.*::' \
  | grep -E '^[[:space:]]+[A-Za-z_][A-Za-z0-9_:<>]*[[:space:]]+[a-z_][a-z0-9_]*([[:space:]]*=.*)?;' \
  | sed -E 's/.*[[:space:]]([a-z_][a-z0-9_]*)([[:space:]]*=.*)?;.*/\1/' \
  | grep -vE '^return$' | sort -u)"
if [ -z "$fields" ]; then
  echo "FAIL: could not parse MachineConfig fields from $CONFIG" >&2
  exit 1
fi
for f in $fields; do
  if ! grep -qw "$f" "$API"; then
    echo "FAIL: MachineConfig field '$f' is not documented in docs/API.md" >&2
    missing=$((missing + 1))
  fi
done

# -- DCUDA_* environment variable coverage ---------------------------------
# Sources reference env vars as string literals ("DCUDA_FAULT_DROP"),
# scripts by name; each must be documented in the markdown set below.
env_vars="$( (grep -rhoE '"DCUDA_[A-Z0-9_]+"' \
                "$ROOT/src" "$ROOT/tests" "$ROOT/bench" 2>/dev/null \
                | tr -d '"';
              grep -rhoE 'DCUDA_[A-Z0-9_]+' "$ROOT/scripts" 2>/dev/null) \
             | sort -u)"
doc_files=("$ROOT"/docs/*.md "$ROOT/README.md" "$ROOT/EXPERIMENTS.md" \
           "$ROOT/ROADMAP.md")
for v in $env_vars; do
  if ! grep -qw "$v" "${doc_files[@]}" 2>/dev/null; then
    echo "FAIL: env var '$v' is not documented (docs/, README, EXPERIMENTS)" >&2
    missing=$((missing + 1))
  fi
done

# -- Quoted numbers vs committed records -----------------------------------
# check_row DOC ROW RECORD JQ_PATH...: the first table row of DOC whose
# label cell matches ROW quotes, after its label, one number per JQ_PATH;
# each must equal the RECORD value rounded to the quoted decimals.
check_row() {
  local doc="$1" row="$2" record="$3"
  shift 3
  local line
  line="$(grep -m1 -E "^\| $row \|" "$ROOT/$doc" || true)"
  if [ -z "$line" ]; then
    echo "FAIL: $doc has no table row '$row'" >&2
    missing=$((missing + 1))
    return
  fi
  local quoted=()
  read -r -a quoted <<< "$(cut -d'|' -f3- <<< "$line" \
                            | grep -oE '[0-9]+(\.[0-9]+)?' | tr '\n' ' ')"
  local i=0 q path value frac decimals rounded
  for path in "$@"; do
    q="${quoted[$i]:-}"
    i=$((i + 1))
    value="$(jq -r "$path" "$ROOT/$record")"
    frac=""
    [[ "$q" == *.* ]] && frac="${q#*.}"
    decimals=${#frac}
    rounded="$(awk -v v="$value" -v d="$decimals" 'BEGIN { printf "%.*f", d, v }')"
    if [ "$q" != "$rounded" ]; then
      echo "FAIL: $doc row '$row' quotes '${q:-nothing}' where $record $path is $value ($rounded)" >&2
      missing=$((missing + 1))
    fi
  done
}
check_row docs/BACKENDS.md "device-local" BENCH_backend.json \
  .local_latency_us.host_loop .local_latency_us.device_initiated .speedup
check_row docs/BACKENDS.md "remote \(2 nodes\)" BENCH_backend.json \
  .remote_latency_us.host_loop .remote_latency_us.device_initiated \
  .remote_speedup
check_row EXPERIMENTS.md "pairwise leaf→leaf \(4 streams\)" BENCH_net.json \
  .pairwise.time_1rail_us .pairwise.time_2rail_us .striping_speedup
check_row EXPERIMENTS.md "\`host_loop\` \(paper §III-A\)" BENCH_backend.json \
  .local_latency_us.host_loop .remote_latency_us.host_loop
check_row EXPERIMENTS.md "\`device_initiated\` \(§III-D\)" BENCH_backend.json \
  .local_latency_us.device_initiated .remote_latency_us.device_initiated
check_row EXPERIMENTS.md "speedup" BENCH_backend.json .speedup .remote_speedup

if [ "$missing" -ne 0 ]; then
  echo "docs check failed: $missing undocumented or mismatched item(s)" >&2
  echo "update docs/FIGURES.md, docs/API.md, the env-var docs, or the quoted numbers" >&2
  exit 1
fi

echo "docs check passed: benchmarks, MachineConfig fields, DCUDA_* env vars and quoted record numbers are consistent"
