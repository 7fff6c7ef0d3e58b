#!/usr/bin/env bash
# Layout-varied A/B comparison of two revisions on one benchmark workload.
#
#   tools/ab-layout.sh PARENT CHANGE WORKLOAD
#
# Code layout is a hidden variable: adding an unused module or relinking
# can move a workload by several per cent, so one parent/change pair of
# binaries samples that variable once (Mytkowicz et al., ASPLOS 2009;
# Curtsinger & Berger, ASPLOS 2013). This script builds each revision's
# benchmark under K = 4 layout variants,
#
#   RUSTFLAGS="-C llvm-args=-align-all-functions=N"  for N in {default, 4, 5, 6}
#
# (function alignment 2^N bytes; "default" leaves RUSTFLAGS unset, so a
# revision's own cargo configuration applies), each into its own target
# directory. Cargo runs from the revision's exported tree, so each
# revision builds under its own configuration. The benchmark refuses to
# run when its [profile.release] differs from the root manifest's;
# RUSTFLAGS is not part of that check. It then runs 10 alternating pairs
# per variant (`--workload WORKLOAD --seconds S --trace 0`, with S the
# `run_seconds` of BENCHMARK.json; which side runs first alternates from
# pair to pair, and every pair visits every variant before the next pair
# starts) and prints, per variant, the change/parent ratio of medians
# for ops_per_cal_s, setup_s and peak_rss_mib, then the min-max of those
# ratios across variants. A claim holds only if every variant clears it.
#
# PARENT and CHANGE are any revisions of the repository the script runs
# in. Sources are exported with `git archive`; builds and results go
# under $AB_DIR (default ${TMPDIR:-/tmp}/ab-layout), keyed by commit, so
# a second workload on the same pair reuses the builds.
set -euo pipefail

if [[ $# -ne 3 ]]; then
  sed -n '2,4p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi
parent_rev=$1
change_rev=$2
workload=$3
pairs=10
variants=(default 4 5 6)
ab_dir=${AB_DIR:-${TMPDIR:-/tmp}/ab-layout}
repo=$(git rev-parse --show-toplevel)
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$repo/BENCHMARK.json")

parent=$(git -C "$repo" rev-parse --verify "$parent_rev^{commit}")
change=$(git -C "$repo" rev-parse --verify "$change_rev^{commit}")
mkdir -p "$ab_dir"

# Export a revision once; build it once per layout variant.
build() {
  local sha=$1 variant=$2
  local src="$ab_dir/${sha:0:12}/src" target="$ab_dir/${sha:0:12}/target-$variant"
  if [[ ! -d $src ]]; then
    mkdir -p "$src"
    git -C "$repo" archive "$sha" | tar -x -C "$src"
  fi
  local env_args=(-u RUSTFLAGS)
  [[ $variant != default ]] && env_args=("RUSTFLAGS=-C llvm-args=-align-all-functions=$variant")
  echo "building ${sha:0:12} layout=$variant" >&2
  (cd "$src" && env "${env_args[@]}" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2)
}

for v in "${variants[@]}"; do
  build "$parent" "$v"
  build "$change" "$v"
done

results="$ab_dir/results-${parent:0:12}-${change:0:12}-$workload-$(date +%Y%m%dT%H%M%S).tsv"
: > "$results"

# One run; append "variant side pair <JSON result line>" to the results.
run() {
  local variant=$1 side=$2 pair=$3 sha
  [[ $side == parent ]] && sha=$parent || sha=$change
  local dir="$ab_dir/${sha:0:12}"
  local line
  # A run whose checks fail exits nonzero; keep its line, the report
  # below counts it.
  line=$(cd "$dir/src" && "$dir/target-$variant/release/benchmark" \
    --workload "$workload" --seconds "$seconds" --trace 0 | tail -n 1) || true
  printf '%s\t%s\t%s\t%s\n' "$variant" "$side" "$pair" "$line" >> "$results"
}

for ((p = 1; p <= pairs; p++)); do
  for v in "${variants[@]}"; do
    echo "pair $p/$pairs layout=$v" >&2
    if ((p % 2)); then
      run "$v" parent "$p"
      run "$v" change "$p"
    else
      run "$v" change "$p"
      run "$v" parent "$p"
    fi
  done
done

echo "ab-layout: $workload, $pairs pairs x ${seconds} s per variant," \
  "parent ${parent:0:12} vs change ${change:0:12}; results in $results"
python3 - "$results" <<'EOF'
import json, statistics, sys

METRICS = [("ops_per_cal_s", "higher"), ("setup_s", "lower"), ("peak_rss_mib", "lower")]
runs = {}
failed = 0
for line in open(sys.argv[1]):
    variant, side, pair, doc = line.rstrip("\n").split("\t", 3)
    try:
        r = json.loads(doc)
    except ValueError:
        failed += 1
        continue
    if not r["correct"] or r["failed"]:
        failed += 1
    runs.setdefault(variant, {}).setdefault(side, {})[int(pair)] = r["metrics"]

def value(m, name):
    return m[name]["value"]

ratios = {name: [] for name, _ in METRICS}
print(f"{'layout':<8} {'metric':<14} {'parent med':>12} {'change med':>12} {'ratio':>7}  change better")
for variant, sides in runs.items():
    pairs = sorted(set(sides["parent"]) & set(sides["change"]))
    for name, better in METRICS:
        par = [value(sides["parent"][p], name) for p in pairs]
        chg = [value(sides["change"][p], name) for p in pairs]
        mp, mc = statistics.median(par), statistics.median(chg)
        ratio = mc / mp if mp else float("nan")
        ratios[name].append(ratio)
        wins = sum((c > q) if better == "higher" else (c < q) for c, q in zip(chg, par))
        print(f"{variant:<8} {name:<14} {mp:>12.6g} {mc:>12.6g} {ratio:>7.3f}  {wins}/{len(pairs)}")
print("change/parent ratio of medians across layouts:")
for name, _ in METRICS:
    print(f"  {name:<14} min {min(ratios[name]):.3f}  max {max(ratios[name]):.3f}")
if failed:
    print(f"{failed} run(s) not correct or with failed operations")
    sys.exit(1)
EOF
