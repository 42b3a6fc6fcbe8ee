#!/usr/bin/env bash
# Paired dsbench runs of a parent commit against the working tree — the
# protocol the perf rules in ROADMAP.md ask of every change: at least ten
# pairs per workload, alternating which side runs first (the host drifts
# 10-15 % over minutes), each side built into its own checkout, the
# command line taken from BENCHMARK.json. Prints, per workload and
# metric, each side's median and quartiles and how many pairs the change
# won.
#
#   scripts/bench_pairs.sh [--trace] PARENT [WORKLOAD...]
#
# --trace runs every pair traced (`--trace 1`) and reports BENCHMARK.json's
# per-layer rows instead of the end-to-end ones — the same alternating
# protocol, so a claim about *where* a saving sits is read off paired runs
# too. End-to-end claims are made on untraced pairs only.
#
# PARENT is a git ref, checked out into a temporary `git worktree` that is
# removed on exit, or a directory that already holds a checkout of it.
# No WORKLOAD means every workload of BENCHMARK.json. PAIRS (default 10)
# sets the number of pairs; seeds run 1..PAIRS, the same on both sides.
# Nothing under benchmark/ is edited; its build and report directories
# (git-ignored) are written in both checkouts.
set -euo pipefail

trace=0
if [ "${1:-}" = --trace ]; then trace=1; shift; fi
[ $# -ge 1 ] || { sed -n '2,22p' "$0" >&2; exit 2; }
here=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
parent=$1
shift
pairs=${PAIRS:-10}
[ "$pairs" -ge 2 ] || { echo "PAIRS must be at least 2 (quartiles need two runs; the protocol asks for 10)" >&2; exit 2; }

if [ -d "$parent" ]; then
  parent_dir=$(cd "$parent" && pwd)
else
  parent_dir=$(mktemp -d)/parent
  git -C "$here" worktree add --detach "$parent_dir" "$parent" >&2
  trap 'git -C "$here" worktree remove --force "$parent_dir"' EXIT
fi

field() { python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))[sys.argv[2]])' "$here/BENCHMARK.json" "$1"; }
mapfile -t command < <(python3 -c 'import json,sys; print("\n".join(json.load(open(sys.argv[1]))["command"]))' "$here/BENCHMARK.json")
seconds=$(field run_seconds)
if [ $# -eq 0 ]; then
  mapfile -t workloads < <(python3 -c 'import json,sys; print("\n".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$here/BENCHMARK.json")
else
  workloads=("$@")
fi

# One run: the result object is the last line of standard output.
run() { (cd "$1" && "${command[@]}" --workload "$2" --seed "$3" --seconds "$seconds" --trace "$trace" 2>/dev/null | tail -n 1); }

for dir in "$parent_dir" "$here"; do
  echo "building dsbench in $dir" >&2
  run "$dir" "${workloads[0]}" 1 >/dev/null || { echo "dsbench failed in $dir" >&2; exit 1; }
done

results=$(mktemp)
for workload in "${workloads[@]}"; do
  for seed in $(seq 1 "$pairs"); do
    if [ $((seed % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
      if [ "$side" = parent ]; then dir=$parent_dir; else dir=$here; fi
      echo "$workload pair $seed/$pairs: $side" >&2
      printf '%s\t%s\t%s\t%s\n' "$workload" "$seed" "$side" "$(run "$dir" "$workload" "$seed")" >>"$results"
    done
  done
done

python3 - "$here/BENCHMARK.json" "$results" "$trace" <<'EOF'
import json, statistics, sys
bench = json.load(open(sys.argv[1]))
runs = {}
for line in open(sys.argv[2]):
    workload, seed, side, result = line.rstrip("\n").split("\t")
    runs.setdefault(workload, {}).setdefault(side, {})[int(seed)] = json.loads(result)
for workload, sides in runs.items():
    print(f"\n{workload}: {len(sides['parent'])} pairs")
    for side in ("parent", "change"):
        failed = sum(r["failed"] for r in sides[side].values())
        attempted = sum(r["attempted"] for r in sides[side].values())
        print(f"  {side:6} failed {failed} of {attempted} ops")
    for metric in bench["per_layer" if sys.argv[3] == "1" else "end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        bound = f", bound {metric['bound']:.1%}" if "bound" in metric else ""
        value = lambda side, seed: sides[side][seed]["metrics"][name]["value"]
        seeds = sorted(sides["parent"])
        wins = sum((value("change", s) < value("parent", s)) == lower
                   for s in seeds if value("change", s) != value("parent", s))
        ties = sum(value("change", s) == value("parent", s) for s in seeds)
        print(f"  {name} [{metric['unit']}, {metric['better']} is better{bound}]"
              f": change wins {wins}, ties {ties}")
        med = {}
        for side in ("parent", "change"):
            xs = [value(side, s) for s in seeds]
            q1, med[side], q3 = statistics.quantiles(xs, n=4, method="inclusive")
            print(f"    {side:6} median {med[side]:.6g}  quartiles {q1:.6g} .. {q3:.6g}")
        if med["parent"]:
            print(f"    change/parent median ratio {med['change'] / med['parent']:.4f}")
EOF
