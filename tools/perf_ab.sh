#!/bin/sh
# Same-machine A/B of the end-to-end benchmark (perfbench/run.py).
#
#   sh tools/perf_ab.sh BASE WORKLOAD [PAIRS] [SECONDS]
#   make perf-ab BASE=<rev> WORKLOAD=<name> PAIRS=3 SECONDS=30
#
# Checks out revision BASE in a throwaway git worktree under _build/
# (local objects only, no fetch), then runs WORKLOAD on base and head
# over seeds 1..PAIRS, SECONDS of measurement each, swapping which side
# runs first from one pair to the next. "Head" is the working tree the
# script is run from. Prints, per end-to-end metric of BENCHMARK.json,
# the base and head medians, the head/base ratio of the medians, how
# many pairs head won (in the metric's "better" direction), whether the
# head median is worse than the base median by more than the metric's
# "bound" (the rejection rule for an end-to-end metric), the base
# interquartile range and each side's min..max. Exits 1 if any run
# reports correct: false (or no result), 2 on a usage error. The
# worktree is removed on exit.
set -eu

if [ $# -lt 2 ] || [ -z "$1" ] || [ -z "$2" ]; then
  echo "usage: $0 BASE WORKLOAD [PAIRS] [SECONDS]" >&2
  exit 2
fi
base_rev=$1
workload=$2
pairs=${3:-3}
run_seconds=${4:-30}

root=$(git rev-parse --show-toplevel)
tree="$root/_build/perf-ab/base"
out="$root/_build/perf-ab/runs"

cleanup() {
  git -C "$root" worktree remove --force "$tree" 2>/dev/null || true
  git -C "$root" worktree prune
}
trap cleanup EXIT
trap 'exit 130' INT TERM

cleanup
rm -rf "$out"
mkdir -p "$out"
git -C "$root" worktree add --detach "$tree" "$base_rev" >/dev/null
echo "perf-ab: base $(git -C "$tree" rev-parse --short HEAD) vs head" \
  "$(git -C "$root" rev-parse --short HEAD)+worktree, $workload," \
  "$pairs pairs x ${run_seconds}s" >&2

seed=1
while [ "$seed" -le "$pairs" ]; do
  if [ $((seed % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
  for side in $order; do
    if [ "$side" = base ]; then dir=$tree; else dir=$root; fi
    echo "perf-ab: seed $seed $side" >&2
    (cd "$dir" && python3 perfbench/run.py --workload "$workload" \
      --seed "$seed" --seconds "$run_seconds" --trace 0) \
      | tail -n 1 > "$out/$side.$seed.json" || true
  done
  seed=$((seed + 1))
done

python3 - "$out" "$pairs" "$root/BENCHMARK.json" <<'PY'
import json, statistics, sys

out, pairs, spec = sys.argv[1], int(sys.argv[2]), sys.argv[3]
with open(spec) as f:
    metrics = [(m["name"], m["better"], m["bound"])
               for m in json.load(f)["end_to_end"]]
runs = {"base": {}, "head": {}}
ok = True
for side in runs:
    for seed in range(1, pairs + 1):
        try:
            with open(f"{out}/{side}.{seed}.json") as f:
                result = json.load(f)
        except (OSError, ValueError):
            print(f"{side} seed {seed}: no result")
            ok = False
            continue
        if not result.get("correct"):
            print(f"{side} seed {seed}: correct = false "
                  f"({result.get('failed')}/{result.get('attempted')} checks failed)")
            ok = False
        runs[side][seed] = {name: m["value"]
                            for name, m in result.get("metrics", {}).items()
                            if m.get("value") is not None}

def fmt(v):
    return f"{v:.4g}"

def span(lo, hi):
    return f"{fmt(lo)}..{fmt(hi)}"

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

def worse_by_more_than(mb, mh, direction, bound):
    if direction == "lower":
        return mh > mb * (1 + bound)
    return mh < mb * (1 - bound)

print(f"{'metric':<20} {'base med':>10} {'head med':>10} {'head/base':>9} "
      f"{'head wins':>9} {'bound':>11}  {'base IQR':<19} {'base min..max':<19} "
      f"head min..max")
for name, direction, bound in metrics:
    seeds = [s for s in runs["base"]
             if s in runs["head"] and name in runs["base"][s]
             and name in runs["head"][s]]
    if not seeds:
        print(f"{name:<20} (missing)")
        continue
    b = [runs["base"][s][name] for s in seeds]
    h = [runs["head"][s][name] for s in seeds]
    mb, mh = statistics.median(b), statistics.median(h)
    ratio = f"{mh / mb:.3f}" if mb else "-"
    wins = sum(1 for x, y in zip(b, h)
               if x != y and (y < x) == (direction == "lower"))
    verdict = "WORSE" if worse_by_more_than(mb, mh, direction, bound) else "ok"
    print(f"{name:<20} {fmt(mb):>10} {fmt(mh):>10} {ratio:>9} "
          f"{f'{wins}/{len(seeds)}':>9} {f'{verdict} {bound:.0%}':>11}  "
          f"{span(*quartiles(b)):<19} "
          f"{span(min(b), max(b)):<19} {span(min(h), max(h))}")
sys.exit(0 if ok else 1)
PY
