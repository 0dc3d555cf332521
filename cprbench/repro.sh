#!/usr/bin/env bash
# Reproducibility check: two sets of runs of the same build, interleaved
# (A1 B1 B2 A2 A3 B3 ...), then per workload and metric each set's
# median and quartiles, the quartile spread as a share of the median,
# and whether set B's median is within the BENCHMARK.json bound of set
# A's.  Exits 1 if any run is incorrect, any metric disagrees, or a
# set's quartile spread exceeds a third of the metric's bound.
#
#   bash cprbench/repro.sh [-n RUNS] [-s SEED] [-v] [-t 0|1] WORKLOAD...
#
#   -n RUNS     runs per set (default 5)
#   -s SEED     seed of every run (default 1)
#   -v          vary the seed: run i of each set uses SEED+i
#   -t 0|1      untraced (end-to-end metrics, default) or traced runs
#
# Every run measures BENCHMARK.json's run_seconds.  Run from the
# repository root; results go to _bench/repro/.
set -euo pipefail
cd "$(dirname "$0")/.."
runs=5 seed=1 vary=0 trace=0
while getopts "n:s:vt:" opt; do
  case $opt in
    n) runs=$OPTARG ;;
    s) seed=$OPTARG ;;
    v) vary=1 ;;
    t) trace=$OPTARG ;;
    *) exit 2 ;;
  esac
done
shift $((OPTIND - 1))
if [ $# -eq 0 ]; then
  set -- paper-suite wide-regions many-regions fuzz-verify
fi
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
out=_bench/repro
mkdir -p "$out"
rm -f "$out"/*.json
for w in "$@"; do
  for i in $(seq 1 "$runs"); do
    s=$seed
    if [ "$vary" = 1 ]; then s=$((seed + i)); fi
    if [ $((i % 2)) = 1 ]; then order="A B"; else order="B A"; fi
    for set in $order; do
      echo "$w set $set run $i seed $s" >&2
      bash cprbench/run.sh --workload "$w" --seed "$s" --seconds "$seconds" \
        --trace "$trace" --out "$out/full-$w-$set-$i.json" \
        | tail -n 1 > "$out/$w-$set-$i.json"
    done
  done
done
python3 - "$out" "$trace" "$@" <<'EOF'
import json, statistics, sys

out, trace, workloads = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
bench = json.load(open("BENCHMARK.json"))
defs = bench["per_layer"] if trace else bench["end_to_end"]
ok = True
for w in workloads:
    sets = {}
    for s in "AB":
        i, rows = 1, []
        while True:
            try:
                rows.append(json.load(open(f"{out}/{w}-{s}-{i}.json")))
            except FileNotFoundError:
                break
            i += 1
        sets[s] = rows
    bad = [r for s in "AB" for r in sets[s] if not r["correct"] or r["failed"]]
    n = len(sets["A"])
    print(f"\n{w}: {n} runs per set, {len(bad)} incorrect")
    ok &= not bad
    print(f"  {'metric':30} {'A median':>12} {'A q1..q3':>25} {'A spread':>9}"
          f" {'B median':>12} {'B spread':>9} {'bound':>6}  verdict")
    for d in defs:
        vals = {s: [r["metrics"][d["name"]]["value"] for r in sets[s]] for s in "AB"}
        med = {s: statistics.median(vals[s]) for s in "AB"}
        quart = {s: statistics.quantiles(vals[s], n=4) if n > 1 else [med[s]] * 3
                 for s in "AB"}
        spread = {s: (quart[s][2] - quart[s][0]) / med[s] if med[s] else 0.0
                  for s in "AB"}
        bound = d.get("bound")
        verdict = ""
        if bound is not None:
            sign = 1 if d["better"] == "lower" else -1
            worse = sign * (med["B"] - med["A"]) / med["A"] if med["A"] else 0.0
            agree = worse <= bound
            steady = max(spread.values()) <= bound / 3
            verdict = ("agree" if agree else "DISAGREE") + ("" if steady else ", SPREAD")
            if len(set(vals["A"] + vals["B"])) == 1:
                verdict += ", identical"
            ok &= agree and steady
        print(f"  {d['name']:30} {med['A']:12.6g} {quart['A'][0]:12.6g}"
              f"..{quart['A'][2]:<11.6g} {spread['A']:9.4f} {med['B']:12.6g}"
              f" {spread['B']:9.4f} {bound if bound is not None else '':>6}  {verdict}")
sys.exit(0 if ok else 1)
EOF
