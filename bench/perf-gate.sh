#!/usr/bin/env bash
# Compile-time perf gate: this checkout against PARENT_REV, both measured
# by the repository benchmark (cprbench/) on the same host.
#
#   bash bench/perf-gate.sh PARENT_REV
#
# Extracts PARENT_REV into a temporary directory outside the repository
# and builds it there, then runs
#   bash cprbench/run.sh --workload W --seed S --seconds 3 --trace 0
# from both trees for W in paper-suite and fuzz-verify and S in 1..3,
# alternating which tree runs first.  Exits 1 if PARENT_REV does not
# name a commit, if any run is incorrect (correct: false or failed > 0),
# or if the change's median over the seeds is worse than the parent's by
# more than 200% and by more than 20 ms on any row:
#   - latency_ms.p50 and latency_ms.p90 of both workloads;
#   - ms per program (1000 / programs_per_s) of both workloads;
#   - p50_ms of every paper-suite program.
# Run from anywhere inside the repository; results go to
# _bench/perf-gate/ at its root.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ $# -ne 1 ]; then
  echo "usage: bash bench/perf-gate.sh PARENT_REV" >&2
  exit 2
fi
if ! rev=$(git rev-parse --verify --quiet "$1^{commit}"); then
  echo "perf-gate: $1 does not name a commit" >&2
  exit 1
fi
out=$PWD/_bench/perf-gate
rm -rf "$out"
mkdir -p "$out"
parent=$(mktemp -d)
trap 'rm -rf "$parent"' EXIT
git archive "$rev" | tar -x -C "$parent"
echo "perf-gate: parent $rev in $parent" >&2
for tree in "$parent" "$PWD"; do
  (cd "$tree" && bash cprbench/run.sh --describe >/dev/null)
done

workloads="paper-suite fuzz-verify"
seeds="1 2 3"
run() { # TREE TAG WORKLOAD SEED
  echo "perf-gate: $3 seed $4 $2" >&2
  (cd "$1" && bash cprbench/run.sh --workload "$3" --seed "$4" --seconds 3 \
    --trace 0 --out "$out/$3-$2-$4.json") | tail -n 1 > "$out/$3-$2-$4.line" || true
}
for w in $workloads; do
  for s in $seeds; do
    if [ $((s % 2)) = 1 ]; then
      run "$parent" parent "$w" "$s"
      run "$PWD" change "$w" "$s"
    else
      run "$PWD" change "$w" "$s"
      run "$parent" parent "$w" "$s"
    fi
  done
done

python3 - "$out" $seeds -- $workloads <<'EOF'
import json, statistics, sys

args = sys.argv[1:]
out, seeds, workloads = args[0], args[1:args.index("--")], args[args.index("--") + 1:]
ok = True

def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None

rows = []  # (name, {side: [ms per seed]})
for w in workloads:
    runs = {}
    for side in ("parent", "change"):
        runs[side] = []
        for s in seeds:
            line, full = load(f"{out}/{w}-{side}-{s}.line"), load(f"{out}/{w}-{side}-{s}.json")
            if line is None or full is None or not line["correct"] or line["failed"]:
                print(f"INCORRECT {w} {side} seed {s}: see {out}/{w}-{side}-{s}.json")
                ok = False
            else:
                runs[side].append((line["metrics"], full["programs"]))
    if not all(len(runs[side]) == len(seeds) for side in runs):
        continue
    def series(f):
        return {side: [f(m, p) for m, p in runs[side]] for side in runs}
    for name in ("latency_ms.p50", "latency_ms.p90"):
        rows.append((f"{w} {name}", series(lambda m, p: m[name]["value"])))
    rows.append((f"{w} ms/program", series(lambda m, p: 1e3 / m["programs_per_s"]["value"])))
    if w == "paper-suite":
        names = {side: set(runs[side][0][1]) for side in runs}
        for prog in sorted(names["parent"] ^ names["change"]):
            print(f"warning: {w} {prog} is on one side only; not gated")
        for prog in sorted(names["parent"] & names["change"]):
            rows.append((f"{w} {prog} p50_ms", series(lambda m, p: p[prog]["p50_ms"])))

tripped = []
print(f"\n{'row':44} {'parent ms':>10} {'change ms':>10} {'change':>8}")
for name, vals in rows:
    p, c = (statistics.median(vals[side]) for side in ("parent", "change"))
    pct = 100 * (c - p) / p if p > 0 else float("inf") if c > p else 0.0
    bad = pct > 200 and c - p > 20
    if bad:
        tripped.append(name)
    print(f"{name:44} {p:10.3f} {c:10.3f} {pct:+7.1f}%{'  REGRESSED' if bad else ''}")
if tripped:
    print(f"\nperf-gate: {len(tripped)} row(s) REGRESSED by more than 200% and 20 ms")
sys.exit(0 if ok and not tripped else 1)
EOF
