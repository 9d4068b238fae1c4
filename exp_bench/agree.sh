#!/usr/bin/env bash
# Do two sets of runs of the same code agree within the benchmark's own
# bounds?
#
#   exp_bench/agree.sh [RUNS_PER_SET] [SECONDS]
#
# Runs every workload twice over (two sets of RUNS_PER_SET untraced runs
# on seeds 1..RUNS_PER_SET, plus one traced run on seed 1), prints per
# end-to-end metric both medians, their relative difference in the
# direction that is worse, and the bound, and exits non-zero if any
# end-to-end metric disagrees by more than its bound or any
# deterministic number (digests, counts, simulated seconds, byte
# ratios) differs at all.
set -euo pipefail
cd "$(dirname "$0")/.."
RUNS="${1:-3}"
SECS="${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
OUT="exp_bench/out/agree"
rm -rf "$OUT"
mkdir -p "$OUT"
cargo build --release --offline --locked --quiet --manifest-path exp_bench/Cargo.toml
run() { cargo run --release --offline --locked --quiet --manifest-path exp_bench/Cargo.toml -- "$@"; }
WORKLOADS=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for set in 1 2; do
  for w in $WORKLOADS; do
    for seed in $(seq 1 "$RUNS"); do
      echo "set $set: $w seed $seed" >&2
      run --workload "$w" --seed "$seed" --seconds "$SECS" --trace 0 > "$OUT/$set-$w-$seed-0.txt"
    done
    echo "set $set: $w seed 1 traced" >&2
    run --workload "$w" --seed 1 --seconds "$SECS" --trace 1 > "$OUT/$set-$w-1-1.txt"
  done
done
python3 - "$OUT" "$RUNS" <<'PY'
import json, statistics, sys
out, runs = sys.argv[1], int(sys.argv[2])
bench = json.load(open("BENCHMARK.json"))
# Units whose values are counted, not timed: they must repeat exactly.
# (Allocation counts are left out: they include the harness's own.)
EXACT_UNITS = {"count", "ratio", "B", "sim_s"}
def load(set_, w, seed, trace):
    lines = open(f"{out}/{set_}-{w}-{seed}-{trace}.txt").read().splitlines()
    digests = {l.split(" = ")[0]: l.split(" = ")[1] for l in lines if "_digest = " in l}
    return json.loads(lines[-1]), digests
bad = 0
print(f"{'workload':<11} {'metric':<13} {'set 1':>14} {'set 2':>14} {'worse by':>9} {'bound':>6}")
for w in [x["name"] for x in bench["workloads"]]:
    sets = {s: [load(s, w, seed, 0) for seed in range(1, runs + 1)] for s in (1, 2)}
    for m in bench["end_to_end"]:
        med = [statistics.median(r[0]["metrics"][m["name"]]["value"] for r in sets[s]) for s in (1, 2)]
        worse = (med[1] - med[0]) / med[0] if m["better"] == "lower" else (med[0] - med[1]) / med[0]
        flag = ""
        if worse > m["bound"]:
            flag, bad = "  DISAGREE", bad + 1
        print(f"{w:<11} {m['name']:<13} {med[0]:>14.6g} {med[1]:>14.6g} {worse:>+9.2%} {m['bound']:>6.0%}{flag}")
    for a, b in zip(sets[1], sets[2]):
        if a[1] != b[1] or not a[0]["correct"] or not b[0]["correct"]:
            print(f"{w}: digests differ or a run failed: {a[1]} vs {b[1]}  DISAGREE")
            bad += 1
    (ta, da), (tb, db) = load(1, w, 1, 1), load(2, w, 1, 1)
    if da != db or da != sets[1][0][1]:
        print(f"{w}: traced digests differ: {da} vs {db} vs untraced {sets[1][0][1]}  DISAGREE")
        bad += 1
    for name, va in ta["metrics"].items():
        vb = tb["metrics"][name]
        if va["unit"] in EXACT_UNITS and not name.startswith("alloc.") and va["value"] != vb["value"]:
            print(f"{w}: {name} differs: {va['value']} vs {vb['value']}  DISAGREE")
            bad += 1
print("agree: every end-to-end metric within its bound, every deterministic number identical"
      if not bad else f"{bad} disagreement(s)")
sys.exit(1 if bad else 0)
PY
