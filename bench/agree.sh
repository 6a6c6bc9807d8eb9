#!/usr/bin/env bash
# Two-run agreement: runs every workload's end-to-end pass on SEEDS seeds,
# twice, and holds the second set against the first with -compare, which also
# prints each set's spread (interquartile range over median) beside the bound.
# Usage, from the repository root: bash bench/agree.sh [SEEDS [SECONDS]]
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
seeds=${1:-10}
seconds=${2:-10}
for set in a b; do
	rm -f "$here/out/$set.jsonl"
	for workload in cyclic_program sparse_wcoj plan_churn ingest_view_cycle; do
		for seed in $(seq 1 "$seeds"); do
			bash "$here/run.sh" -workload "$workload" -seed "$seed" -seconds "$seconds" -trace 0 -out "$here/out/$set.jsonl" >/dev/null
		done
	done
done
bash "$here/run.sh" -compare "$here/out/a.jsonl" "$here/out/b.jsonl"
