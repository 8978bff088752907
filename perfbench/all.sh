#!/usr/bin/env bash
# Runs every workload once untraced (end-to-end metrics) and once traced
# (per-layer metrics) and prints each run's metric table. Usage, from the
# repository root:
#
#   bash perfbench/all.sh [seed] [seconds]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed="${1:-1}"
seconds="${2:-10}"
for w in hot-heap spill-files churn-admit cluster-r2; do
	for trace in 0 1; do
		bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace"
	done
done
