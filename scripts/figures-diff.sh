#!/usr/bin/env bash
# figures-diff.sh BASE — check that the working tree prints the same figures
# as git revision BASE.
#
# Builds cmd/benchfig from BASE (exported with `git archive` into a temporary
# directory) and from the working tree, then runs both on the same set: every
# figure 4..43 at -connections 600, the default sweep and -ablation. Runs whose
# output differs are named together with their first differing table (tables
# are separated by blank lines). It then builds and runs every examples/*
# program present at both revisions and names each whose stdout differs,
# with the diff. Exits 1 if any run or example differs, 0 if all are
# byte-identical.
#
# Usage: scripts/figures-diff.sh BASE     (or: make figures-diff BASE=<rev>)
set -euo pipefail

base=${1:?usage: figures-diff.sh BASE}
GO=${GO:-go}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/base"
git -C "$root" archive "$base" | tar -x -C "$tmp/base"
(cd "$tmp/base" && "$GO" build -o "$tmp/benchfig.base" ./cmd/benchfig)
(cd "$root" && "$GO" build -o "$tmp/benchfig.work" ./cmd/benchfig)

examples=()
for dir in "$root"/examples/*/; do
	name=$(basename "$dir")
	if [ ! -d "$tmp/base/examples/$name" ]; then
		echo "new example (absent at $base): examples/$name"
		continue
	fi
	examples+=("$name")
	(cd "$tmp/base" && "$GO" build -o "$tmp/example.$name.base" "./examples/$name")
	(cd "$root" && "$GO" build -o "$tmp/example.$name.work" "./examples/$name")
done

runs=()
for n in $(seq 4 43); do
	runs+=("-fig $n -connections 600 -quiet")
done
runs+=("-quiet" "-ablation -quiet")

# block FILE I prints the I-th blank-line-separated table of FILE.
block() { awk -v i="$2" 'BEGIN { RS = "" } NR == i { print; exit }' "$1"; }
blocks() { awk 'BEGIN { RS = "" } END { print NR }' "$1"; }

differ=0
for args in "${runs[@]}"; do
	# shellcheck disable=SC2086 # args is a flag list
	"$tmp/benchfig.base" $args > "$tmp/base.out"
	# shellcheck disable=SC2086
	"$tmp/benchfig.work" $args > "$tmp/work.out"
	if cmp -s "$tmp/base.out" "$tmp/work.out"; then
		continue
	fi
	differ=$((differ + 1))
	echo "DIFFERS: benchfig $args"
	nb=$(blocks "$tmp/base.out")
	nw=$(blocks "$tmp/work.out")
	n=$((nb > nw ? nb : nw))
	for i in $(seq 1 "$n"); do
		block "$tmp/base.out" "$i" > "$tmp/base.block"
		block "$tmp/work.out" "$i" > "$tmp/work.block"
		if ! cmp -s "$tmp/base.block" "$tmp/work.block"; then
			title=$(head -n 1 "$tmp/base.block")
			[ -n "$title" ] || title=$(head -n 1 "$tmp/work.block")
			echo "  first differing table (#$i): $title"
			diff "$tmp/base.block" "$tmp/work.block" | sed 's/^/    /' || true
			break
		fi
	done
done

xdiffer=0
for name in "${examples[@]}"; do
	"$tmp/example.$name.base" > "$tmp/base.out"
	"$tmp/example.$name.work" > "$tmp/work.out"
	if cmp -s "$tmp/base.out" "$tmp/work.out"; then
		continue
	fi
	xdiffer=$((xdiffer + 1))
	echo "DIFFERS: examples/$name"
	diff "$tmp/base.out" "$tmp/work.out" | sed 's/^/    /' || true
done

if [ "$differ" -gt 0 ] || [ "$xdiffer" -gt 0 ]; then
	echo "figures-diff: $differ of ${#runs[@]} runs and $xdiffer of ${#examples[@]} examples differ from $base"
	exit 1
fi
echo "figures-diff: all ${#runs[@]} runs and ${#examples[@]} examples byte-identical to $base"
