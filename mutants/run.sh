#!/usr/bin/env bash
# Runs the committed mutants against HEAD. Each patch is applied to a fresh
# git worktree of HEAD under a temp dir, its test (the patch header's
# "Test:" cargo arguments, built with its "Profile:") runs N times, and one
# verdict a mutant is printed:
#
#   killed    the test failed in at least K of N runs ("Expect: killed in >= K of N runs")
#   survived  it failed fewer times
#   stale     the patch no longer applies to HEAD, or the mutated tree does not build
#
#   mutants/run.sh                          every mutants/*.patch
#   mutants/run.sh mutants/<name>.patch...  only these
#
# Exits 0 if every mutant was killed, 1 otherwise. Every mutant shares one
# cargo target dir in the temp dir, so the dependencies build once.
set -euo pipefail
repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/miodb-mutants.XXXXXX")
tree="$tmp/tree"
cleanup() {
  git -C "$repo" worktree remove --force "$tree" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT
git -C "$repo" worktree add -q --detach "$tree" HEAD
export CARGO_TARGET_DIR="$tmp/target"

patches=("$@")
[ ${#patches[@]} -gt 0 ] || patches=("$repo"/mutants/*.patch)
status=0
for patch in "${patches[@]}"; do
  patch=$(realpath "$patch")
  name=$(basename "$patch" .patch)
  field() { sed -n "s/^$1: //p" "$patch" | head -1; }
  read -r -a test <<<"$(field Test)"
  flags=()
  [ "$(field Profile)" = release ] && flags=(--release)
  read -r need runs < <(field Expect | sed -E 's/.*>= *([0-9]+) of ([0-9]+).*/\1 \2/')

  git -C "$tree" reset -q --hard HEAD
  if ! git -C "$tree" apply "$patch" 2>/dev/null; then
    echo "$name: stale (does not apply to HEAD)"
    status=1
    continue
  fi
  if ! (cd "$tree" && cargo test "${flags[@]}" -q --no-run "${test[@]}" >/dev/null 2>&1); then
    echo "$name: stale (does not build)"
    status=1
    continue
  fi
  failed=0
  for _ in $(seq 1 "$runs"); do
    (cd "$tree" && timeout 600 cargo test "${flags[@]}" -q "${test[@]}" >/dev/null 2>&1) ||
      failed=$((failed + 1))
  done
  if [ "$failed" -ge "$need" ]; then
    verdict=killed
  else
    verdict=survived
    status=1
  fi
  echo "$name: $verdict (failed $failed of $runs runs; expected >= $need)"
done
exit $status
