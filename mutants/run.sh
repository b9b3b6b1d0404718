#!/bin/sh
# The mutant catalogue: each mutants/*.diff is one deliberate defect,
# stated on its `Defect:` line, and each `Kill:` line names a test (the
# arguments to `cargo test -q --offline`) that must fail while the defect
# is in. For every entry, in one temporary copy of the tracked tree: apply
# the diff with `git apply`, list the named tests, run each, and revert.
# Fails if a diff no longer applies, a mutant does not build, a `Kill:`
# line matches no test, or a named test passes (the mutant survived).
#
#   sh mutants/run.sh                                   # every entry
#   sh mutants/run.sh mutants/04-mss-zero-accepted.diff # the ones named
#
# The copy keeps one target directory (or $CARGO_TARGET_DIR), so each
# entry rebuilds only what its diff touches.
set -eu
repo=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
(cd "$repo" && git ls-files -z | tar --null -cf - -T -) | tar -xf - -C "$work"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$work/target}"
cd "$work"
[ $# -gt 0 ] || set -- mutants/*.diff
status=0
newline='
'
for diff in "$@"; do
  name=$(basename "$diff" .diff)
  echo "$name: $(sed -n 's/^Defect: //p' "$diff")"
  if ! git apply "$diff"; then
    echo "$name: FAILED: the diff no longer applies"
    status=1
    continue
  fi
  kills=$(sed -n 's/^Kill: //p' "$diff")
  if [ -z "$kills" ]; then
    echo "$name: FAILED: no Kill: line names a test"
    status=1
  fi
  IFS=$newline
  for args in $kills; do
    unset IFS
    # The arguments are words: split them.
    # shellcheck disable=SC2086
    listed=$(cargo test -q --offline $args -- --list 2>/dev/null | grep -c ': test$' || true)
    if [ "$listed" -eq 0 ]; then
      echo "$name: FAILED: does not build, or names no test: cargo test $args"
      status=1
    elif cargo test -q --offline $args >/dev/null 2>&1; then
      echo "$name: FAILED: survived cargo test $args"
      status=1
    else
      echo "$name: killed by cargo test $args"
    fi
  done
  unset IFS
  git apply -R "$diff"
done
exit $status
