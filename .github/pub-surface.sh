#!/bin/sh
# Ceiling on the extension-facing surface: `pub` items declared above the
# first `#[cfg(test)]` of each file, counted per area and compared with the
# numbers committed in .github/pub-surface.txt. A higher count fails; a
# lower one prints the line to commit, so the ceiling only moves down.
# `pub mod` and `pub use` lines count too: a re-export is surface.
set -eu
cd "$(dirname "$0")/.."
status=0
while read -r area ceiling; do
  count=$(for f in $(find "$area" -name '*.rs' | sort); do
    awk '/#\[cfg\(test\)\]/ { exit } { print }' "$f"
  done | grep -cE '^\s*pub (fn|struct|enum|trait|type|const|mod|use) ' || true)
  if [ "$count" -gt "$ceiling" ]; then
    echo "$area: $count pub items, ceiling $ceiling" >&2
    status=1
  elif [ "$count" -lt "$ceiling" ]; then
    echo "$area: $count pub items, under its ceiling of $ceiling; commit \"$area $count\" to .github/pub-surface.txt"
  fi
done < .github/pub-surface.txt
exit $status
