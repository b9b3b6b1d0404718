#!/bin/sh
# Ceiling on the extension-facing surface: `pub` items declared above the
# first `#[cfg(test)]` of each file, counted per area and compared with the
# numbers committed in .github/pub-surface.txt. The committed number is the
# exact count: a higher count fails, and so does a lower one, naming the
# line to commit, so a change that removes surface lowers the ceiling too.
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
    echo "$area: $count pub items, under its ceiling of $ceiling; commit \"$area $count\" to .github/pub-surface.txt" >&2
    status=1
  fi
done < .github/pub-surface.txt
exit $status
