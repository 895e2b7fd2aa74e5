#!/usr/bin/env bash
# Reachability gate: every `pub fn` under crates/*/src must be named in at
# least one other Rust file under crates/, tests/, examples/ or
# perfbench/src. Prints each one that is not and exits non-zero if any was
# printed.
#
# Name matching is a floor, not a proof: a function whose name is shared
# with another item, or that only a test names, passes. An item that
# fails is either dead (delete it) or used only inside its own file
# (narrow it, so rustc's dead_code lint guards it from then on).
set -euo pipefail
cd "$(dirname "$0")/.."

mapfile -t files < <(find crates tests examples perfbench/src -name '*.rs' | sort)

unreached=0
while IFS=: read -r file line name; do
    if ! grep -lw -- "$name" "${files[@]}" | grep -qvxF -- "$file"; then
        echo "$file:$line: pub fn $name is named in no other file"
        unreached=1
    fi
done < <(grep -rnE --include='*.rs' '^\s*pub (const )?(unsafe )?fn [A-Za-z_][A-Za-z0-9_]*' crates/*/src |
    sed -E 's/^([^:]+):([0-9]+):.*\bfn ([A-Za-z_][A-Za-z0-9_]*).*$/\1:\2:\3/')
exit "$unreached"
