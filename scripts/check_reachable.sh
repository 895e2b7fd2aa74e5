#!/usr/bin/env bash
# Reachability gate: every `pub fn` under crates/*/src must be named in at
# least one other Rust file under crates/, tests/, examples/ or
# perfbench/src. Prints each one that is not and exits non-zero if any was
# printed.
#
# A re-export or a comment is not a use: `pub use` statements (also
# `pub(crate) use` and multi-line `pub use x::{…};` lists), plain `//`
# comments and doc-comment prose are dropped before matching. Code inside
# a doc comment's ``` fence is kept, so a name used in a doc test counts.
#
# Name matching is a floor, not a proof: a function whose name is shared
# with another item, or that only a test names, passes. An item that
# fails is either dead (delete it) or used only inside its own file
# (narrow it, so rustc's dead_code lint guards it from then on).
set -euo pipefail
cd "$(dirname "$0")/.."

# Functions called only through an attribute path, which names the module
# but not the function: serde's `#[serde(with = "port_map_serde")]` calls
# that module's `serialize` and `deserialize`.
exempt=(
    "crates/arch/src/hierarchy.rs:serialize"
    "crates/arch/src/hierarchy.rs:deserialize"
)

mapfile -t files < <(find crates tests examples perfbench/src -name '*.rs' | sort)

# A mirror of every file with re-exports and comments blanked, line for
# line.
stripped="$(mktemp -d)"
trap 'rm -rf "$stripped"' EXIT
for f in "${files[@]}"; do
    mkdir -p "$stripped/$(dirname "$f")"
    awk '
        in_use { if (index($0, ";")) in_use = 0; print ""; next }
        /^[[:space:]]*pub(\([a-z]+\))? use / { if (!index($0, ";")) in_use = 1; print ""; next }
        /^[[:space:]]*\/\/[\/!][[:space:]]*```/ { in_fence = !in_fence; print ""; next }
        /^[[:space:]]*\/\/[\/!]/ { print (in_fence ? $0 : ""); next }
        { i = index($0, "//"); print (i ? substr($0, 1, i - 1) : $0) }
    ' "$f" >"$stripped/$f"
done

unreached=0
while IFS=: read -r file line name; do
    if [[ " ${exempt[*]} " == *" $file:$name "* ]]; then
        continue
    fi
    if ! (cd "$stripped" && grep -lw -- "$name" "${files[@]}") | grep -qvxF -- "$file"; then
        echo "$file:$line: pub fn $name is named in no other file"
        unreached=1
    fi
done < <(grep -rnE --include='*.rs' '^\s*pub (const )?(unsafe )?fn [A-Za-z_][A-Za-z0-9_]*' crates/*/src |
    sed -E 's/^([^:]+):([0-9]+):.*\bfn ([A-Za-z_][A-Za-z0-9_]*).*$/\1:\2:\3/')
exit "$unreached"
