#!/usr/bin/env bash
# Print the non-test Rust line count under crates/*/src: each .rs file is
# counted up to its first `#[cfg(test)]` line, comments and blank lines
# included.
#
#   scripts/loc.sh          # the working tree
#   scripts/loc.sh REV      # a git revision, read with `git show` (no checkout)
#
# Compare two states with e.g. `scripts/loc.sh HEAD~1` against `scripts/loc.sh`.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

count() { awk '/^[[:space:]]*#\[cfg\(test\)\]/ { done = 1 } !done { n++ } END { print n + 0 }'; }

rev="${1:-}"
total=0
if [ -z "$rev" ]; then
    while IFS= read -r f; do
        total=$((total + $(count <"$f")))
    done < <(find crates/*/src -name '*.rs' | sort)
else
    while IFS= read -r f; do
        total=$((total + $(git show "$rev:$f" | count)))
    done < <(git ls-tree -r --name-only "$rev" -- crates | grep -E '^crates/[^/]+/src/.*\.rs$')
fi
echo "$total"
