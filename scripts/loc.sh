#!/usr/bin/env bash
# Counts non-test, non-blank lines of Rust under crates/*/src: the size
# figure simplicity changes report before and after. Beside each count it
# prints how many of those lines start a `pub ` item (`pub(crate)` and
# other restricted visibilities are not counted): the public surface.
# Prints one line per crate, then the total. Run from anywhere; reads the
# repo it lives in.
#
# What is left out:
#   - blank lines;
#   - every #[cfg(test)] item: the attribute, any attributes after it,
#     and the item up to its closing brace, or up to its `;` for a
#     one-liner such as `#[cfg(test)] mod oracle;`;
#   - the file such a one-liner declares (`oracle.rs` or `oracle/mod.rs`
#     beside the declaring file), which only test builds compile.
# Braces inside string and char literals and after `//` are not counted.
set -euo pipefail
cd "$(dirname "$0")/.."

files=$(find crates/*/src -name '*.rs' | sort)

# Pass 1: the files that `#[cfg(test)] mod name;` declarations pull in.
test_files=$(awk '
  FNR == 1 { pending = 0 }
  /^[ \t]*#\[cfg\(test\)\]/ { pending = 1; sub(/^[ \t]*#\[cfg\(test\)\][ \t]*/, "") }
  pending && /^[ \t]*(pub(\([a-z]+\))?[ \t]+)?mod[ \t]+[A-Za-z_0-9]+[ \t]*;/ {
    name = $0
    sub(/^[ \t]*(pub(\([a-z]+\))?[ \t]+)?mod[ \t]+/, "", name)
    sub(/[ \t]*;.*/, "", name)
    dir = FILENAME; sub(/[^\/]*$/, "", dir)
    base = FILENAME; sub(/^.*\//, "", base); sub(/\.rs$/, "", base)
    if (base != "lib" && base != "main" && base != "mod") dir = dir base "/"
    print dir name ".rs"; print dir name "/mod.rs"
    pending = 0; next
  }
  pending && /[^ \t]/ && !/^[ \t]*#\[/ { pending = 0 }
' $files)

# Pass 2: count, skipping #[cfg(test)] items and the files above.
awk -v skip_list="$test_files" '
  BEGIN {
    n = split(skip_list, s, "\n")
    for (i = 1; i <= n; i++) skip_file[s[i]] = 1
  }
  FNR == 1 {
    pending = 0; depth = 0
    split(FILENAME, parts, "/"); krate = parts[2]
    if (!(krate in lines)) { lines[krate] = 0; pubs[krate] = 0 }
  }
  FILENAME in skip_file { next }
  {
    code = $0
    gsub(/"([^"\\]|\\.)*"/, "\"\"", code)
    gsub(/'\''([^'\''\\]|\\.)'\''/, "'\'''\''", code)
    sub(/\/\/.*/, "", code)
    opens = gsub(/\{/, "{", code); closes = gsub(/\}/, "}", code)
  }
  depth > 0 { depth += opens - closes; next }
  /^[ \t]*#\[cfg\(test\)\]/ {
    pending = 1
    sub(/^[ \t]*#\[cfg\(test\)\][ \t]*/, "", code)
    if (code !~ /[^ \t]/) next
  }
  pending {
    if (code ~ /^[ \t]*$/ || code ~ /^[ \t]*#\[/) next
    if (opens > 0) { depth = opens - closes; pending = 0 }
    else if (code ~ /;[ \t]*$/) pending = 0
    next
  }
  /[^ \t]/ { lines[krate]++ }
  /^[ \t]*pub / { pubs[krate]++ }
  END {
    total = 0; total_pubs = 0
    for (k in lines) {
      printf "%-10s %6d %5d pub\n", k, lines[k], pubs[k]
      total += lines[k]; total_pubs += pubs[k]
    }
    printf "%-10s %6d %5d pub\n", "total", total, total_pubs
  }
' $files | sort -k1,1 | awk '$1 != "total" { print } $1 == "total" { t = $0 } END { print t }'
