#!/bin/sh
# Print the code-line measure: non-blank lines that do not start with
# `//`, counted up to each file's first `#[cfg(test)]`, over the library
# and binary sources (`crates/*/src`, `src`). The socket transport's test
# file (`crates/msg/src/transport/tests.rs`) is test code and not counted.
# Run from anywhere; prints one `crate lines` line per crate, by name
# (`src` is the root crate), then the total alone on the last line.
set -eu
cd "$(dirname "$0")/.."
find crates/*/src src -name '*.rs' ! -path crates/msg/src/transport/tests.rs -print0 |
    xargs -0 awk 'FNR == 1 { t = 0; split(FILENAME, at, "/"); crate = at[1] == "crates" ? at[2] : "src" }
        /^[[:space:]]*#\[cfg\(test\)\]/ { t = 1 }
        !t && !/^[[:space:]]*(\/\/|$)/ { n[crate]++ }
        END { for (c in n) print c, n[c] }' |
    awk '{ n[$1] += $2; total += $2 }
        END { for (c in n) print c, n[c] | "sort"; close("sort"); print total + 0 }'
