#!/bin/sh
# Print the code-line measure: non-blank lines that do not start with
# `//`, counted up to each file's first `#[cfg(test)]`, over the library
# and binary sources (`crates/*/src`, `src`). The socket transport's test
# file (`crates/msg/src/transport/tests.rs`) is test code and not counted.
# Run from anywhere; prints one number.
set -eu
cd "$(dirname "$0")/.."
find crates/*/src src -name '*.rs' ! -path crates/msg/src/transport/tests.rs -print0 |
    xargs -0 awk 'FNR == 1 { t = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { t = 1 }
        !t && !/^[[:space:]]*(\/\/|$)/ { n++ }
        END { print n + 0 }' |
    awk '{ total += $1 } END { print total }'
