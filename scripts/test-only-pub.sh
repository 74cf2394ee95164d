#!/bin/sh
# Print each `pub` item (`fn`, `const`, `static`, `struct`, `enum`, `type`
# or `trait`) of the library and binary sources (`crates/*/src`, `src`)
# that no other code names: one `path:line name` per item whose name
# appears on no non-test, non-comment line of `crates/*/src`, `src`,
# `perf/src` or `examples`, other than in an item definition.
# Uses the cut of `code-lines.sh`: a file counts up to its first
# `#[cfg(test)]`, lines starting with `//` are skipped, and the socket
# transport's test file (`crates/msg/src/transport/tests.rs`) is left out.
# A name scan, not a compiler: an item that shares its name with a used
# one is not printed. Run from anywhere; informational.
set -eu
cd "$(dirname "$0")/.."
find crates/*/src src perf/src examples -name '*.rs' ! -path crates/msg/src/transport/tests.rs -print0 |
    xargs -0 awk 'FNR == 1 { t = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { t = 1 }
        t || /^[[:space:]]*(\/\/|$)/ { next }
        FILENAME ~ /^(crates\/[^\/]+\/)?src\// &&
            match($0, /^[[:space:]]*pub (const fn|fn|const|static|struct|enum|type|trait) [A-Za-z0-9_]+/) {
            def[FILENAME ":" FNR] = substr($0, RSTART, RLENGTH)
            sub(/.* /, "", def[FILENAME ":" FNR])
        }
        {
            line = $0
            gsub(/(const fn|fn|const|static|struct|enum|type|trait) [A-Za-z0-9_]+/, " ", line)
            gsub(/[^A-Za-z0-9_]+/, " ", line)
            n = split(line, words, " ")
            for (i = 1; i <= n; i++) named[words[i]] = 1
        }
        END { for (at in def) if (!(def[at] in named)) print at " " def[at] }' |
    sort
