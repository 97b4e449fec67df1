#!/usr/bin/env sh
# Report, not a gate: every `pub fn` whose name appears in exactly one
# `.rs` file under crates/ src/ tests/ examples/, with that file. Such a
# function has no caller outside the file that defines it, so it should
# get one, become private, or go. A name can legitimately be used in one
# file, so this always exits 0. Expected: `munmap`, the foreign
# declaration in crates/expdb/src/image.rs, and `run_block` in
# examples/bench_e2e/src/harness.rs, which changes only with the benchmark.
# Usage: sh scripts/single_file_pub_fns.sh
cd "$(dirname "$0")/.."
dirs="crates src tests examples"
names=$(grep -rhoE --include='*.rs' 'pub (const |unsafe )*fn [A-Za-z0-9_]+' $dirs | sed 's/.* //' | sort -u)
grep -roE --include='*.rs' '[A-Za-z_][A-Za-z0-9_]*' $dirs | sort -u |
    awk -F: -v names="$names" '
        BEGIN { split(names, list, "\n"); for (i in list) public[list[i]] = 1 }
        $2 in public { files[$2]++; where[$2] = $1 }
        END { for (w in files) if (files[w] == 1) print "single-file pub fn: " w " (" where[w] ")" }' |
    sort
exit 0
