#!/bin/sh
# census.sh — the numbers every `simplicity` PR reports, from one script.
#
#   sh scripts/census.sh [REPO_ROOT]        (sh + awk + grep; no network)
#
# Rules, so that two trees' counts can be compared:
#
# * non-test LoC: every line (blank and comment lines included) of each
#   crates/*/src/**/*.rs file that comes before the file's unit-test
#   module — the first `#[cfg(test)]` line that is directly followed by a
#   column-0 `mod name {`. A `#[cfg(test)]`-gated item in the middle of a
#   file therefore still counts as product code (PR 21's rule).
# * pub sites: non-test lines whose first token is `pub` (not `pub(...)`).
# * unwrap/expect sites: `.unwrap(` and `.expect(` calls in non-test code
#   (ROADMAP item 7 iii classifies them: invariant, or input-reachable).
# * process statics: non-test `static` items, `thread_local!` ones included.
# * ppslab flags: distinct `"--name"` string literals in the non-test part
#   of the files that parse argv — the one pass (crates/experiments/src/
#   cli.rs; bin/ppslab.rs + the old ad-hoc mode's custom.rs before it
#   existed) and the campaign flags (crates/chaos/src/cli.rs). A spelling
#   counts once however many grammars accept it.
# * ppslab modes: the variants of `cli::Mode` (the `pub enum Mode` block
#   of crates/experiments/src/cli.rs; 0 before that file existed).
# * argv parsers: non-test functions that walk an argv iterator
#   (`while let Some(..) = it.next()`), plus closures over `flag_value`.
# * exit sites: `process::exit` calls in bin/ppslab.rs.
# * items named by ppsbench: the distinct `pps_*::` paths in the non-comment
#   lines of ppsbench/src, brace groups expanded (`a::{b, self}` names
#   `a::b` and `a`) — the benchmark's frozen surface (DESIGN.md, "The
#   benchmark's surface"). Methods called on those items are not counted.
# * shim calls outside ppsbench/: calls, in every .rs file but ppsbench's,
#   of the names that only the frozen surface keeps (the shims over the
#   process-default `RunSpec`); definitions and comments do not count.
root=${1:-$(dirname "$0")/..}
cd "$root" || exit 1

# Print the non-test part of each file given, prefixed `path:`.
nontest() {
    awk '
        FNR == 1 { cut = 0; held = "" }
        cut { next }
        held != "" {
            if ($0 ~ /^mod [a-z_0-9]+ \{/) { cut = 1; held = ""; next }
            print FILENAME ":" held; held = ""
        }
        /^#\[cfg\(test\)\]$/ { held = $0; next }
        { print FILENAME ":" $0 }
    ' "$@"
}

files=$(find crates -path '*/src/*' -name '*.rs' | sort)

echo "non-test LoC (crates/*/src)"
# shellcheck disable=SC2086
nontest $files | awk -F/ '
    { n[$2]++; total++ }
    END {
        for (c in n) printf "  %-12s %6d\n", c, n[c] | "sort"
        close("sort")
        printf "  %-12s %6d\n", "total", total
    }'

# shellcheck disable=SC2086
pubs=$(nontest $files | grep -cE '^[^:]+:[[:space:]]*pub ')
# shellcheck disable=SC2086
statics=$(nontest $files | grep -cE '^[^:]+:[[:space:]]*(pub(\([a-z]+\))? )?static [A-Z_]+:')
# shellcheck disable=SC2086
unwraps=$(nontest $files | grep -oE '\.(unwrap|expect)\(' | wc -l)
echo "pub sites            $pubs"
echo "unwrap/expect sites  $unwraps"
echo "process statics      $statics"

flag_files="crates/chaos/src/cli.rs"
if [ -f crates/experiments/src/cli.rs ]; then
    flag_files="crates/experiments/src/cli.rs $flag_files"
else
    flag_files="crates/experiments/src/bin/ppslab.rs crates/experiments/src/custom.rs $flag_files"
fi
# shellcheck disable=SC2086
flags=$(nontest $flag_files | grep -oE '"--[a-z][a-z-]*"' | sort -u | wc -l)
# shellcheck disable=SC2086
parsers=$(nontest $flag_files | grep -cE 'while let Some\(.*\) = it\.next\(\)|let parse_dim = ')
modes=0
if [ -f crates/experiments/src/cli.rs ]; then
    modes=$(awk '
        /^pub enum Mode \{/ { inside = 1; next }
        inside && /^\}/ { exit }
        inside && /^    [A-Z][A-Za-z]*( \{|[,(])/ { n++ }
        END { print n + 0 }
    ' crates/experiments/src/cli.rs)
fi
echo "ppslab flags         $flags"
echo "ppslab modes         $modes"
echo "argv parsers         $parsers"
echo "ppslab exit sites    $(grep -c 'process::exit' crates/experiments/src/bin/ppslab.rs)"

named=0
crates='pps_(analysis|chaos|core|crossbar|experiments|reference|switch|telemetry|traffic|workload)'
if [ -d ppsbench/src ]; then
    named=$(grep -hv '^[[:space:]]*//' ppsbench/src/*.rs | tr '\n' ' ' |
        grep -oE "$crates(::[A-Za-z_]+)*(::\\{[^}]*\\})?" |
        awk '
            !/::\{/ { print; next }
            {
                at = index($0, "::{")
                base = substr($0, 1, at - 1)
                n = split(substr($0, at + 3, length($0) - at - 3), parts, ",")
                for (i = 1; i <= n; i++) {
                    gsub(/[[:space:]]/, "", parts[i])
                    if (parts[i] != "")
                        print (parts[i] == "self" ? base : base "::" parts[i])
                }
            }' | sort -u | wc -l)
fi
shims='workers::set_jobs|set_intra_jobs|telemetry::set_level|telemetry::counters'
shims="$shims|telemetry::collect|take_absorbed|slots_simulated|slots_skipped"
shims="$shims|set_process_default|SweepPlan::new|registry|compare_bufferless"
shims="$shims|compare_buffered|compare_bufferless_faulted|run_oq|run_buffered"
shims="$shims|run_crossbar_with|run_cioq_policy|reserve_cells"
shim_calls=$(find crates src tests examples -name '*.rs' 2>/dev/null | sort |
    xargs grep -hE "(^|[^A-Za-z0-9_.])($shims)\(" |
    grep -cvE '^[[:space:]]*(//|(pub(\([a-z]+\))? )?fn )')
echo "items named by ppsbench        $named"
echo "shim calls outside ppsbench/   $shim_calls"
