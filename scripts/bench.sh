#!/usr/bin/env bash
# bench.sh — run the Go microbenchmarks and emit results as JSON, so
# BENCH_*.json files form a trajectory across PRs.
#
# Usage:
#   scripts/bench.sh [output.json] [benchtime]
#       Run all benchmarks and write a JSON report.
#       output.json  defaults to BENCH_<utc timestamp>.json
#       benchtime    passed to -benchtime (default 1x for a fast smoke run)
#
#   scripts/bench.sh compare [baseline.json] [benchtime]
#       Run a fresh pass and diff it against a committed baseline
#       (default BENCH_baseline.json), printing a markdown table.
#       Exits non-zero if any benchmark regresses by more than 25%
#       in ns/op or bytes/rec against the baseline.
#
# Writing BENCH_baseline.json is refused from a dirty working tree, so
# the committed baseline always matches the commit stamped into it.
# Set BENCH_ALLOW_DIRTY=1 to override (e.g. while iterating locally).
set -euo pipefail

cd "$(dirname "$0")/.."

# refuse_dirty_baseline OUT — a baseline recorded from uncommitted code
# lies about its "commit" field and poisons every later comparison.
refuse_dirty_baseline() {
    local out="$1"
    [[ "$(basename "$out")" == "BENCH_baseline.json" ]] || return 0
    [[ -z "${BENCH_ALLOW_DIRTY:-}" ]] || return 0
    if [[ -n "$(git status --porcelain 2>/dev/null)" ]]; then
        echo "bench.sh: refusing to write $out from a dirty working tree" >&2
        echo "bench.sh: commit first, or set BENCH_ALLOW_DIRTY=1 to override" >&2
        exit 2
    fi
}

# run_bench OUT BENCHTIME — run all benchmarks (core microbenchmarks
# and the internal/server HTTP serving benchmarks), write the JSON
# report. The explicit -timeout gives the HTTP benchmarks headroom on
# slow runners.
run_bench() {
    local out="$1" benchtime="$2" raw ncpu gmp
    raw="$(go test -run '^$' -bench=. -benchmem -benchtime="$benchtime" -timeout 20m ./...)"
    # Record the parallelism the run actually had: ns/op on a 1-core CI
    # runner is not comparable to ns/op on a 16-core laptop, and the
    # compare gate uses these fields to tell the two apart instead of
    # relying on a prose caveat in the PR.
    ncpu="$(getconf _NPROCESSORS_ONLN 2>/dev/null || nproc 2>/dev/null || echo 0)"
    gmp="${GOMAXPROCS:-$ncpu}"

    awk -v commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
        -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
        -v ncpu="$ncpu" -v gmp="$gmp" '
BEGIN { n = 0 }
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/    { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
    name = $1; iters = $2
    ns = ""; bytes_op = ""; allocs = ""; mb_s = ""; bytes_rec = ""
    survival = ""; mapped_rec = ""; ack_ns = ""; fsync_ns = ""; rescored = ""
    for (i = 3; i < NF; i++) {
        if ($(i+1) == "ns/op")         ns = $i
        if ($(i+1) == "B/op")          bytes_op = $i
        if ($(i+1) == "allocs/op")     allocs = $i
        if ($(i+1) == "MB/s")          mb_s = $i
        if ($(i+1) == "bytes/rec")     bytes_rec = $i
        if ($(i+1) == "survival")      survival = $i
        if ($(i+1) == "mappedB/rec")   mapped_rec = $i
        if ($(i+1) == "ingest_ack_ns") ack_ns = $i
        if ($(i+1) == "wal_fsync_ns")  fsync_ns = $i
        if ($(i+1) == "rescored/op")   rescored = $i
    }
    line = sprintf("    {\"name\": \"%s\", \"iterations\": %s", name, iters)
    if (ns != "")         line = line sprintf(", \"ns_per_op\": %s", ns)
    if (mb_s != "")       line = line sprintf(", \"mb_per_s\": %s", mb_s)
    if (bytes_rec != "")  line = line sprintf(", \"bytes_per_record\": %s", bytes_rec)
    if (survival != "")   line = line sprintf(", \"survival_rate\": %s", survival)
    if (mapped_rec != "") line = line sprintf(", \"mapped_bytes_per_record\": %s", mapped_rec)
    if (ack_ns != "")     line = line sprintf(", \"ingest_ack_ns\": %s", ack_ns)
    if (fsync_ns != "")   line = line sprintf(", \"wal_fsync_ns\": %s", fsync_ns)
    if (rescored != "")   line = line sprintf(", \"rescored_per_op\": %s", rescored)
    if (bytes_op != "")   line = line sprintf(", \"bytes_per_op\": %s", bytes_op)
    if (allocs != "")     line = line sprintf(", \"allocs_per_op\": %s", allocs)
    results[n++] = line "}"
}
END {
    printf "{\n"
    printf "  \"commit\": \"%s\",\n", commit
    printf "  \"date\": \"%s\",\n", date
    printf "  \"goos\": \"%s\",\n", goos
    printf "  \"goarch\": \"%s\",\n", goarch
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"num_cpu\": %d,\n", ncpu
    printf "  \"gomaxprocs\": %d,\n", gmp
    printf "  \"benchmarks\": [\n"
    for (i = 0; i < n; i++)
        printf "%s%s\n", results[i], (i < n - 1 ? "," : "")
    printf "  ]\n}\n"
}' <<<"$raw" >"$out"

    echo "wrote $out ($(grep -c '"name"' "$out") benchmarks)" >&2
}

# extract FILE — benchmark name/metric/value triples, one per line,
# with the GOMAXPROCS suffix stripped so runs from machines with
# different core counts stay comparable. Covers the time metric
# (ns/op), the memory metric (bytes/rec), the tier-health metrics
# (survival rate, mapped bytes per record, full-width rows read per
# search), and the durability metrics (acked-ingest latency, WAL fsync
# latency), so comparisons track speed, footprint, selectivity, and
# durability cost side by side.
extract() {
    awk -F'"' '/"name":/ {
        name = $4
        sub(/-[0-9]+$/, "", name)
        if (match($0, /"ns_per_op": [0-9.]+/))
            print name "\tns/op\t" substr($0, RSTART + 13, RLENGTH - 13)
        if (match($0, /"bytes_per_record": [0-9.]+/))
            print name "\tbytes/rec\t" substr($0, RSTART + 20, RLENGTH - 20)
        if (match($0, /"survival_rate": [0-9.]+/))
            print name "\tsurvival\t" substr($0, RSTART + 17, RLENGTH - 17)
        if (match($0, /"mapped_bytes_per_record": [0-9.]+/))
            print name "\tmappedB/rec\t" substr($0, RSTART + 27, RLENGTH - 27)
        if (match($0, /"ingest_ack_ns": [0-9.]+/))
            print name "\tingest_ack_ns\t" substr($0, RSTART + 17, RLENGTH - 17)
        if (match($0, /"wal_fsync_ns": [0-9.]+/))
            print name "\twal_fsync_ns\t" substr($0, RSTART + 16, RLENGTH - 16)
        if (match($0, /"rescored_per_op": [0-9.]+/))
            print name "\trescored/op\t" substr($0, RSTART + 19, RLENGTH - 19)
    }' "$1"
}

# cpu_shape FILE — "num_cpu/gomaxprocs" from a report's metadata, or
# "?" for reports that predate those fields.
cpu_shape() {
    awk -F': ' '
        /"num_cpu":/    { gsub(/[ ,]/, "", $2); n = $2 }
        /"gomaxprocs":/ { gsub(/[ ,]/, "", $2); g = $2 }
        END { if (n == "" && g == "") print "?"; else print n "/" g }
    ' "$1"
}

# compare BASELINE CURRENT — markdown diff table over every recorded
# metric; exit 1 on a >25% regression (ns/op or bytes/rec) in any
# benchmark present in both files. When the two reports were taken at
# different CPU shapes (num_cpu/GOMAXPROCS), wall-clock metrics are not
# comparable, so ns/op regressions demote to warnings and only the
# machine-independent bytes/rec metric still gates.
compare() {
    local baseline="$1" current="$2" bshape cshape cpumatch=1
    bshape="$(cpu_shape "$baseline")"
    cshape="$(cpu_shape "$current")"
    if [[ "$bshape" != "$cshape" ]]; then
        cpumatch=0
        echo "bench.sh: CPU shape mismatch: baseline ran at ${bshape} (num_cpu/GOMAXPROCS), current at ${cshape}." >&2
        echo "bench.sh: ns/op deltas are not comparable across shapes; gating on bytes/rec only." >&2
    fi
    awk -F'\t' -v cpumatch="$cpumatch" '
NR == FNR { base[$1 "|" $2] = $3; next }
{ key = $1 "|" $2; cur[key] = $3; name[key] = $1; metric[key] = $2; order[n++] = key }
END {
    printf "| benchmark | metric | baseline | current | delta |\n"
    printf "|---|---|---:|---:|---:|\n"
    fail = 0
    for (i = 0; i < n; i++) {
        key = order[i]
        if (!(key in base)) {
            printf "| %s | %s | - | %s | new |\n", name[key], metric[key], cur[key]
            continue
        }
        delta = (cur[key] - base[key]) / base[key] * 100
        mark = ""
        # Only the stable metrics gate: fsync and ack latencies are
        # disk-jittery and recorded for trend-watching, not CI failure.
        # ns/op additionally requires a matching CPU shape between the
        # two reports (see the mismatch banner above).
        gated = (metric[key] == "bytes/rec" || (metric[key] == "ns/op" && cpumatch))
        if (gated && cur[key] > base[key] * 1.25) { mark = " **REGRESSION**"; fail = 1 }
        else if (metric[key] == "ns/op" && !cpumatch && cur[key] > base[key] * 1.25)
            mark = " (ns/op not gated: cpu shape mismatch)"
        printf "| %s | %s | %s | %s | %+.1f%%%s |\n", name[key], metric[key], base[key], cur[key], delta, mark
    }
    for (key in base)
        if (!(key in cur)) {
            split(key, parts, "|")
            printf "| %s | %s | %s | - | removed |\n", parts[1], parts[2], base[key]
        }
    exit fail
}' <(extract "$baseline") <(extract "$current")
}

if [[ "${1:-}" == "compare" ]]; then
    baseline="${2:-BENCH_baseline.json}"
    benchtime="${3:-1x}"
    if [[ ! -f "$baseline" ]]; then
        echo "bench.sh: baseline $baseline not found" >&2
        exit 2
    fi
    fresh="$(mktemp -t bench-current.XXXXXX.json)"
    trap 'rm -f "$fresh"' EXIT
    run_bench "$fresh" "$benchtime"
    echo "### Benchmark comparison vs $baseline"
    if compare "$baseline" "$fresh"; then
        echo
        echo "No >25% regressions (ns/op or bytes/rec)."
    else
        echo
        echo "At least one benchmark regressed by >25% (ns/op or bytes/rec)." >&2
        exit 1
    fi
else
    out="${1:-BENCH_$(date -u +%Y%m%dT%H%M%SZ).json}"
    refuse_dirty_baseline "$out"
    run_bench "$out" "${2:-1x}"
fi
