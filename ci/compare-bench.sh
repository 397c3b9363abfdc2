#!/usr/bin/env sh
# Validate the server-soak artifact:
#
#   compare-bench.sh --server-summary BENCH_server.json
#
# checks the concealer-server-load/v3 schema (serving mode, the server's
# connection high-water mark, p50/p95/p99 latency, divergence count) and
# fails on any divergence.
#
# (The engine perf-smoke baseline comparison that used to live here is
# superseded by the repository benchmark — see benchmark/README.md.)
#
# Exit codes: 0 ok, 1 the gate failed (divergence),
# 2 malformed input (missing file, missing fields, non-numeric values,
# bad usage). Exercised by ci/selftest-compare-bench.sh in the lint-ci
# job.
#
# Usage: compare-bench.sh --server-summary [BENCH_server.json]
set -eu

malformed() {
    echo "error: malformed bench summary: $1" >&2
    exit 2
}

# The number pattern accepts exponent notation (2.1e3) so a formatter
# change toward scientific notation cannot silently blank the extraction.
NUM='[0-9][0-9.]*\([eE][+-]\{0,1\}[0-9]\{1,\}\)\{0,1\}'

# --- server-load summary validation -------------------------------------
check_server_summary() {
    f="$1"
    [ -f "$f" ] || malformed "$f not found"
    grep -q '"schema": *"concealer-server-load/v3"' "$f" \
        || malformed "$f lacks the concealer-server-load/v3 schema marker"
    # "unknown" means the load generator's ServeStats probe failed — the
    # artifact says nothing about the server it ran against.
    grep -q '"mode": *"threaded"' "$f" \
        || malformed "$f has no serving mode (expected \"threaded\")"
    for key in max_concurrent_connections divergences; do
        grep -q "\"$key\": *[0-9][0-9]*" "$f" \
            || malformed "$f lacks a numeric \"$key\" field"
    done
    for pct in p50 p95 p99; do
        grep -q "\"$pct\": *$NUM" "$f" \
            || malformed "$f lacks a numeric latency \"$pct\" field"
    done

    # Routed runs carry a per-member "router_shards" array; when present,
    # every entry must name its replica-set position ("member") and carry
    # the writer flag — that is how the replicated soak leg proves its
    # counters are per-member, not per-set.
    if grep -q '"router_shards": *\[{' "$f"; then
        for key in shard_index member requests_forwarded errors reconnects; do
            grep -q "\"$key\": *[0-9][0-9]*" "$f" \
                || malformed "$f router_shards entries lack a numeric \"$key\" field"
        done
        grep -q '"writer": *\(true\|false\)' "$f" \
            || malformed "$f router_shards entries lack a boolean \"writer\" field"
    fi

    peak=$(sed -n "s/.*\"max_concurrent_connections\": *\([0-9][0-9]*\).*/\1/p" "$f" | head -n 1)
    div=$(sed -n "s/.*\"divergences\": *\([0-9][0-9]*\).*/\1/p" "$f" | head -n 1)
    p50=$(sed -n "s/.*\"p50\": *\($NUM\).*/\1/p" "$f" | head -n 1)
    p95=$(sed -n "s/.*\"p95\": *\($NUM\).*/\1/p" "$f" | head -n 1)
    p99=$(sed -n "s/.*\"p99\": *\($NUM\).*/\1/p" "$f" | head -n 1)
    echo "server summary: peak=$peak p50=${p50}ms p95=${p95}ms p99=${p99}ms divergences=$div"

    if [ "$div" -ne 0 ]; then
        echo "FAIL: $div answer divergence(s) against the oracle" >&2
        exit 1
    fi
    exit 0
}

if [ "${1:-}" != "--server-summary" ]; then
    echo "usage: compare-bench.sh --server-summary [BENCH_server.json]" >&2
    exit 2
fi
check_server_summary "${2:-BENCH_server.json}"
