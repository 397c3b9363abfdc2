#!/usr/bin/env sh
# Self-test for ci/compare-bench.sh: pins the gate's contract — exit 0 on
# a well-formed server-load summary, exit 1 on an oracle divergence,
# exit 2 on any malformed summary (missing file, stale schema, unknown
# serving mode, missing latency or per-member router fields) or bad
# usage. Run by the lint-ci job and runnable locally:
# sh ci/selftest-compare-bench.sh
set -eu

script_dir=$(dirname "$0")
compare="$script_dir/compare-bench.sh"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

failures=0

# --- --server-summary mode (concealer-server-load/v3) -------------------

# write_server_summary <path> <mode> <peak> <divergences>
write_server_summary() {
    cat >"$1" <<EOF
{
  "schema": "concealer-server-load/v3",
  "addr": "127.0.0.1:7171",
  "backend": "memory",
  "mode": "$2",
  "clients": 8,
  "requests_per_client": 36,
  "batch_len": 8,
  "max_concurrent_connections": $3,
  "requests": 288,
  "queries": 900,
  "ingest_epochs": 0,
  "elapsed_s": 1.500,
  "qps": 600.00,
  "latency_ms": {"p50": 0.500, "p95": 2.000, "p99": 4.000, "max": 9.000},
  "checked": true,
  "divergences": $4,
  "client_errors": 0
}
EOF
}

# expect_server <name> <expected-rc> <file>
expect_server() {
    name="$1"
    want="$2"
    file="$3"
    got=0
    sh "$compare" --server-summary "$file" \
        >"$tmp/out" 2>"$tmp/err" || got=$?
    if [ "$got" -eq "$want" ]; then
        echo "ok: $name (rc=$got)"
    else
        echo "FAIL: $name: expected rc=$want, got rc=$got" >&2
        sed 's/^/  stdout: /' "$tmp/out" >&2
        sed 's/^/  stderr: /' "$tmp/err" >&2
        failures=$((failures + 1))
    fi
}

write_server_summary "$tmp/srv-threaded.json" "threaded" "17" "0"
expect_server "well-formed summary passes" 0 "$tmp/srv-threaded.json"

# Any oracle divergence fails the gate even if the schema is pristine.
write_server_summary "$tmp/srv-diverged.json" "threaded" "17" "3"
expect_server "divergences fail the gate" 1 "$tmp/srv-diverged.json"

# "unknown" mode means the ServeStats probe failed — no claim to gate on.
write_server_summary "$tmp/srv-unknown.json" "unknown" "0" "0"
expect_server "unknown serving mode is malformed" 2 "$tmp/srv-unknown.json"

# A v1 artifact (no mode, no connection high-water mark) must be rejected.
cat >"$tmp/srv-v1.json" <<'EOF'
{
  "schema": "concealer-server-load/v1",
  "addr": "127.0.0.1:7171",
  "qps": 600.00,
  "latency_ms": {"p50": 0.500, "p95": 2.000, "p99": 4.000, "max": 9.000},
  "divergences": 0
}
EOF
expect_server "server-load v1 schema is malformed" 2 "$tmp/srv-v1.json"

# Missing latency percentiles → malformed.
write_server_summary "$tmp/srv-nolat.json" "threaded" "17" "0"
sed '/"latency_ms":/d' "$tmp/srv-nolat.json" >"$tmp/srv-nolat2.json"
expect_server "missing latency percentiles is malformed" 2 "$tmp/srv-nolat2.json"

expect_server "missing server summary is malformed" 2 "$tmp/srv-nonexistent.json"

# --- routed summaries: per-member router counters ------------------------

# A routed run's router_shards array must carry each member's replica-set
# position and writer flag; an entry shaped like the pre-replica schema
# (no "member", no "writer") must be rejected so a stale load binary
# cannot pass the replicated soak gate.
# write_routed_server_summary <path> <shard-entry-json>
write_routed_server_summary() {
    cat >"$1" <<EOF
{
  "schema": "concealer-server-load/v3",
  "addr": "127.0.0.1:7171",
  "backend": "memory",
  "mode": "threaded",
  "clients": 8,
  "requests_per_client": 36,
  "batch_len": 8,
  "max_concurrent_connections": 9,
  "requests": 288,
  "queries": 900,
  "ingest_epochs": 0,
  "elapsed_s": 1.500,
  "qps": 600.00,
  "latency_ms": {"p50": 0.500, "p95": 2.000, "p99": 4.000, "max": 9.000},
  "checked": true,
  "divergences": 0,
  "client_errors": 0,
  "router_errors": {"shard_unavailable": 2, "other": 0},
  "router_shards": [$2]
}
EOF
}

member_entry='{"shard_index": 0, "member": 0, "writer": true, "addr": "127.0.0.1:7001", "requests_forwarded": 144, "errors": 0, "reconnects": 0, "available": true}, {"shard_index": 0, "member": 1, "writer": false, "addr": "127.0.0.1:7002", "requests_forwarded": 144, "errors": 2, "reconnects": 1, "available": true}'
write_routed_server_summary "$tmp/srv-routed.json" "$member_entry"
expect_server "routed summary with per-member counters passes" 0 "$tmp/srv-routed.json"

no_member_entry='{"shard_index": 0, "writer": true, "addr": "127.0.0.1:7001", "requests_forwarded": 144, "errors": 0, "reconnects": 0, "available": true}'
write_routed_server_summary "$tmp/srv-routed-nomember.json" "$no_member_entry"
expect_server "router_shards entry without member is malformed" 2 "$tmp/srv-routed-nomember.json"

no_writer_entry='{"shard_index": 0, "member": 0, "addr": "127.0.0.1:7001", "requests_forwarded": 144, "errors": 0, "reconnects": 0, "available": true}'
write_routed_server_summary "$tmp/srv-routed-nowriter.json" "$no_writer_entry"
expect_server "router_shards entry without writer flag is malformed" 2 "$tmp/srv-routed-nowriter.json"

# Any other invocation (the retired baseline-comparison form included) is
# a usage error, not a silent pass.
got=0
sh "$compare" "$tmp/srv-threaded.json" "$tmp/srv-threaded.json" >"$tmp/out" 2>"$tmp/err" || got=$?
if [ "$got" -eq 2 ]; then
    echo "ok: invocation without --server-summary is a usage error (rc=2)"
else
    echo "FAIL: invocation without --server-summary: expected rc=2, got rc=$got" >&2
    failures=$((failures + 1))
fi

if [ "$failures" -ne 0 ]; then
    echo "compare-bench self-test: $failures failure(s)" >&2
    exit 1
fi
echo "compare-bench self-test: all cases pass"
