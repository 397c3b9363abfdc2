#!/usr/bin/env sh
# Serving-layer soak: launch the release concealer-server binary on an
# ephemeral loopback port, drive it with concealer-load (N concurrent
# clients of mixed point/range/batch workloads, every answer checked
# bit-for-bit against the in-process oracle, follow-up epochs ingested
# over the wire while queries are live), then require a graceful wire
# shutdown. The storage backend follows CONCEALER_TEST_BACKEND (memory /
# disk) in both processes — the CI server-soak job runs both.
#
# With SOAK_ROUTER_SHARDS=N (N >= 2) the soak instead exercises the
# routed deployment: N epoch-sharded servers behind a concealer-router,
# the load generator pointed at the router with --router, and — the
# point of the leg — one shard SIGKILLed mid-load. The gate: the load
# generator exits 0 having seen only structured shard_unavailable
# errors (at least one, proving the kill landed mid-load) and zero
# divergences, and the router plus every surviving shard still drain to
# a graceful SHUTDOWN.
#
# With SOAK_REPLICAS=N (N >= 2, exclusive with SOAK_ROUTER_SHARDS) the
# soak exercises one replicated shard instead: a writer plus N-1 read
# replicas sharing one durable store root behind the router
# (comma-joined member list), and the WRITER SIGKILLed mid-load. The
# gate is stricter than the sharded leg's: the load generator exits 0
# with zero divergences (reads fail over to replicas serving
# bit-identical answers, so the kill may be fully masked — no
# shard_unavailable floor), the summary carries per-member router
# counters (member index + writer flag), and the router plus every
# replica still drain to a graceful SHUTDOWN. Both router legs are one
# routine, `router_leg`, parametrised by topology.
#
# With SOAK_ROTATE=1 the single-node soak additionally rotates the
# master-key generation online mid-load: the server runs on a durable
# store (rotation needs a key vault to re-wrap) with
# --rotate-after-ms ${SOAK_ROTATE_AFTER_MS:-500}, and the gate requires
# both the load generator's usual zero-divergence exit 0 AND a
# `ROTATION generation=G epochs=E` line with G >= 1 and E >= 1 on the
# server's stdout — proving the vault re-wrapped under live query load
# with bit-identical answers throughout (OPERATIONS.md § "Master-key
# rotation"). The default request count is raised so release binaries
# don't finish before the rotation fires; SOAK_REQUESTS still overrides.
#
# Exit codes: 0 soak clean, 1 divergence / client error / non-graceful
# shutdown, 2 binaries missing.
#
# Usage: server-soak.sh [BENCH_server.json]
set -eu

OUT="${1:-BENCH_server.json}"
SERVER_BIN="${SERVER_BIN:-target/release/concealer-server}"
LOAD_BIN="${LOAD_BIN:-target/release/concealer-load}"
ROUTER_BIN="${ROUTER_BIN:-target/release/concealer-router}"
HOURS="${SOAK_HOURS:-2}"
SEED="${SOAK_SEED:-42}"
CLIENTS="${SOAK_CLIENTS:-8}"
REQUESTS="${SOAK_REQUESTS:-36}"
ROUTER_SHARDS="${SOAK_ROUTER_SHARDS:-0}"
REPLICAS="${SOAK_REPLICAS:-0}"
ROTATE="${SOAK_ROTATE:-0}"
script_dir=$(dirname "$0")

if [ "$ROUTER_SHARDS" -gt 0 ] && [ "$REPLICAS" -gt 0 ]; then
    echo "error: SOAK_ROUTER_SHARDS and SOAK_REPLICAS are mutually exclusive" >&2
    exit 2
fi
if [ "$ROTATE" = "1" ] && { [ "$ROUTER_SHARDS" -gt 0 ] || [ "$REPLICAS" -gt 0 ]; }; then
    echo "error: SOAK_ROTATE applies to the single-node soak only" >&2
    exit 2
fi
if [ "$ROTATE" = "1" ]; then
    # A rotation under load needs enough load to still be running when the
    # rotation fires; release binaries burn the default in well under the
    # fire delay.
    REQUESTS="${SOAK_REQUESTS:-200}"
fi

for bin in "$SERVER_BIN" "$LOAD_BIN"; do
    if [ ! -x "$bin" ]; then
        echo "error: $bin not built (run: cargo build --release -p concealer-server -p concealer-load)" >&2
        exit 2
    fi
done

# --- router legs ----------------------------------------------------------
# router_leg <sharded|replicated> <members> — a routed deployment with one
# member SIGKILLed mid-load; runs instead of the single-node flow and exits.
# sharded: N epoch-sharded servers, the last shard killed. replicated: one
# shard as a writer plus N-1 read replicas on a shared store root, the
# writer killed.
router_leg() {
    topology="$1"
    count="$2"
    if [ ! -x "$ROUTER_BIN" ]; then
        echo "error: $ROUTER_BIN not built (run: cargo build --release -p concealer-router)" >&2
        exit 2
    fi

    workdir=$(mktemp -d)
    pids=""
    cleanup_router_leg() {
        for pid in $pids; do kill "$pid" 2>/dev/null || true; done
        rm -rf "$workdir"
    }
    trap cleanup_router_leg EXIT INT TERM

    # wait_ready <name> <pid> — block until $workdir/<name>.out carries a
    # READY line (sets $addr), failing loudly if the process dies first.
    wait_ready() {
        addr=""
        tries=0
        while [ "$tries" -lt 300 ]; do
            addr=$(sed -n 's/^READY addr=\([^ ]*\).*/\1/p' "$workdir/$1.out")
            if [ -n "$addr" ]; then
                return 0
            fi
            if ! kill -0 "$2" 2>/dev/null; then
                echo "error: $1 exited before READY" >&2
                cat "$workdir/$1.err" >&2
                exit 1
            fi
            tries=$((tries + 1))
            sleep 0.2
        done
        echo "error: $1 did not become READY in time" >&2
        exit 1
    }

    # Members start one at a time, in order: a shard's --shard index must
    # match its --shard-addr position, and a replica opens the store root
    # only after the writer committed the base epoch there, so it absorbs
    # that epoch at startup rather than racing its refresh loop. Sharded
    # members are separate --shard-addr flags; a replica set is one
    # comma-joined entry whose roles the probe discovers.
    case "$topology" in
        sharded) victim=$((count - 1)) separator=" --shard-addr " ;;
        replicated) victim=0 separator="," ;;
    esac
    addrs=""
    i=0
    while [ "$i" -lt "$count" ]; do
        role=""
        flags="--shard $i/$count"
        if [ "$topology" = replicated ]; then
            role=writer
            flags="--store $workdir/shardstore"
            if [ "$i" -gt 0 ]; then
                role=replica
                flags="$flags --replica --refresh-ms 100"
            fi
        fi
        # shellcheck disable=SC2086
        "$SERVER_BIN" --hours "$HOURS" --seed "$SEED" $flags \
            >"$workdir/member$i.out" 2>"$workdir/member$i.err" &
        eval "member_pid_$i=$!"
        pids="$pids $!"
        wait_ready "member$i" "$!"
        if [ -n "$role" ] && ! grep -q "role=$role" "$workdir/member$i.out"; then
            echo "error: member $i did not report role=$role on its READY line" >&2
            exit 1
        fi
        echo "soak: $topology member $i/$count ${role:+($role) }ready on $addr"
        addrs="${addrs:+$addrs$separator}$addr"
        i=$((i + 1))
    done

    # The router probes the shard map before binding; a READY line means
    # every member agreed on its slice and every set has one writer.
    # shellcheck disable=SC2086
    "$ROUTER_BIN" --shard-addr $addrs \
        >"$workdir/router.out" 2>"$workdir/router.err" &
    router_pid=$!
    pids="$pids $router_pid"
    wait_ready router "$router_pid"
    router_addr="$addr"
    echo "soak: router ready on $router_addr fronting $count $topology member(s)"

    # Drive the load through the router; once its query phase has started,
    # SIGKILL the victim out from under the deployment. The router legs
    # need a longer run than the single-node default so release binaries
    # don't finish before the kill lands — SOAK_REQUESTS still overrides.
    "$LOAD_BIN" --addr "$router_addr" --router --clients "$CLIENTS" \
        --requests "${SOAK_REQUESTS:-400}" --hours "$HOURS" --seed "$SEED" \
        --ingest-epochs 2 --shutdown --out "$OUT" 2>"$workdir/load.err" &
    load_pid=$!
    pids="$pids $load_pid"
    tries=0
    while [ "$tries" -lt 300 ]; do
        if grep -q 'client(s) x' "$workdir/load.err" 2>/dev/null; then
            break
        fi
        if ! kill -0 "$load_pid" 2>/dev/null; then
            break
        fi
        tries=$((tries + 1))
        sleep 0.1
    done
    sleep 0.1
    eval "victim_pid=\$member_pid_$victim"
    if kill -0 "$load_pid" 2>/dev/null; then
        echo "soak: killing $topology member $victim mid-load (pid $victim_pid)"
        kill -9 "$victim_pid" 2>/dev/null || true
    else
        echo "error: load finished before the kill could land; raise SOAK_REQUESTS" >&2
        exit 1
    fi

    load_rc=0
    wait "$load_pid" || load_rc=$?
    sed 's/^/soak: load: /' "$workdir/load.err"
    if [ "$load_rc" -ne 0 ]; then
        echo "error: $topology load failed (rc=$load_rc): divergence or unstructured error during failover" >&2
        exit 1
    fi

    # The summary must carry the per-member router counters (the
    # compare-bench gate below re-checks the full schema, including the
    # member index and writer flag on every entry).
    if ! grep -q '"router_shards": \[{' "$OUT" || ! grep -q '"member": ' "$OUT"; then
        echo "error: summary lacks the per-member router counters" >&2
        exit 1
    fi
    # A killed shard must have been *observed* — as structured errors, and
    # only as structured errors (anything else already failed the load
    # above). A killed writer may be fully masked: reads fail over to
    # replicas serving bit-identical answers, so there is no floor there.
    unavailable=$(sed -n 's/.*"shard_unavailable": *\([0-9][0-9]*\).*/\1/p' "$OUT" | head -n 1)
    if [ "$topology" = sharded ] && [ "${unavailable:-0}" -lt 1 ]; then
        echo "error: shard $victim was killed mid-load but no structured shard_unavailable reply was observed" >&2
        exit 1
    fi

    # The router and every surviving member must still drain gracefully.
    router_rc=0
    wait "$router_pid" || router_rc=$?
    if [ "$router_rc" -ne 0 ] || ! grep -q '^SHUTDOWN graceful' "$workdir/router.out"; then
        echo "error: router exited non-gracefully (rc=$router_rc)" >&2
        cat "$workdir/router.err" >&2
        exit 1
    fi
    i=0
    while [ "$i" -lt "$count" ]; do
        eval "pid=\$member_pid_$i"
        member_rc=0
        wait "$pid" 2>/dev/null || member_rc=$?
        if [ "$i" -ne "$victim" ] &&
            { [ "$member_rc" -ne 0 ] || ! grep -q '^SHUTDOWN graceful' "$workdir/member$i.out"; }; then
            echo "error: member $i exited non-gracefully (rc=$member_rc)" >&2
            cat "$workdir/member$i.err" >&2
            exit 1
        fi
        i=$((i + 1))
    done
    pids=""

    sh "$script_dir/compare-bench.sh" --server-summary "$OUT"
    qps=$(sed -n 's/.*"qps": *\([0-9.eE+-]*\).*/\1/p' "$OUT" | head -n 1)
    echo "soak ok ($topology): members=$count killed=$victim tolerated=${unavailable:-0} qps=${qps:-?} summary=$OUT"
    exit 0
}

if [ "$ROUTER_SHARDS" -gt 0 ]; then
    if [ "$ROUTER_SHARDS" -lt 2 ]; then
        echo "error: SOAK_ROUTER_SHARDS must be >= 2 (got $ROUTER_SHARDS)" >&2
        exit 2
    fi
    router_leg sharded "$ROUTER_SHARDS"
fi
if [ "$REPLICAS" -gt 0 ]; then
    if [ "$REPLICAS" -lt 2 ]; then
        echo "error: SOAK_REPLICAS must be >= 2 (got $REPLICAS)" >&2
        exit 2
    fi
    router_leg replicated "$REPLICAS"
fi

server_out=$(mktemp)
server_err=$(mktemp)
server_pid=""
rotate_store=""

cleanup() {
    if [ -n "$server_pid" ]; then
        kill "$server_pid" 2>/dev/null || true
    fi
    rm -f "$server_out" "$server_err"
    if [ -n "$rotate_store" ]; then
        rm -rf "$rotate_store"
    fi
}
trap cleanup EXIT INT TERM

# Rotation leg: a durable store (the key vault lives in its manifest —
# the in-memory backend has nothing to re-wrap) plus the online-rotation
# hook. The fire delay lands the rotation inside the load window.
rotate_flags=""
if [ "$ROTATE" = "1" ]; then
    rotate_store=$(mktemp -d)
    rotate_flags="--store $rotate_store/root --rotate-after-ms ${SOAK_ROTATE_AFTER_MS:-500}"
fi

# shellcheck disable=SC2086
"$SERVER_BIN" --hours "$HOURS" --seed "$SEED" $rotate_flags \
    >"$server_out" 2>"$server_err" &
server_pid=$!

# Wait (up to ~60 s) for the READY line; the server builds and ingests the
# demo deployment first.
addr=""
tries=0
while [ "$tries" -lt 300 ]; do
    addr=$(sed -n 's/^READY addr=\([^ ]*\).*/\1/p' "$server_out")
    if [ -n "$addr" ]; then
        break
    fi
    if ! kill -0 "$server_pid" 2>/dev/null; then
        echo "error: server exited before READY" >&2
        cat "$server_err" >&2
        exit 1
    fi
    tries=$((tries + 1))
    sleep 0.2
done
if [ -z "$addr" ]; then
    echo "error: server did not become READY in time" >&2
    cat "$server_err" >&2
    exit 1
fi
backend=$(sed -n 's/^READY.*backend=\([^ ]*\).*/\1/p' "$server_out")
echo "soak: server ready on $addr (backend: ${backend:-unknown})"

load_rc=0
"$LOAD_BIN" --addr "$addr" --clients "$CLIENTS" --requests "$REQUESTS" \
    --hours "$HOURS" --seed "$SEED" \
    --ingest-epochs 2 --shutdown --out "$OUT" || load_rc=$?
if [ "$load_rc" -ne 0 ]; then
    echo "error: load generator failed (rc=$load_rc): answer divergence, client error, or shutdown refusal" >&2
    exit 1
fi

# The wire shutdown must drain the server to a clean exit 0 plus the
# SHUTDOWN marker — anything else is a non-graceful shutdown and fails.
server_rc=0
wait "$server_pid" || server_rc=$?
server_pid=""
if [ "$server_rc" -ne 0 ]; then
    echo "error: server exited non-gracefully (rc=$server_rc)" >&2
    cat "$server_err" >&2
    exit 1
fi
if ! grep -q '^SHUTDOWN graceful' "$server_out"; then
    echo "error: server exited without reporting a graceful shutdown" >&2
    cat "$server_out" >&2
    exit 1
fi

# The rotation gate: the load above already proved zero divergence; here
# the rotation itself must have completed — generation bumped, at least
# one vault entry re-wrapped — while the server was serving.
if [ "$ROTATE" = "1" ]; then
    rotation=$(sed -n 's/^ROTATION generation=\([0-9][0-9]*\) epochs=\([0-9][0-9]*\)$/\1 \2/p' "$server_out" | head -n 1)
    if [ -z "$rotation" ]; then
        echo "error: SOAK_ROTATE=1 but the server never printed a ROTATION line" >&2
        cat "$server_out" >&2
        exit 1
    fi
    rot_generation=${rotation%% *}
    rot_epochs=${rotation##* }
    if [ "$rot_generation" -lt 1 ] || [ "$rot_epochs" -lt 1 ]; then
        echo "error: rotation did not move the vault (generation=$rot_generation epochs=$rot_epochs)" >&2
        exit 1
    fi
    echo "soak: master key rotated online to generation $rot_generation ($rot_epochs vault entries re-wrapped) under live load"
fi

# Validate the summary schema and the zero-divergence gate.
sh "$script_dir/compare-bench.sh" --server-summary "$OUT"

grep '^SHUTDOWN' "$server_out"
qps=$(sed -n 's/.*"qps": *\([0-9.eE+-]*\).*/\1/p' "$OUT" | head -n 1)
echo "soak ok: backend=${backend:-unknown} qps=${qps:-?} summary=$OUT"
