#!/usr/bin/env bash
# Networked smoke test: boot gems-serve on loopback, run a script through
# gems-shell --connect, and verify the output matches an in-process run
# byte for byte. The server runs with its observability surfaces armed
# (--metrics-addr, --slow-query-ms 0) and the Prometheus scrape is
# validated; CI uploads gems-serve.log, the scrape and the slow-query log
# on failure. Runnable locally: scripts/net_smoke.sh [target/release]
#
# scripts/net_smoke.sh --throughput [bindir] runs the throughput lane
# instead: a release gems-serve on loopback driven by the pipelined
# loadgen (gems-shell --loadgen), with a qps floor. Knobs:
#   THROUGHPUT_MIN_QPS=N      sustained-qps floor (default 10000)
#   THROUGHPUT_ALLOW_SLOW=1   report a miss but exit 0 (noisy runners)
#   THROUGHPUT_DURATION_MS=N  measurement window (default 5000)
#   THROUGHPUT_DEPTH=N        pipeline depth (default 64)
#   LOADGEN_JSON=path         qps + latency-histogram artifact
#                             (default $workdir/loadgen.json)
set -euo pipefail

mode=smoke
bindir=target/release
for arg in "$@"; do
    case "$arg" in
    --throughput) mode=throughput ;;
    *) bindir="$arg" ;;
    esac
done
workdir="$(mktemp -d)"
log="${SERVE_LOG:-$workdir/gems-serve.log}"
metrics_out="${METRICS_OUT:-$workdir/metrics.prom}"
slow_log="${SLOW_LOG:-$workdir/slow-queries.jsonl}"
serve_pid="" durable_pid="" durable2_pid="" prim_pid="" repl_pid=""
trap 'kill $serve_pid $durable_pid $durable2_pid $prim_pid $repl_pid 2>/dev/null || true; rm -rf "$workdir"' EXIT

# ---- Throughput lane (--throughput): pipelined loadgen + qps floor ----
if [ "$mode" = throughput ]; then
    min_qps="${THROUGHPUT_MIN_QPS:-10000}"
    dur_ms="${THROUGHPUT_DURATION_MS:-5000}"
    depth="${THROUGHPUT_DEPTH:-64}"
    json_out="${LOADGEN_JSON:-$workdir/loadgen.json}"
    tlog="${SERVE_LOG:-$workdir/gems-serve.log}"
    tmetrics="${METRICS_OUT:-$workdir/metrics.prom}"

    printf '1,10\n2,20\n3,30\n4,40\n' > "$workdir/T.csv"
    cat > "$workdir/tp_init.graql" <<'GRAQL'
create table T(id integer, v integer)
ingest table T T.csv
GRAQL
    cat > "$workdir/tp_query.graql" <<'GRAQL'
select v from table T where id = 1
GRAQL

    mkfifo "$workdir/tctl"
    sleep 300 > "$workdir/tctl" &
    tholder_pid=$!
    "$bindir/gems-serve" --addr 127.0.0.1:0 --data-dir "$workdir" \
        --init "$workdir/tp_init.graql" --metrics-addr 127.0.0.1:0 \
        < "$workdir/tctl" > "$tlog" 2>&1 &
    serve_pid=$!
    taddr=""
    for _ in $(seq 100); do
        taddr="$(sed -n 's/^gems-serve listening on //p' "$tlog")"
        [ -n "$taddr" ] && break
        sleep 0.1
    done
    if [ -z "$taddr" ]; then
        echo "net_smoke: gems-serve never became ready" >&2
        cat "$tlog" >&2
        exit 1
    fi
    tmaddr="$(sed -n 's|^gems-serve metrics on http://||p' "$tlog" | sed 's|/metrics$||')"

    "$bindir/gems-shell" "$workdir/tp_query.graql" --connect "$taddr" --user admin \
        --loadgen --duration-ms "$dur_ms" --depth "$depth" --loadgen-json "$json_out"

    # The loadgen replays one script: after the first compile, every
    # request must be a plan-cache hit, and the counters prove it.
    curl -fsS "http://$tmaddr/metrics" > "$tmetrics"
    hits="$(sed -n 's/^graql_plan_cache_hits_total //p' "$tmetrics")"
    if [ "${hits:-0}" -lt 100 ]; then
        echo "net_smoke: expected >=100 plan-cache hits under loadgen, got '${hits:-0}'" >&2
        grep '^graql_plan_cache' "$tmetrics" >&2 || cat "$tmetrics" >&2
        exit 1
    fi

    echo shutdown > "$workdir/tctl"
    kill "$tholder_pid" 2>/dev/null || true
    wait "$serve_pid"
    serve_pid=""

    qps="$(jq -r '.qps' "$json_out")"
    p99="$(jq -r '.latency_us.p99' "$json_out")"
    echo "net_smoke: throughput lane sustained ${qps} qps (p99 ${p99}us," \
        "depth $depth, ${hits} plan-cache hits, artifact: $json_out)"
    if [ "$(jq -n --argjson q "$qps" --argjson m "$min_qps" '$q < $m')" = true ]; then
        if [ "${THROUGHPUT_ALLOW_SLOW:-0}" = "1" ]; then
            echo "net_smoke: qps floor $min_qps missed — advisory only" \
                "(THROUGHPUT_ALLOW_SLOW=1)" >&2
            exit 0
        fi
        echo "net_smoke: FAIL — sustained qps $qps below floor $min_qps" >&2
        exit 1
    fi
    exit 0
fi

# Fixtures for scripts/berlin_demo.graql.
printf 'p1,Alpha,m1,10.0\np2,Beta,m1,20.0\np3,Gamma,m2,30.0\n' > "$workdir/Products.csv"
printf 'm1,US\nm2,IT\n' > "$workdir/Producers.csv"

# In-process reference run.
"$bindir/gems-shell" scripts/berlin_demo.graql --data-dir "$workdir" \
    > "$workdir/local.out"

# Networked run against a fresh server. Port 0: the server prints the
# address it actually bound.
mkfifo "$workdir/ctl"
sleep 60 > "$workdir/ctl" &
holder_pid=$!
"$bindir/gems-serve" --addr 127.0.0.1:0 --data-dir "$workdir" \
    --metrics-addr 127.0.0.1:0 --slow-query-ms 0 --slow-query-log "$slow_log" \
    < "$workdir/ctl" > "$log" 2>&1 &
serve_pid=$!

addr=""
for _ in $(seq 100); do
    addr="$(sed -n 's/^gems-serve listening on //p' "$log")"
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "net_smoke: gems-serve never became ready" >&2
    cat "$log" >&2
    exit 1
fi
maddr="$(sed -n 's|^gems-serve metrics on http://||p' "$log" | sed 's|/metrics$||')"
if [ -z "$maddr" ]; then
    echo "net_smoke: gems-serve never announced its metrics listener" >&2
    cat "$log" >&2
    exit 1
fi

"$bindir/gems-shell" scripts/berlin_demo.graql --connect "$addr" --user admin \
    > "$workdir/remote.out"

# Scrape the Prometheus exposition and sanity-check it: the queries the
# shell just ran must show up as ok outcomes, and the net counters ride
# along in the same exposition.
curl -fsS "http://$maddr/metrics" > "$metrics_out"
for series in 'graql_queries_total{outcome="ok"}' graql_net_requests_total; do
    if ! grep -qF "$series" "$metrics_out"; then
        echo "net_smoke: metrics scrape is missing $series" >&2
        cat "$metrics_out" >&2
        exit 1
    fi
done
ok_count="$(sed -n 's/^graql_queries_total{outcome="ok"} //p' "$metrics_out")"
if [ "${ok_count:-0}" -lt 1 ]; then
    echo "net_smoke: expected >=1 ok query in the scrape, got ${ok_count:-0}" >&2
    exit 1
fi
# Every family is declared once in the shipped binary's exposition.
dup_families="$(grep '^# TYPE' "$metrics_out" | cut -d' ' -f3 | sort | uniq -d)"
if [ -n "$dup_families" ]; then
    echo "net_smoke: families declared twice in the scrape: $dup_families" >&2
    cat "$metrics_out" >&2
    exit 1
fi
# With --slow-query-ms 0 every query is an offender: the structured log
# must have at least one JSON line with a profile attached.
if ! grep -q '"slow_query":{' "$slow_log"; then
    echo "net_smoke: slow-query log has no offender lines" >&2
    cat "$slow_log" >&2
    exit 1
fi

# ---- Large-scan round: a reply of several column batches ----
# 3000 Offers rows (six 512-row TableRows frames) with a null price in
# every seventh: the networked run must print the row count and the first
# and last rendered rows the in-process run prints, and nothing else
# differently either.
scan_rows=3000
for i in $(seq "$scan_rows"); do
    price="$((i % 97)).5"
    [ $((i % 7)) -eq 0 ] && price=""
    printf 'offer%d,product%d,%s,2008-%02d-%02d\n' \
        "$i" $((i % 211)) "$price" $((1 + i % 12)) $((1 + i % 28))
done > "$workdir/Offers.csv"
cat > "$workdir/scan.graql" <<'GRAQL'
create table Offers(id varchar(16), product varchar(16), price float, validFrom date)
ingest table Offers Offers.csv
select * from table Offers
GRAQL
"$bindir/gems-shell" "$workdir/scan.graql" --data-dir "$workdir" > "$workdir/scan_local.out"
"$bindir/gems-shell" "$workdir/scan.graql" --connect "$addr" --user admin \
    > "$workdir/scan_remote.out"
for side in local remote; do
    out="$workdir/scan_$side.out"
    {
        sed -n 's/^\[2\] table (\([0-9]*\) rows):$/\1/p' "$out"
        sed -n '6p;$p' "$out"   # first and last rendered row
    } > "$workdir/scan_$side.key"
done
if [ "$(head -n 1 "$workdir/scan_remote.key")" != "$scan_rows" ] ||
    ! diff -u "$workdir/scan_local.key" "$workdir/scan_remote.key" ||
    ! cmp -s "$workdir/scan_local.out" "$workdir/scan_remote.out"; then
    echo "net_smoke: large scan diverges between local and remote" >&2
    diff "$workdir/scan_local.out" "$workdir/scan_remote.out" | head -n 20 >&2
    exit 1
fi

echo shutdown > "$workdir/ctl"
kill "$holder_pid" 2>/dev/null || true
wait "$serve_pid"

if ! diff -u "$workdir/local.out" "$workdir/remote.out"; then
    echo "net_smoke: local and remote output diverge" >&2
    exit 1
fi
# ---- Durability round: kill -9 mid-ingest, restart, verify recovery ----
# A durable server is fed ingest batches, killed with SIGKILL (no drain,
# no checkpoint), restarted over the same directory, and must come back
# with a whole number of committed 3-row batches — nothing torn, nothing
# acknowledged lost.
ddir="$workdir/durable"
dlog="$workdir/gems-serve-durable.log"
mkfifo "$workdir/dctl"
sleep 60 > "$workdir/dctl" &
dholder_pid=$!
"$bindir/gems-serve" --addr 127.0.0.1:0 --durable "$ddir" --data-dir "$workdir" \
    < "$workdir/dctl" > "$dlog" 2>&1 &
durable_pid=$!
daddr=""
for _ in $(seq 100); do
    daddr="$(sed -n 's/^gems-serve listening on //p' "$dlog")"
    [ -n "$daddr" ] && break
    sleep 0.1
done
if [ -z "$daddr" ]; then
    echo "net_smoke: durable gems-serve never became ready" >&2
    cat "$dlog" >&2
    exit 1
fi

# Acknowledged setup: schema plus one batch must survive anything.
cat > "$workdir/d_setup.graql" <<'GRAQL'
create table Products(id varchar(16), label varchar(32), producer varchar(16), price float)
ingest table Products Products.csv
GRAQL
"$bindir/gems-shell" "$workdir/d_setup.graql" --connect "$daddr" --user admin > /dev/null

# Keep ingesting batches in the background, then SIGKILL the server
# mid-stream: recovery must come from the write-ahead log alone.
cat > "$workdir/d_batch.graql" <<'GRAQL'
ingest table Products Products.csv
GRAQL
(
    for _ in $(seq 50); do
        "$bindir/gems-shell" "$workdir/d_batch.graql" --connect "$daddr" --user admin \
            > /dev/null 2>&1 || exit 0
    done
) &
feeder_pid=$!
sleep 0.7
kill -9 "$durable_pid" 2>/dev/null || true
wait "$durable_pid" 2>/dev/null || true
wait "$feeder_pid" 2>/dev/null || true
kill "$dholder_pid" 2>/dev/null || true
durable_pid=""

# Restart over the same directory: committed records replay.
dlog2="$workdir/gems-serve-durable2.log"
mkfifo "$workdir/dctl2"
sleep 60 > "$workdir/dctl2" &
dholder2_pid=$!
"$bindir/gems-serve" --addr 127.0.0.1:0 --durable "$ddir" \
    < "$workdir/dctl2" > "$dlog2" 2>&1 &
durable2_pid=$!
daddr2=""
for _ in $(seq 100); do
    daddr2="$(sed -n 's/^gems-serve listening on //p' "$dlog2")"
    [ -n "$daddr2" ] && break
    sleep 0.1
done
if [ -z "$daddr2" ]; then
    echo "net_smoke: durable gems-serve did not recover" >&2
    cat "$dlog2" >&2
    exit 1
fi
if ! grep -q '^gems-serve: durable at ' "$dlog2"; then
    echo "net_smoke: restart did not report recovery" >&2
    cat "$dlog2" >&2
    exit 1
fi

cat > "$workdir/d_verify.graql" <<'GRAQL'
select producer from table Products
GRAQL
"$bindir/gems-shell" "$workdir/d_verify.graql" --connect "$daddr2" --user admin \
    > "$workdir/d_verify.out"
rows="$(sed -n 's/^\[0\] table (\([0-9]*\) rows):$/\1/p' "$workdir/d_verify.out")"
if [ -z "$rows" ] || [ "$rows" -lt 3 ] || [ $((rows % 3)) -ne 0 ]; then
    echo "net_smoke: durable recovery wrong: want a positive multiple of 3 rows," \
        "got '${rows:-none}'" >&2
    cat "$dlog2" >&2
    cat "$workdir/d_verify.out" >&2
    exit 1
fi

# Graceful shutdown folds the log into a snapshot (the final-checkpoint
# path); the metadata file must exist afterwards.
echo shutdown > "$workdir/dctl2"
kill "$dholder2_pid" 2>/dev/null || true
wait "$durable2_pid"
durable2_pid=""
if [ ! -f "$ddir/wal.meta" ]; then
    echo "net_smoke: no wal.meta after the shutdown checkpoint" >&2
    ls -la "$ddir" >&2 || true
    exit 1
fi

# ---- Replication round: kill -9 the primary mid-stream, promote ----
# A durable primary streams its WAL to a hot standby. Batches are
# acknowledged, the standby catches up, then the primary is SIGKILLed
# while a feeder is still writing. The standby is promoted and must hold
# every batch it had replicated before the kill (whole 3-row batches,
# nothing torn) and accept writes afterwards.
pdir="$workdir/prim" rdir="$workdir/repl"
plog="${PRIMARY_LOG:-$workdir/gems-serve-primary.log}"
rlog="${REPLICA_LOG:-$workdir/gems-serve-replica.log}"
mkfifo "$workdir/pctl" "$workdir/rctl"
sleep 120 > "$workdir/pctl" &
pholder_pid=$!
sleep 120 > "$workdir/rctl" &
rholder_pid=$!
"$bindir/gems-serve" --addr 127.0.0.1:0 --durable "$pdir" --data-dir "$workdir" \
    < "$workdir/pctl" > "$plog" 2>&1 &
prim_pid=$!
paddr=""
for _ in $(seq 100); do
    paddr="$(sed -n 's/^gems-serve listening on //p' "$plog")"
    [ -n "$paddr" ] && break
    sleep 0.1
done
if [ -z "$paddr" ]; then
    echo "net_smoke: replication primary never became ready" >&2
    cat "$plog" >&2
    exit 1
fi
# The replica gets the same --data-dir: replicated ingests carry their
# CSV text in the WAL record, but once *promoted* it executes fresh
# ingest statements that resolve paths locally.
"$bindir/gems-serve" --addr 127.0.0.1:0 --durable "$rdir" --replica-of "$paddr" \
    --data-dir "$workdir" < "$workdir/rctl" > "$rlog" 2>&1 &
repl_pid=$!
raddr=""
for _ in $(seq 100); do
    raddr="$(sed -n 's/^gems-serve listening on //p' "$rlog")"
    [ -n "$raddr" ] && break
    sleep 0.1
done
if [ -z "$raddr" ]; then
    echo "net_smoke: replica never became ready" >&2
    cat "$rlog" >&2
    exit 1
fi
if ! grep -q "^gems-serve: replica of $paddr" "$rlog"; then
    echo "net_smoke: replica did not announce its role" >&2
    cat "$rlog" >&2
    exit 1
fi

# Acknowledged setup on the primary: schema plus one 3-row batch.
"$bindir/gems-shell" "$workdir/d_setup.graql" --connect "$paddr" --user admin > /dev/null

repl_rows() {
    "$bindir/gems-shell" "$workdir/d_verify.graql" --connect "$1" --user admin \
        2>/dev/null | sed -n 's/^\[0\] table (\([0-9]*\) rows):$/\1/p'
}

# The standby must catch up to the acknowledged batch through the stream.
caught=""
for _ in $(seq 100); do
    caught="$(repl_rows "$raddr" || true)"
    [ "${caught:-0}" -ge 3 ] 2>/dev/null && break
    sleep 0.1
done
if [ "${caught:-0}" -lt 3 ]; then
    echo "net_smoke: replica never caught up (rows: '${caught:-none}')" >&2
    cat "$rlog" >&2
    exit 1
fi

# Feed more acknowledged batches, sample the replicated watermark, then
# SIGKILL the primary mid-stream.
(
    for _ in $(seq 50); do
        "$bindir/gems-shell" "$workdir/d_batch.graql" --connect "$paddr" --user admin \
            > /dev/null 2>&1 || exit 0
    done
) &
rfeeder_pid=$!
sleep 0.7
replicated_before="$(repl_rows "$raddr")"
kill -9 "$prim_pid" 2>/dev/null || true
wait "$prim_pid" 2>/dev/null || true
wait "$rfeeder_pid" 2>/dev/null || true
kill "$pholder_pid" 2>/dev/null || true
prim_pid=""

# Promote the standby over the wire; it becomes writable.
"$bindir/gems-shell" --promote --connect "$raddr" --user admin
if ! grep -q '^gems-serve: promoted to primary' "$rlog"; then
    echo "net_smoke: replica log does not record the promotion" >&2
    cat "$rlog" >&2
    exit 1
fi

# Everything replicated before the kill survives promotion: whole 3-row
# batches only, at least as many as the pre-kill sample.
promoted_rows="$(repl_rows "$raddr")"
if [ -z "$promoted_rows" ] || [ $((promoted_rows % 3)) -ne 0 ] \
    || [ "$promoted_rows" -lt "${replicated_before:-3}" ]; then
    echo "net_smoke: promoted replica lost batches: had ${replicated_before:-?}," \
        "now '${promoted_rows:-none}' (want a multiple of 3, no smaller)" >&2
    cat "$rlog" >&2
    exit 1
fi

# The promoted node accepts writes.
"$bindir/gems-shell" "$workdir/d_batch.graql" --connect "$raddr" --user admin > /dev/null
post_write_rows="$(repl_rows "$raddr")"
if [ "$post_write_rows" -ne $((promoted_rows + 3)) ]; then
    echo "net_smoke: post-promotion write went wrong: $promoted_rows -> $post_write_rows" >&2
    exit 1
fi

echo shutdown > "$workdir/rctl"
kill "$rholder_pid" 2>/dev/null || true
wait "$repl_pid"
repl_pid=""

echo "net_smoke: OK ($(wc -l < "$workdir/local.out") identical output lines," \
    "$ok_count ok queries scraped, $(wc -l < "$slow_log") slow-log lines," \
    "durable recovery held $rows rows across kill -9," \
    "promoted replica held $promoted_rows rows and kept writing)"
