#!/usr/bin/env bash
# Smoke test for joind: build it, start it with a durable data directory,
# register the triangle example database, run queries, ingest a batch, and
# assert the observability surface recorded all of it — then exercise both
# shutdown paths: a graceful SIGTERM restart (clean checkpoint, zero WAL
# replay) and a kill -9 restart (WAL replay recovers the last ingest). CI
# runs this after the unit tests; it is also handy locally:
#
#   ./scripts/smoke_joind.sh
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="127.0.0.1:18080"
BASE="http://$ADDR"
DATA_DIR=$(mktemp -d /tmp/joind_smoke.XXXXXX)
JOIND_PID=""
trap 'kill -9 "$JOIND_PID" 2>/dev/null || true; rm -rf "$DATA_DIR"' EXIT

go build -o /tmp/joind ./cmd/joind

start_joind() {
    /tmp/joind -addr "$ADDR" -workers 2 -global-max-tuples 100000 \
        -slow-threshold 1ns -data-dir "$DATA_DIR" -fsync always "$@" &
    JOIND_PID=$!
}

# Poll readiness with bounded retry and exponential backoff: /readyz (and
# the readiness-gated /healthz) answer 503 "recovering" until the store has
# replayed its snapshot + WAL tail.
wait_ready() {
    local delay=0.05 attempt
    for attempt in $(seq 1 40); do
        if curl -fsS "$BASE/readyz" >/dev/null 2>&1; then
            return 0
        fi
        sleep "$delay"
        delay=$(awk -v d="$delay" 'BEGIN { d = d * 1.5; if (d > 1) d = 1; print d }')
    done
    echo "joind did not become ready after $attempt attempts" >&2
    return 1
}

start_joind
wait_ready
# Liveness must answer too (it was already up during recovery).
curl -fsS "$BASE/livez" >/dev/null
curl -fsS "$BASE/healthz" >/dev/null

# Register the triangle example database (persisted to the data dir).
code=$(curl -sS -o /tmp/joind_register.json -w '%{http_code}' \
    -X POST "$BASE/v1/databases" \
    -H 'Content-Type: application/json' \
    --data @examples/joind/triangle.json)
if [ "$code" != "201" ]; then
    echo "register: expected 201, got $code:" >&2
    cat /tmp/joind_register.json >&2
    exit 1
fi

# Register a continuous query (materialized view) over it: built immediately,
# maintained incrementally on every ingest below, durable across restarts.
code=$(curl -sS -o /tmp/joind_view.json -w '%{http_code}' \
    -X POST "$BASE/v1/views" \
    -H 'Content-Type: application/json' \
    -d '{"id":"tri-view","database":"triangle"}')
if [ "$code" != "201" ]; then
    echo "view register: expected 201, got $code:" >&2
    cat /tmp/joind_view.json >&2
    exit 1
fi
grep -q '"result_count":3' /tmp/joind_view.json || {
    echo "view register: expected the initial build to hold 3 tuples:" >&2
    cat /tmp/joind_view.json >&2
    exit 1
}

# Query it twice: both must be 200 with a nonempty result, and the second
# must be a plan-cache hit.
query() {
    curl -sS -o "$1" -w '%{http_code}' \
        -X POST "$BASE/v1/query" \
        -H 'Content-Type: application/json' \
        -d '{"database":"triangle","include_result":true}'
}
for out in /tmp/joind_query1.json /tmp/joind_query2.json; do
    code=$(query "$out")
    if [ "$code" != "200" ]; then
        echo "query: expected 200, got $code:" >&2
        cat "$out" >&2
        exit 1
    fi
    grep -q '"result_count":3' "$out" || {
        echo "query: expected a nonempty result (result_count 3):" >&2
        cat "$out" >&2
        exit 1
    }
done
grep -q '"cache_hit":true' /tmp/joind_query2.json || {
    echo "second query was not a plan-cache hit:" >&2
    cat /tmp/joind_query2.json >&2
    exit 1
}

# The cpf-expression strategy end-to-end: same result from the cheapest CPF
# tree run as a program on the block kernels, cached under its own
# fingerprint#strategy key (a fresh miss).
code=$(curl -sS -o /tmp/joind_query_expr.json -w '%{http_code}' \
    -X POST "$BASE/v1/query" \
    -H 'Content-Type: application/json' \
    -d '{"database":"triangle","strategy":"cpf-expression","include_result":true}')
if [ "$code" != "200" ]; then
    echo "cpf-expression query: expected 200, got $code:" >&2
    cat /tmp/joind_query_expr.json >&2
    exit 1
fi
grep -q '"result_count":3' /tmp/joind_query_expr.json || {
    echo "cpf-expression query: expected result_count 3:" >&2
    cat /tmp/joind_query_expr.json >&2
    exit 1
}
grep -q '"strategy":"cpf-expression"' /tmp/joind_query_expr.json || {
    echo "cpf-expression query: response does not report the cpf-expression strategy:" >&2
    cat /tmp/joind_query_expr.json >&2
    exit 1
}

# The retired "columnar" name (a kernel choice, not a plan) is a 400 whose
# error lists the valid strategies.
code=$(curl -sS -o /tmp/joind_query_columnar.json -w '%{http_code}' \
    -X POST "$BASE/v1/query" \
    -H 'Content-Type: application/json' \
    -d '{"database":"triangle","strategy":"columnar"}')
if [ "$code" != "400" ] || ! grep -q 'valid strategies: auto, program, cpf-expression' /tmp/joind_query_columnar.json; then
    echo "columnar query: expected 400 listing the valid strategies (got $code):" >&2
    cat /tmp/joind_query_columnar.json >&2
    exit 1
fi

# Stats must show the hit too, and surface the durable/view counters at the
# top level.
curl -fsS "$BASE/v1/stats" >/tmp/joind_stats.json
grep -q '"hits":1' /tmp/joind_stats.json || {
    echo "stats did not record the plan-cache hit" >&2
    exit 1
}
for field in '"wal_records":' '"snapshots":' '"invalidations":' '"views":1'; do
    grep -q "$field" /tmp/joind_stats.json || {
        echo "stats: missing expected field $field:" >&2
        cat /tmp/joind_stats.json >&2
        exit 1
    }
done

# With the slow log enabled, query responses carry trace IDs.
grep -q '"trace_id":"' /tmp/joind_query1.json || {
    echo "query response has no trace_id despite -slow-threshold:" >&2
    cat /tmp/joind_query1.json >&2
    exit 1
}

# Durable ingest: add a disjoint triangle (10,11,12) as one atomic batch.
# The join gains exactly one row, and the cached plan is invalidated.
code=$(curl -sS -o /tmp/joind_ingest.json -w '%{http_code}' \
    -X POST "$BASE/v1/ingest" \
    -H 'Content-Type: application/json' \
    -d '{"database":"triangle","mutations":[
          {"relation":0,"inserts":[[10,11]]},
          {"relation":1,"inserts":[[11,12]]},
          {"relation":2,"inserts":[[12,10]]}]}')
if [ "$code" != "200" ]; then
    echo "ingest: expected 200, got $code:" >&2
    cat /tmp/joind_ingest.json >&2
    exit 1
fi
grep -q '"inserted":3' /tmp/joind_ingest.json || {
    echo "ingest: expected 3 effective inserts:" >&2
    cat /tmp/joind_ingest.json >&2
    exit 1
}
grep -q '"views_maintained":1' /tmp/joind_ingest.json || {
    echo "ingest: expected the batch to maintain 1 view:" >&2
    cat /tmp/joind_ingest.json >&2
    exit 1
}
# The view was delta-maintained before the batch was acknowledged: it already
# serves the new triangle, with exactly one delta batch applied.
curl -fsS "$BASE/v1/views/tri-view" >/tmp/joind_view2.json
grep -q '"result_count":4' /tmp/joind_view2.json || {
    echo "view after ingest: expected result_count 4:" >&2
    cat /tmp/joind_view2.json >&2
    exit 1
}
grep -q '"delta_batches":1' /tmp/joind_view2.json || {
    echo "view after ingest: expected delta_batches 1 (no rebuild):" >&2
    cat /tmp/joind_view2.json >&2
    exit 1
}
code=$(query /tmp/joind_query3.json)
if [ "$code" != "200" ] || ! grep -q '"result_count":4' /tmp/joind_query3.json; then
    echo "query after ingest: expected 200 with result_count 4 (got $code):" >&2
    cat /tmp/joind_query3.json >&2
    exit 1
fi

# /metrics must serve valid Prometheus text with the core series moved by
# the queries and the ingest above.
curl -fsS "$BASE/metrics" >/tmp/joind_metrics.txt
for series in \
    'joind_query_duration_seconds_count 4' \
    'joind_queue_wait_seconds_count 4' \
    'joind_plan_cache_misses_total 3' \
    'joind_registered_databases 1' \
    'joind_slow_queries_total 4' \
    'joind_queries_total{strategy="cpf-expression",status="ok"} 1' \
    'joind_tuples_produced_total' \
    'joind_worker_utilization' \
    'joind_tuple_budget_remaining' \
    'joind_store_attached 1' \
    'joind_ingests_total{status="ok"} 1' \
    'joind_ingest_duration_seconds_count 1' \
    'joind_wal_appends_total 1' \
    'joind_wal_bytes_total' \
    'joind_snapshot_writes_total' \
    'joind_plan_cache_invalidations_total 2' \
    'joind_views_registered 1' \
    'joind_views_stale 0' \
    'joind_view_delta_batches_total 1' \
    'joind_view_delta_tuples_in_total 3' \
    'joind_view_full_rebuilds_total 1' \
    'joind_view_maintenance_seconds_count 1' \
    'joind_recovery_replayed_records 0'; do
    grep -qF "$series" /tmp/joind_metrics.txt || {
        echo "metrics: missing expected series/sample: $series" >&2
        cat /tmp/joind_metrics.txt >&2
        exit 1
    }
done
# Every non-comment line must be exactly "name{labels} value".
if awk '!/^#/ && NF != 2 { bad = 1 } END { exit bad }' /tmp/joind_metrics.txt; then
    :
else
    echo "metrics: malformed exposition line" >&2
    cat /tmp/joind_metrics.txt >&2
    exit 1
fi

# /v1/slow must have captured the queries (1ns threshold = everything),
# with embedded span trees.
curl -fsS "$BASE/v1/slow" >/tmp/joind_slow.json
grep -q '"enabled":true' /tmp/joind_slow.json || {
    echo "/v1/slow reports the log disabled" >&2
    cat /tmp/joind_slow.json >&2
    exit 1
}
grep -q '"recorded":4' /tmp/joind_slow.json || {
    echo "/v1/slow did not capture all four queries:" >&2
    cat /tmp/joind_slow.json >&2
    exit 1
}
grep -q '"kind":"query"' /tmp/joind_slow.json || {
    echo "/v1/slow entries have no span trees:" >&2
    cat /tmp/joind_slow.json >&2
    exit 1
}

# Graceful restart: SIGTERM flushes the WAL and writes a clean checkpoint,
# so the next start recovers the full catalog with zero WAL replay.
kill -TERM "$JOIND_PID"
wait "$JOIND_PID" || {
    echo "joind did not exit cleanly on SIGTERM" >&2
    exit 1
}
start_joind
wait_ready
code=$(query /tmp/joind_query4.json)
if [ "$code" != "200" ] || ! grep -q '"result_count":4' /tmp/joind_query4.json; then
    echo "query after graceful restart: expected 200 with result_count 4 (got $code):" >&2
    cat /tmp/joind_query4.json >&2
    exit 1
fi
# Fetch to a file first: under pipefail, grep -q exiting on the first match
# can fail curl's remaining writes ("Failed writing body").
curl -fsS "$BASE/metrics" >/tmp/joind_metrics_restart.txt
grep -qF 'joind_recovery_replayed_records 0' /tmp/joind_metrics_restart.txt || {
    echo "graceful restart: expected zero WAL replay (clean final checkpoint)" >&2
    exit 1
}
# The view definition is durable: recovered, rebuilt, and current.
curl -fsS "$BASE/v1/views/tri-view" >/tmp/joind_view3.json
grep -q '"result_count":4' /tmp/joind_view3.json || {
    echo "view after graceful restart: expected recovered view with result_count 4:" >&2
    cat /tmp/joind_view3.json >&2
    exit 1
}

# Crash restart: ingest another triangle (20,21,22), kill -9 before any
# checkpoint can run, and assert the restart replays the WAL record.
code=$(curl -sS -o /tmp/joind_ingest2.json -w '%{http_code}' \
    -X POST "$BASE/v1/ingest" \
    -H 'Content-Type: application/json' \
    -d '{"database":"triangle","mutations":[
          {"relation":0,"inserts":[[20,21]]},
          {"relation":1,"inserts":[[21,22]]},
          {"relation":2,"inserts":[[22,20]]}]}')
if [ "$code" != "200" ]; then
    echo "second ingest: expected 200, got $code:" >&2
    cat /tmp/joind_ingest2.json >&2
    exit 1
fi
kill -9 "$JOIND_PID"
wait "$JOIND_PID" 2>/dev/null || true
start_joind
wait_ready
code=$(query /tmp/joind_query5.json)
if [ "$code" != "200" ] || ! grep -q '"result_count":5' /tmp/joind_query5.json; then
    echo "query after crash restart: expected 200 with result_count 5 (got $code):" >&2
    cat /tmp/joind_query5.json >&2
    exit 1
fi
curl -fsS "$BASE/metrics" >/tmp/joind_metrics2.txt
grep -qF 'joind_recovery_replayed_records 1' /tmp/joind_metrics2.txt || {
    echo "crash restart: expected exactly one replayed WAL record:" >&2
    grep 'joind_recovery' /tmp/joind_metrics2.txt >&2 || true
    exit 1
}
# The recovered view reflects the replayed ingest.
curl -fsS "$BASE/v1/views/tri-view" >/tmp/joind_view4.json
grep -q '"result_count":5' /tmp/joind_view4.json || {
    echo "view after crash restart: expected recovered view with result_count 5:" >&2
    cat /tmp/joind_view4.json >&2
    exit 1
}

# Sharded execution round trip: restart the same data dir with a 4-shard
# in-process group. A negative broadcast threshold forces the triangle's
# R and T to partition (the smoke catalog is tiny, so the default
# size-based broadcast would swallow everything). Partitioning must be
# invisible to results, durable ingest, and views — and the
# joind_shard_* metrics must move.
kill -TERM "$JOIND_PID"
wait "$JOIND_PID" || {
    echo "joind did not exit cleanly on SIGTERM before sharded restart" >&2
    exit 1
}
start_joind -shards 4 -shard-broadcast-threshold -1
wait_ready
# Pin the cpf-expression strategy: the auto-resolved program route is
# unclean on the triangle (BC never carries the partition attribute A), so
# it would fall back to single-shard execution; the join tree scatters.
squery() {
    curl -sS -o "$1" -w '%{http_code}' \
        -X POST "$BASE/v1/query" \
        -H 'Content-Type: application/json' \
        -d '{"database":"triangle","strategy":"cpf-expression","include_result":true}'
}
code=$(squery /tmp/joind_query6.json)
if [ "$code" != "200" ] || ! grep -q '"result_count":5' /tmp/joind_query6.json; then
    echo "sharded query: expected 200 with result_count 5 (got $code):" >&2
    cat /tmp/joind_query6.json >&2
    exit 1
fi
grep -q '"shards":4' /tmp/joind_query6.json || {
    echo "sharded query: response does not report scattering across 4 shards:" >&2
    cat /tmp/joind_query6.json >&2
    exit 1
}
# Durable ingest routes the batch to owning shards after the WAL append.
code=$(curl -sS -o /tmp/joind_ingest3.json -w '%{http_code}' \
    -X POST "$BASE/v1/ingest" \
    -H 'Content-Type: application/json' \
    -d '{"database":"triangle","mutations":[
          {"relation":0,"inserts":[[30,31]]},
          {"relation":1,"inserts":[[31,32]]},
          {"relation":2,"inserts":[[32,30]]}]}')
if [ "$code" != "200" ] || ! grep -q '"inserted":3' /tmp/joind_ingest3.json; then
    echo "sharded ingest: expected 200 with 3 effective inserts (got $code):" >&2
    cat /tmp/joind_ingest3.json >&2
    exit 1
fi
code=$(squery /tmp/joind_query7.json)
if [ "$code" != "200" ] || ! grep -q '"result_count":6' /tmp/joind_query7.json; then
    echo "sharded query after ingest: expected 200 with result_count 6 (got $code):" >&2
    cat /tmp/joind_query7.json >&2
    exit 1
fi
# The recovered continuous query was delta-maintained through the sharded
# ingest path too.
curl -fsS "$BASE/v1/views/tri-view" >/tmp/joind_view5.json
grep -q '"result_count":6' /tmp/joind_view5.json || {
    echo "view after sharded ingest: expected result_count 6:" >&2
    cat /tmp/joind_view5.json >&2
    exit 1
}
# The shard metrics must reflect the scatter and the routed ingest.
curl -fsS "$BASE/metrics" >/tmp/joind_metrics3.txt
grep -qF 'joind_shard_count 4' /tmp/joind_metrics3.txt || {
    echo "metrics: expected joind_shard_count 4:" >&2
    grep 'joind_shard' /tmp/joind_metrics3.txt >&2 || true
    exit 1
}
for series in joind_shard_executions_total joind_shard_tuples_total \
    joind_shard_ingest_routed_tuples_total; do
    awk -v s="$series" '$1 == s && $2 > 0 { found = 1 } END { exit !found }' \
        /tmp/joind_metrics3.txt || {
        echo "metrics: expected $series > 0:" >&2
        grep 'joind_shard' /tmp/joind_metrics3.txt >&2 || true
        exit 1
    }
done
# Restart again, still sharded: the group rebuilds from the recovered
# catalog and serves the post-ingest state.
kill -TERM "$JOIND_PID"
wait "$JOIND_PID" || {
    echo "sharded joind did not exit cleanly on SIGTERM" >&2
    exit 1
}
start_joind -shards 4 -shard-broadcast-threshold -1
wait_ready
code=$(squery /tmp/joind_query8.json)
if [ "$code" != "200" ] || ! grep -q '"result_count":6' /tmp/joind_query8.json; then
    echo "sharded query after restart: expected 200 with result_count 6 (got $code):" >&2
    cat /tmp/joind_query8.json >&2
    exit 1
fi
grep -q '"shards":4' /tmp/joind_query8.json || {
    echo "sharded query after restart: response does not report 4 shards:" >&2
    cat /tmp/joind_query8.json >&2
    exit 1
}

echo "joind smoke: OK (ready gate, durable register + ingest, continuous query maintenance + recovery, cache hit, cpf-expression strategy, columnar 400, metrics + slow log, SIGTERM clean restart, kill -9 WAL replay, 4-shard scatter round trip)"
