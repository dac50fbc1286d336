#!/usr/bin/env bash
# End-to-end smoke test for dramdigd's observability surface: boot the
# daemon, run one real campaign through it with a W3C traceparent,
# scrape /v1/metrics and check that every layer's metric families are
# present and that the hot-path counters actually moved, then fetch the
# campaign's span tree and check it is rooted at the inbound trace ID
# with spans from every layer. CI runs this after the unit suites; run
# it locally with `./scripts/metrics-smoke.sh`.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR=${ADDR:-127.0.0.1:18080}
# A leftover listener on the port would answer the probes below and make
# every later assertion test the wrong process.
if curl -fsS --max-time 2 "http://$ADDR/v1/healthz" >/dev/null 2>&1; then
  echo "metrics-smoke: something is already listening on $ADDR (set ADDR to override)" >&2
  exit 1
fi
WORKDIR=$(mktemp -d)
# Wait for the killed daemon before removing its directories: it
# compacts its queue on the way out.
cleanup() {
  kill "${DAEMON_PID:-}" 2>/dev/null || true
  wait "${DAEMON_PID:-}" 2>/dev/null || true
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

go build -o "$WORKDIR/dramdigd" ./cmd/dramdigd

"$WORKDIR/dramdigd" -addr "$ADDR" -cache-dir "$WORKDIR/cache" -queue-dir "$WORKDIR/queue" \
  -log-format json >"$WORKDIR/daemon.log" 2>&1 &
DAEMON_PID=$!

for i in $(seq 1 50); do
  if curl -fsS "http://$ADDR/v1/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
    echo "metrics-smoke: daemon died during boot" >&2
    cat "$WORKDIR/daemon.log" >&2
    exit 1
  fi
  sleep 0.2
done

# The healthz body carries the load-balancer probe fields.
health=$(curl -fsS "http://$ADDR/v1/healthz")
echo "$health" | jq -e '.status == "ok" and (.queue_depth | type == "number") and (.cache_entries | type == "number")' >/dev/null \
  || { echo "metrics-smoke: bad healthz body: $health" >&2; exit 1; }

# One real campaign over the cheapest paper setting, driven to "done".
# The submission carries a W3C traceparent so the whole pipeline joins
# our trace; the response must echo a traceparent on the same trace.
TRACE_ID="4bf92f3577b34da6a3ce929d0e0e4736"
TRACEPARENT="00-$TRACE_ID-00f067aa0ba902b7-01"
post=$(curl -fsS -D "$WORKDIR/post.headers" "http://$ADDR/v1/campaigns" \
  -H "traceparent: $TRACEPARENT" -d '{"machines":[1],"seed":42}')
id=$(echo "$post" | jq -r .id)
grep -qi "^traceparent: 00-$TRACE_ID-" "$WORKDIR/post.headers" \
  || { echo "metrics-smoke: response did not echo a traceparent on trace $TRACE_ID" >&2; \
       cat "$WORKDIR/post.headers" >&2; exit 1; }
for i in $(seq 1 150); do
  status=$(curl -fsS "http://$ADDR/v1/campaigns/$id" | jq -r .status)
  [ "$status" = done ] && break
  if [ "$status" = failed ]; then
    echo "metrics-smoke: campaign failed" >&2
    curl -fsS "http://$ADDR/v1/campaigns/$id" >&2
    exit 1
  fi
  sleep 1
done
if [ "${status:-}" != done ]; then
  echo "metrics-smoke: campaign not done after 150s (status: ${status:-unknown})" >&2
  exit 1
fi

scrape=$(curl -fsS "http://$ADDR/v1/metrics")

# Every layer's families must render.
for family in \
  dramdig_queue_depth \
  dramdig_wal_fsync_seconds \
  dramdig_store_hits_total \
  dramdig_engine_samples_total \
  dramdig_engine_sample_latency_ns \
  dramdig_campaign_jobs_started_total \
  dramdig_http_requests_total \
  dramdig_http_request_seconds \
  dramdig_sse_subscribers \
  dramdig_build_info \
  dramdig_trace_spans_finished_total; do
  grep -q "^# TYPE $family " <<<"$scrape" \
    || { echo "metrics-smoke: family $family missing from scrape" >&2; exit 1; }
done

# The campaign must have moved the hot-path counters.
for moved in \
  "dramdig_queue_submitted_total 1" \
  "dramdig_campaign_jobs_started_total 1" \
  "dramdig_campaign_jobs_succeeded_total 1"; do
  grep -q "^$moved\$" <<<"$scrape" \
    || { echo "metrics-smoke: expected \"$moved\" in scrape" >&2; exit 1; }
done
grep -q '^dramdig_engine_samples_total [1-9]' <<<"$scrape" \
  || { echo "metrics-smoke: engine recorded no samples" >&2; exit 1; }

# The campaign's span tree must be rooted at the inbound trace ID and
# contain spans from every layer the request crossed.
spans=$(curl -fsS "http://$ADDR/v1/campaigns/$id/spans")
echo "$spans" | jq -e --arg tid "$TRACE_ID" '.trace_id == $tid' >/dev/null \
  || { echo "metrics-smoke: span tree not on inbound trace (got $(echo "$spans" | jq -r .trace_id))" >&2; exit 1; }
echo "$spans" | jq -e '.spans | length > 0' >/dev/null \
  || { echo "metrics-smoke: span tree is empty" >&2; exit 1; }
names=$(echo "$spans" | jq -r '[.. | objects | .name? // empty] | join(" ")')
for want in queue.submit queue.wait scheduler.dispatch campaign.run campaign.job \
  engine.calibrate engine.coarse engine.partition engine.resolve engine.fine store.read; do
  case " $names " in
    *" $want "*) ;;
    *) echo "metrics-smoke: span tree missing $want (have: $names)" >&2; exit 1 ;;
  esac
done
# Every span in the tree carries the inbound trace ID.
echo "$spans" | jq -e --arg tid "$TRACE_ID" '[.. | objects | .trace_id? // empty] | all(. == $tid)' >/dev/null \
  || { echo "metrics-smoke: span tree mixes trace IDs" >&2; exit 1; }

# Every request logged one structured line with a request ID.
grep -q '"msg":"request"' "$WORKDIR/daemon.log" \
  || { echo "metrics-smoke: no structured request log lines" >&2; exit 1; }
grep -q '"request_id"' "$WORKDIR/daemon.log" \
  || { echo "metrics-smoke: request log lines carry no request_id" >&2; exit 1; }
# The campaign's transition log lines carry the inbound trace ID.
grep -q "\"trace_id\":\"$TRACE_ID\"" "$WORKDIR/daemon.log" \
  || { echo "metrics-smoke: no log line carries the inbound trace_id" >&2; exit 1; }

nspans=$(echo "$spans" | jq '[.. | objects | .name? // empty] | length')
echo "metrics-smoke: ok (campaign $id, $(grep -c '^dramdig_' <<<"$scrape") dramdig series, $nspans spans on trace $TRACE_ID)"
