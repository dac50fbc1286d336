#!/usr/bin/env bash
# End-to-end smoke test for the cluster subsystem: boot a coordinator
# with no in-process workers (-max-running 0) plus two dramdig-worker
# processes, run one real campaign through the lease protocol with a
# W3C traceparent, and check that the campaign completes exactly once,
# that the span tree served by the coordinator contains both
# coordinator and worker spans under the inbound trace ID, that both
# workers registered (and the one that ran the job completed it), and
# that the dramdig_cluster_* metric families rendered and moved. CI
# runs this after the unit suites; run it locally with
# `./scripts/cluster-smoke.sh`.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR=${ADDR:-127.0.0.1:18081}
if curl -fsS --max-time 2 "http://$ADDR/v1/healthz" >/dev/null 2>&1; then
  echo "cluster-smoke: something is already listening on $ADDR (set ADDR to override)" >&2
  exit 1
fi
WORKDIR=$(mktemp -d)
# Wait for the killed processes to actually exit before removing the
# workdir: the daemon compacts its queue on shutdown, and an rm -rf
# racing that write loses. Waiting also keeps back-to-back runs from
# colliding on the listen address.
cleanup() {
  kill "${W1_PID:-}" "${W2_PID:-}" "${DAEMON_PID:-}" 2>/dev/null || true
  wait "${W1_PID:-}" "${W2_PID:-}" "${DAEMON_PID:-}" 2>/dev/null || true
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

go build -o "$WORKDIR/dramdigd" ./cmd/dramdigd
go build -o "$WORKDIR/dramdig-worker" ./cmd/dramdig-worker

# The heartbeat check below needs the campaign to outlive several
# heartbeat intervals (lease TTL / 3 = 50 ms) whatever the engine's
# speed. The campaign is therefore the largest a request may ask for:
# 256 serialized jobs (cluster.MaxCampaignJobs), the nine settings plus
# 247 generated machines. The generated ones share two dozen
# definitions, so 223 jobs are store hits, and a store hit costs the
# lease protocol's per-job round trips, not a measurement. On a 2-vCPU
# VM the campaign runs 240–560 ms (5–11 intervals), and the same
# campaign with every job a store hit still runs 170–220 ms (3.4–4.5
# intervals): the floor an infinitely fast engine would leave. A live
# lease lapses only after a 100 ms stall between heartbeats.
"$WORKDIR/dramdigd" -addr "$ADDR" -max-running 0 -lease-ttl 150ms \
  -cache-dir "$WORKDIR/cache" -queue-dir "$WORKDIR/queue" \
  -log-format json >"$WORKDIR/daemon.log" 2>&1 &
DAEMON_PID=$!

for i in $(seq 1 50); do
  if curl -fsS "http://$ADDR/v1/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
    echo "cluster-smoke: coordinator died during boot" >&2
    cat "$WORKDIR/daemon.log" >&2
    exit 1
  fi
  sleep 0.2
done

"$WORKDIR/dramdig-worker" -coordinator "http://$ADDR" -name smoke-w1 \
  -workers 1 -poll 100ms -log-format json >"$WORKDIR/w1.log" 2>&1 &
W1_PID=$!
"$WORKDIR/dramdig-worker" -coordinator "http://$ADDR" -name smoke-w2 \
  -workers 1 -poll 100ms -log-format json >"$WORKDIR/w2.log" 2>&1 &
W2_PID=$!

# One real campaign, submitted with a W3C traceparent so the whole
# cross-process pipeline joins our trace, driven to "done" by whichever
# worker leases it.
TRACE_ID="4bf92f3577b34da6a3ce929d0e0e4736"
TRACEPARENT="00-$TRACE_ID-00f067aa0ba902b7-01"
post=$(curl -fsS "http://$ADDR/v1/campaigns" \
  -H "traceparent: $TRACEPARENT" -d '{"machines":[-1],"generated":247,"seed":42,"workers":1}')
id=$(echo "$post" | jq -r .id)
for i in $(seq 1 150); do
  status=$(curl -fsS "http://$ADDR/v1/campaigns/$id" | jq -r .status)
  [ "$status" = done ] && break
  if [ "$status" = failed ]; then
    echo "cluster-smoke: campaign failed" >&2
    curl -fsS "http://$ADDR/v1/campaigns/$id" >&2
    cat "$WORKDIR/w1.log" "$WORKDIR/w2.log" >&2
    exit 1
  fi
  sleep 1
done
if [ "${status:-}" != done ]; then
  echo "cluster-smoke: campaign not done after 150s (status: ${status:-unknown})" >&2
  cat "$WORKDIR/daemon.log" "$WORKDIR/w1.log" "$WORKDIR/w2.log" >&2
  exit 1
fi

# Both workers registered; between them the campaign completed exactly
# once, and the remote run left its results in the coordinator's store.
workers=$(curl -fsS "http://$ADDR/v1/workers")
echo "$workers" | jq -e '.dispatch == "remote" and (.workers | length == 2)' >/dev/null \
  || { echo "cluster-smoke: bad worker registry: $workers" >&2; exit 1; }
echo "$workers" | jq -e '[.workers[].completed] | add == 1' >/dev/null \
  || { echo "cluster-smoke: campaign not completed exactly once: $workers" >&2; exit 1; }
fp=$(curl -fsS "http://$ADDR/v1/campaigns/$id" | jq -r '.report.jobs[0].machine_fingerprint')
curl -fsS "http://$ADDR/v1/mappings/$fp" >/dev/null \
  || { echo "cluster-smoke: worker-computed result $fp not served from the store" >&2; exit 1; }

# The span tree crosses the process boundary: coordinator spans
# (queue.wait, scheduler.dispatch) and worker spans (campaign.run,
# campaign.job, engine phases) on one inbound trace ID.
spans=$(curl -fsS "http://$ADDR/v1/campaigns/$id/spans")
echo "$spans" | jq -e --arg tid "$TRACE_ID" '.trace_id == $tid' >/dev/null \
  || { echo "cluster-smoke: span tree not on inbound trace (got $(echo "$spans" | jq -r .trace_id))" >&2; exit 1; }
names=$(echo "$spans" | jq -r '[.. | objects | .name? // empty] | join(" ")')
for want in queue.wait scheduler.dispatch campaign.run campaign.job engine.fine; do
  case " $names " in
    *" $want "*) ;;
    *) echo "cluster-smoke: span tree missing $want (have: $names)" >&2; exit 1 ;;
  esac
done
echo "$spans" | jq -e --arg tid "$TRACE_ID" '[.. | objects | .trace_id? // empty] | all(. == $tid)' >/dev/null \
  || { echo "cluster-smoke: span tree mixes trace IDs" >&2; exit 1; }

# The cluster metric families rendered and moved.
scrape=$(curl -fsS "http://$ADDR/v1/metrics")
for family in \
  dramdig_cluster_leases_granted_total \
  dramdig_cluster_heartbeats_total \
  dramdig_cluster_completions_total \
  dramdig_cluster_results_uploaded_total \
  dramdig_cluster_spans_ingested_total \
  dramdig_cluster_workers \
  dramdig_cluster_leases_active; do
  grep -q "^# TYPE $family " <<<"$scrape" \
    || { echo "cluster-smoke: family $family missing from scrape" >&2
         grep '^# TYPE' <<<"$scrape" >&2; exit 1; }
done
for moved in \
  "dramdig_cluster_leases_granted_total [1-9]" \
  "dramdig_cluster_heartbeats_total [1-9]" \
  "dramdig_cluster_completions_total 1" \
  "dramdig_cluster_results_uploaded_total [1-9]" \
  "dramdig_cluster_spans_ingested_total [1-9]" \
  "dramdig_cluster_workers 2"; do
  grep -Eq "^$moved" <<<"$scrape" \
    || { echo "cluster-smoke: expected \"$moved\" in scrape" >&2
         grep '^dramdig_cluster' <<<"$scrape" >&2; exit 1; }
done

# Fleet telemetry: every registry row reports liveness as an age (the
# old last_seen_unix timestamp is gone), and the worker that ran the
# job carries a metrics digest from its shipped snapshots.
echo "$workers" | jq -e '[.workers[].last_heartbeat_age_ms] | all(. >= 0)' >/dev/null \
  || { echo "cluster-smoke: bad last_heartbeat_age_ms: $workers" >&2; exit 1; }
echo "$workers" | jq -e '[.workers[] | has("last_seen_unix")] | any | not' >/dev/null \
  || { echo "cluster-smoke: last_seen_unix resurfaced: $workers" >&2; exit 1; }
echo "$workers" | jq -e '[.workers[] | select(.completed > 0) | .metrics.engine_samples] | add > 0' >/dev/null \
  || { echo "cluster-smoke: completing worker has no metrics digest: $workers" >&2; exit 1; }

# The federated scrape re-renders the workers' snapshots with an
# instance label per sample, and its engine totals agree with the
# per-worker digests /v1/workers serves from the same snapshots.
fed=$(curl -fsS "http://$ADDR/v1/cluster/metrics")
grep -Eq '^dramdig_engine_samples_total\{instance="smoke-w[12]"\} [1-9]' <<<"$fed" \
  || { echo "cluster-smoke: no instance-labeled engine samples in federation" >&2
       head -40 <<<"$fed" >&2; exit 1; }
grep -Eq '^dramdig_go_goroutines\{instance="smoke-w[12]"\} [1-9]' <<<"$fed" \
  || { echo "cluster-smoke: no worker runtime self-metrics in federation" >&2; exit 1; }
fed_samples=$(echo "$fed" | awk '/^dramdig_engine_samples_total\{/ {sum += $2} END {print sum+0}')
digest_samples=$(echo "$workers" | jq '[.workers[].metrics.engine_samples // 0] | add')
[ "$fed_samples" = "$digest_samples" ] \
  || { echo "cluster-smoke: federated engine samples ($fed_samples) != worker digests ($digest_samples)" >&2; exit 1; }

# The campaign timeline is one chronological view across both
# processes: queue lifecycle events plus spans, worker-attributed. The
# 256-job campaign leaves about 1,400 events, past the default limit of
# 1,000; a cut timeline keeps its newest events, so the default view
# would lose the early "leased" this check wants beside the final "done".
timeline=$(curl -fsS "http://$ADDR/v1/campaigns/$id/timeline?limit=5000")
echo "$timeline" | jq -e '.events | length > 0' >/dev/null \
  || { echo "cluster-smoke: empty timeline: $timeline" >&2; exit 1; }
echo "$timeline" | jq -e '[.events[].at_unix_nano] | . == sort' >/dev/null \
  || { echo "cluster-smoke: timeline not chronological" >&2; exit 1; }
echo "$timeline" | jq -e '[.events[] | select(.source == "queue") | .type] | index("leased") != null and index("done") != null' >/dev/null \
  || { echo "cluster-smoke: timeline missing queue lifecycle events" >&2; exit 1; }
echo "$timeline" | jq -e '[.events[] | select(.source == "span" and (.worker | strings | startswith("smoke-w")))] | length > 0' >/dev/null \
  || { echo "cluster-smoke: timeline has no worker-attributed span events" >&2; exit 1; }

nspans=$(echo "$spans" | jq '[.. | objects | .name? // empty] | length')
nevents=$(echo "$timeline" | jq '.events | length')
echo "cluster-smoke: ok (campaign $id completed once across 2 workers, $nspans spans, $nevents timeline events on trace $TRACE_ID)"
