#!/usr/bin/env bash
# End-to-end smoke test for the storage layer: boot dramdigd with a
# small -store-max-bytes, run a real campaign, push the disk tier past
# the bound with cluster uploads and check that LRU eviction holds it,
# that the GC reclaims orphaned traces while referenced ones survive,
# that dramdig_store_disk_bytes tracks `du` within one segment, that
# GET /v1/mappings/{fp} serves ETags and honors If-None-Match, and that
# a restart on the same directories recovers the segments. CI runs this
# after the unit suites; run it locally with `./scripts/storage-smoke.sh`.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR=${ADDR:-127.0.0.1:18081}
MAX_BYTES=8388608        # disk-tier bound: fits the ~0.5MB No.1 campaign trace, overflows fast
SEGMENT=1048576          # segment target at this bound (min of 1MiB default, MaxBytes/4)
# A leftover listener on the port would answer the probes below and make
# every later assertion test the wrong process.
if curl -fsS --max-time 2 "http://$ADDR/v1/healthz" >/dev/null 2>&1; then
  echo "storage-smoke: something is already listening on $ADDR (set ADDR to override)" >&2
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

boot_daemon() {
  "$WORKDIR/dramdigd" -addr "$ADDR" \
    -cache-dir "$WORKDIR/cache" -trace -queue-dir "$WORKDIR/queue" \
    -store-max-bytes "$MAX_BYTES" -store-gc-interval 1s -store-gc-grace 2s \
    -log-format json >>"$WORKDIR/daemon.log" 2>&1 &
  DAEMON_PID=$!
  for i in $(seq 1 50); do
    if curl -fsS "http://$ADDR/v1/healthz" >/dev/null 2>&1; then return 0; fi
    if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
      echo "storage-smoke: daemon died during boot" >&2
      cat "$WORKDIR/daemon.log" >&2
      exit 1
    fi
    sleep 0.2
  done
  echo "storage-smoke: daemon never became healthy" >&2
  exit 1
}
boot_daemon

# One real campaign over the cheapest paper setting, driven to "done".
# Its job stays in the queue's terminal window, so its trace is
# referenced and must survive every GC pass below.
id=$(curl -fsS "http://$ADDR/v1/campaigns" -d '{"machines":[1],"seed":42}' | jq -r .id)
for i in $(seq 1 150); do
  status=$(curl -fsS "http://$ADDR/v1/campaigns/$id" | jq -r .status)
  [ "$status" = done ] && break
  if [ "$status" = failed ]; then
    echo "storage-smoke: campaign failed" >&2
    curl -fsS "http://$ADDR/v1/campaigns/$id" >&2
    exit 1
  fi
  sleep 1
done
[ "${status:-}" = done ] || { echo "storage-smoke: campaign not done after 150s" >&2; exit 1; }

real_fp=$(curl -fsS "http://$ADDR/v1/campaigns/$id/trace" | jq -r '.traces[0].machine_fingerprint')
[ "${#real_fp}" = 64 ] || { echo "storage-smoke: bad campaign fingerprint $real_fp" >&2; exit 1; }
curl -fsS "http://$ADDR/v1/traces/$real_fp" -o /dev/null \
  || { echo "storage-smoke: campaign trace not stored" >&2; exit 1; }

# trace_blob FP N prints N bytes of trace for machine fingerprint FP: a
# trace preamble (magic, version 1, header length, header JSON) naming
# FP, then random filler. The upload endpoint parses only the preamble
# and rejects bytes that are not a trace of the path's machine.
trace_blob() {
  local hdr="{\"version\":1,\"machine\":{\"fingerprint\":\"$1\"}}"
  printf "DRTR\\001\\000\\$(printf %03o "${#hdr}")\\000\\000\\000%s" "$hdr"
  head -c $(($2 - 10 - ${#hdr})) /dev/urandom
}

# --- orphan reclamation -----------------------------------------------
# A trace uploaded under a fingerprint no retained job references is an
# orphan: the GC must reap it once the grace period passes, while the
# campaign's referenced trace survives.
orphan_fp=$(printf '%064x' 3735928559)
trace_blob "$orphan_fp" 4096 | curl -fsS -X PUT --data-binary @- \
  "http://$ADDR/v1/cluster/traces/$orphan_fp" >/dev/null
for i in $(seq 1 60); do
  code=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/v1/traces/$orphan_fp")
  [ "$code" = 404 ] && break
  sleep 0.5
done
[ "${code:-}" = 404 ] \
  || { echo "storage-smoke: GC never reaped the orphaned trace (last status $code)" >&2; exit 1; }
curl -fsS "http://$ADDR/v1/traces/$real_fp" -o /dev/null \
  || { echo "storage-smoke: GC reaped the referenced campaign trace" >&2; exit 1; }

# --- size bound under write volume ------------------------------------
# Keep the campaign's result record so the restart check below can
# assert it survives: the volume phase streams ~3x MAX_BYTES through
# the tier, and LRU eviction is free to drop anything cold.
mapping=$(curl -fsS "http://$ADDR/v1/mappings/$real_fp")

# Push ~3x MAX_BYTES of trace blobs through the cluster upload path.
# Eviction is enforced synchronously on every write; the only slack is
# one segment for a GC compaction caught mid-copy (live records are
# copied into the active segment before the old one is removed).
seg_dir="$WORKDIR/cache/segments"
# seg_bytes prints the segment directory's size in bytes. du exits
# non-zero when the store removes a segment while du walks the
# directory; a later walk sees the settled listing, so retry a few times.
seg_bytes() {
  local out
  for _ in 1 2 3 4 5; do
    if out=$(du -sb "$seg_dir" 2>&1); then
      echo "$out" | cut -f1
      return 0
    fi
    sleep 0.1
  done
  echo "storage-smoke: du failed five times on $seg_dir: $out" >&2
  return 1
}
for i in $(seq 1 24); do
  fp=$(printf '%056x%08x' 193 "$i")
  trace_blob "$fp" "$SEGMENT" | curl -fsS -X PUT --data-binary @- \
    "http://$ADDR/v1/cluster/traces/$fp" >/dev/null
  used=$(seg_bytes)
  if [ "$used" -gt $((MAX_BYTES + SEGMENT)) ]; then
    echo "storage-smoke: disk tier over bound mid-volume: $used > $MAX_BYTES + one segment" >&2
    exit 1
  fi
done

scrape=$(curl -fsS "http://$ADDR/v1/metrics")
metric() { echo "$scrape" | awk -v m="$1" '$1 == m { print int($2) }'; }
evicted=$(metric dramdig_store_gc_evicted_total)
gc_runs=$(metric dramdig_store_gc_runs_total)
reclaimed=$(metric dramdig_store_gc_reclaimed_blobs_total)
[ "${evicted:-0}" -gt 0 ] || { echo "storage-smoke: eviction counter never moved" >&2; exit 1; }
[ "${gc_runs:-0}" -gt 0 ] || { echo "storage-smoke: GC never ran" >&2; exit 1; }
[ "${reclaimed:-0}" -gt 0 ] || { echo "storage-smoke: GC reclaimed nothing" >&2; exit 1; }

# Once the GC settles (two identical consecutive disk_bytes reads), the
# gauge must track `du` of the segment directory within one segment.
prev=-1
for i in $(seq 1 60); do
  scrape=$(curl -fsS "http://$ADDR/v1/metrics")
  disk_bytes=$(metric dramdig_store_disk_bytes)
  [ "$disk_bytes" = "$prev" ] && break
  prev=$disk_bytes
  sleep 0.5
done
used=$(seg_bytes)
delta=$((disk_bytes - used)); [ "$delta" -lt 0 ] && delta=$((-delta))
if [ "$delta" -gt "$SEGMENT" ]; then
  echo "storage-smoke: dramdig_store_disk_bytes=$disk_bytes but du=$used (delta $delta > one segment $SEGMENT)" >&2
  exit 1
fi
if [ "$used" -gt "$MAX_BYTES" ]; then
  echo "storage-smoke: disk tier over bound after GC settled: $used > $MAX_BYTES bytes" >&2
  exit 1
fi

# Re-store the campaign's result record (the volume phase may have
# evicted it as LRU) so the restart below must serve it from segments.
echo "$mapping" | curl -fsS -X PUT --data-binary @- \
  "http://$ADDR/v1/cluster/results/$real_fp" >/dev/null

# --- ETag / conditional GET -------------------------------------------
curl -fsS -D "$WORKDIR/map.headers" "http://$ADDR/v1/mappings/$real_fp" -o /dev/null
etag=$(awk -F': ' 'tolower($1) == "etag" { print $2 }' "$WORKDIR/map.headers" | tr -d '\r')
[ "$etag" = "\"$real_fp\"" ] \
  || { echo "storage-smoke: ETag $etag does not match fingerprint" >&2; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' -H "If-None-Match: $etag" \
  "http://$ADDR/v1/mappings/$real_fp")
[ "$code" = 304 ] || { echo "storage-smoke: If-None-Match got $code, want 304" >&2; exit 1; }

# --- restart recovery --------------------------------------------------
kill "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
boot_daemon
curl -fsS "http://$ADDR/v1/healthz" | jq -e '.status == "ok"' >/dev/null \
  || { echo "storage-smoke: daemon unhealthy after restart" >&2; exit 1; }
curl -fsS "http://$ADDR/v1/mappings/$real_fp" | jq -e --arg fp "$real_fp" '.fingerprint == $fp' >/dev/null \
  || { echo "storage-smoke: campaign mapping lost across restart" >&2; exit 1; }
used=$(seg_bytes)
if [ "$used" -gt "$MAX_BYTES" ]; then
  echo "storage-smoke: disk tier over bound after restart: $used > $MAX_BYTES bytes" >&2
  exit 1
fi

echo "storage-smoke: ok (campaign $id, bound $MAX_BYTES held at $used bytes, $evicted evicted, $reclaimed reclaimed over $gc_runs GC runs)"
