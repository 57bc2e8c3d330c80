#!/usr/bin/env bash
# service-smoke: end-to-end drive of scarecrowd's serving and durability
# stack over localhost.
#
#   1. classic bench    — 200 verdicts at concurrency 8 cycling 20 keys;
#                         fails on any error or a zero cache hit-rate.
#   2. campaign bench   — cold+warm catalog sweep through /v1/campaign,
#                         following the SSE streams; the warm replay must
#                         be at least 1.5x faster than the cold pass.
#                         (The margin is deliberately modest: the cold
#                         path is now within a small factor of replay
#                         speed — see perfbench's corpus-cold workload —
#                         so a large warm/cold ratio would mean the cold
#                         path regressed, not that the cache is healthy.)
#   3. SIGKILL recovery — commit a verdict, launch a campaign, kill -9
#                         the daemon mid-sweep, restart it on the same
#                         data dir, and require the committed verdict to
#                         come back byte-identical as an X-Scarecrow-Cache
#                         hit served from the WAL alone.
#
# Artifacts: BENCH_service.json, BENCH_campaign.json.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR=127.0.0.1:18080
BASE=http://$ADDR
DATA=$(mktemp -d)
DAEMON_PID=""

cleanup() {
  if [ -n "$DAEMON_PID" ]; then
    kill "$DAEMON_PID" 2>/dev/null || true
    wait "$DAEMON_PID" 2>/dev/null || true
  fi
  rm -rf "$DATA"
}
trap cleanup EXIT

start_daemon() {
  ./scarecrowd -addr "$ADDR" -data-dir "$DATA/store" >>"$DATA/daemon.log" 2>&1 &
  DAEMON_PID=$!
  for _ in $(seq 1 100); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  echo "FAIL: daemon never became healthy"
  cat "$DATA/daemon.log"
  exit 1
}

echo "== build"
go build -o scarecrowd ./cmd/scarecrowd
go build -o scarebench ./cmd/scarebench

echo "== boot (store $DATA/store)"
start_daemon

echo "== classic bench: cache + coalescing under load"
./scarebench -addr "$BASE" -n 200 -c 8 -require-hits -out BENCH_service.json

echo "== campaign bench: cold/warm catalog sweep (warm must be >=1.5x faster)"
./scarebench -addr "$BASE" -campaign -quota 8 -min-warm-speedup 1.5 -campaign-out BENCH_campaign.json

echo "== durability: commit a verdict, SIGKILL mid-campaign"
curl -fsS "$BASE/v1/verdict" -d '{"specimen":"kasidet","seed":77}' >"$DATA/v1.json"

# Fresh seeds so the campaign does real lab work when the kill lands.
CID=$(curl -fsS "$BASE/v1/campaign" \
  -d '{"specimens":["kasidet","locky","wannacry","scaware","spawner","toolkiller"],"seeds":[11,12,13,14]}' \
  | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
if [ -z "$CID" ]; then
  echo "FAIL: campaign launch returned no id"
  exit 1
fi
DONE=0
for _ in $(seq 1 200); do
  DONE=$(curl -fsS "$BASE/v1/campaign/$CID" | sed -n 's/.*"completed":\([0-9]*\).*/\1/p')
  if [ "${DONE:-0}" -ge 1 ]; then
    break
  fi
  sleep 0.05
done
echo "   campaign $CID at ${DONE:-0} verdicts; kill -9 $DAEMON_PID"
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""

echo "== restart on the same data dir: the WAL must serve the verdict"
start_daemon
curl -fsS -D "$DATA/headers" "$BASE/v1/verdict" -d '{"specimen":"kasidet","seed":77}' >"$DATA/v2.json"
if ! grep -qi 'X-Scarecrow-Cache: hit' "$DATA/headers"; then
  echo "FAIL: restarted daemon did not serve the committed verdict as a cache hit"
  cat "$DATA/headers"
  exit 1
fi
if ! cmp -s "$DATA/v1.json" "$DATA/v2.json"; then
  echo "FAIL: verdict bytes differ across SIGKILL + restart"
  diff "$DATA/v1.json" "$DATA/v2.json" || true
  exit 1
fi
echo "   verdict replayed byte-identical from the WAL after SIGKILL"

echo "service-smoke: OK"
