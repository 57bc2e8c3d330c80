#!/usr/bin/env bash
# front-smoke: end-to-end drive of scarefront's scale-out tier over
# localhost — two real scarecrowd backends behind one real front.
#
#   1. routed verdicts  — a verdict submitted through the front replays as
#                         an X-Scarecrow-Cache hit with byte-identical
#                         bytes, and the job ID carries the owning
#                         backend's shard prefix.
#   2. SIGKILL recovery — launch a fanned-out campaign through the front,
#                         kill -9 one backend mid-sweep, restart it on the
#                         same data dir, and require the campaign to
#                         complete with zero errors, every cell reported
#                         exactly once on the merged stream (no losses, no
#                         duplicates), and a verdict committed before the
#                         kill replayed byte-identical from the WAL.
#
# Throughput through the front is perfbench's job (its campaign-fanout
# workload); every check here is deterministic.
set -euo pipefail

cd "$(dirname "$0")/.."

B0_ADDR=127.0.0.1:18091
B1_ADDR=127.0.0.1:18092
FRONT_ADDR=127.0.0.1:18090
BASE=http://$FRONT_ADDR
DATA=$(mktemp -d)
B0_PID=""
B1_PID=""
FRONT_PID=""

cleanup() {
  for pid in "$FRONT_PID" "$B0_PID" "$B1_PID"; do
    if [ -n "$pid" ]; then
      kill "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    fi
  done
  rm -rf "$DATA"
}
trap cleanup EXIT

wait_healthy() { # url, name
  for _ in $(seq 1 100); do
    if curl -fsS "$1/healthz" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  echo "FAIL: $2 never became healthy"
  cat "$DATA"/*.log 2>/dev/null || true
  exit 1
}

start_backend0() {
  ./scarecrowd -addr "$B0_ADDR" -data-dir "$DATA/b0" >>"$DATA/b0.log" 2>&1 &
  B0_PID=$!
  wait_healthy "http://$B0_ADDR" "backend 0"
}

echo "== build"
go build -o scarecrowd ./cmd/scarecrowd
go build -o scarefront ./cmd/scarefront

echo "== boot: 2 backends + front (stores under $DATA)"
start_backend0
./scarecrowd -addr "$B1_ADDR" -data-dir "$DATA/b1" >>"$DATA/b1.log" 2>&1 &
B1_PID=$!
wait_healthy "http://$B1_ADDR" "backend 1"
./scarefront -addr "$FRONT_ADDR" -backends "http://$B0_ADDR,http://$B1_ADDR" \
  -health-interval 200ms >>"$DATA/front.log" 2>&1 &
FRONT_PID=$!
wait_healthy "$BASE" "front"

echo "== routed verdict: shard-prefixed job ID, byte-identical cached replay"
curl -fsS -D "$DATA/h1" "$BASE/v1/verdict" -d '{"specimen":"kasidet","seed":91}' >"$DATA/v1.json"
if ! grep -qiE 'X-Scarecrow-Job: b[0-9]+-j' "$DATA/h1"; then
  echo "FAIL: front did not namespace the job ID"
  cat "$DATA/h1"
  exit 1
fi
curl -fsS -D "$DATA/h2" "$BASE/v1/verdict" -d '{"specimen":"kasidet","seed":91}' >"$DATA/v2.json"
if ! grep -qi 'X-Scarecrow-Cache: hit' "$DATA/h2"; then
  echo "FAIL: replay through the front was not a cache hit"
  cat "$DATA/h2"
  exit 1
fi
if ! cmp -s "$DATA/v1.json" "$DATA/v2.json"; then
  echo "FAIL: verdict bytes differ across the front replay"
  exit 1
fi

echo "== durability: commit a verdict on backend 0, then kill it mid-campaign"
# kasidet hashes onto backend 0's shard with this 2-backend ring, so the
# committed verdict lives in exactly the WAL the SIGKILL threatens.
curl -fsS "$BASE/v1/verdict" -d '{"specimen":"kasidet","seed":92}' >"$DATA/pre.json"

# Fresh seeds so the sweep does real lab work when the kill lands.
LAUNCH=$(curl -fsS "$BASE/v1/campaign" \
  -d '{"specimens":["kasidet","locky","wannacry","scaware","spawner","toolkiller"],"seeds":[21,22,23,24]}')
CID=$(echo "$LAUNCH" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
TOTAL=$(echo "$LAUNCH" | sed -n 's/.*"total":\([0-9]*\).*/\1/p')
if [ -z "$CID" ] || [ -z "$TOTAL" ]; then
  echo "FAIL: campaign launch returned no id/total: $LAUNCH"
  exit 1
fi
DONE=0
for _ in $(seq 1 200); do
  DONE=$(curl -fsS "$BASE/v1/campaign/$CID" | sed -n 's/.*"completed":\([0-9]*\).*/\1/p')
  if [ "${DONE:-0}" -ge 2 ]; then
    break
  fi
  sleep 0.05
done
echo "   campaign $CID at ${DONE:-0}/$TOTAL verdicts; kill -9 backend 0 ($B0_PID)"
kill -9 "$B0_PID"
wait "$B0_PID" 2>/dev/null || true
B0_PID=""

echo "== restart backend 0 on the same data dir: campaign must complete"
start_backend0
for _ in $(seq 1 600); do
  SNAP=$(curl -fsS "$BASE/v1/campaign/$CID")
  STATE=$(echo "$SNAP" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
  if [ "$STATE" != "running" ]; then
    break
  fi
  sleep 0.1
done
if [ "$STATE" != "done" ]; then
  echo "FAIL: campaign ended in state '$STATE' after backend restart: $SNAP"
  exit 1
fi
ERRORS=$(echo "$SNAP" | sed -n 's/.*"errors":\([0-9]*\).*/\1/p')
COMPLETED=$(echo "$SNAP" | sed -n 's/.*"completed":\([0-9]*\).*/\1/p')
if [ "${ERRORS:-0}" != "0" ] || [ "$COMPLETED" != "$TOTAL" ]; then
  echo "FAIL: campaign completed $COMPLETED/$TOTAL with $ERRORS errors: $SNAP"
  exit 1
fi

echo "== merged stream: every cell exactly once (no losses, no duplicates)"
curl -fsSN "$BASE/v1/campaign/$CID/events" >"$DATA/events.raw"
grep '"type":"verdict"' "$DATA/events.raw" \
  | sed -n 's/.*"specimen":"\([^"]*\)".*"seed":\(-\{0,1\}[0-9]*\).*/\1|\2/p' >"$DATA/cells"
CELLS=$(wc -l <"$DATA/cells")
if [ "$CELLS" != "$TOTAL" ]; then
  echo "FAIL: merged stream carried $CELLS verdict events, want $TOTAL"
  exit 1
fi
DUPES=$(sort "$DATA/cells" | uniq -d)
if [ -n "$DUPES" ]; then
  echo "FAIL: duplicated cells on the merged stream:"
  echo "$DUPES"
  exit 1
fi

echo "== pre-kill verdict replays byte-identical from backend 0's WAL"
REPLAYED=0
for _ in $(seq 1 50); do
  if curl -fsS -D "$DATA/h3" "$BASE/v1/verdict" -d '{"specimen":"kasidet","seed":92}' >"$DATA/post.json" 2>/dev/null; then
    REPLAYED=1
    break
  fi
  sleep 0.2 # the front may still hold the backend degraded for a beat
done
if [ "$REPLAYED" != "1" ]; then
  echo "FAIL: front never served the shard again after restart"
  exit 1
fi
if ! grep -qi 'X-Scarecrow-Cache: hit' "$DATA/h3"; then
  echo "FAIL: restarted backend did not serve the committed verdict from its WAL"
  cat "$DATA/h3"
  exit 1
fi
if ! cmp -s "$DATA/pre.json" "$DATA/post.json"; then
  echo "FAIL: verdict bytes differ across SIGKILL + restart through the front"
  diff "$DATA/pre.json" "$DATA/post.json" || true
  exit 1
fi

echo "front-smoke: OK"
