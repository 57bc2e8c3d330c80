#!/usr/bin/env bash
# service-smoke: end-to-end drive of scarecrowd's serving and durability
# stack over localhost.
#
#   1. cached replay    — the second identical /v1/verdict must come back
#                         as an X-Scarecrow-Cache hit with identical bytes.
#   2. catalog re-sweep — the catalog (case studies + Joe Security
#                         samples, seeds 1-4) runs through /v1/campaign
#                         twice, following each SSE stream to its terminal
#                         summary; both sweeps must finish without errors
#                         and the rerun must be served entirely from the
#                         cache (cache_hits == total).
#   3. SIGKILL recovery — commit a verdict, launch a campaign, kill -9
#                         the daemon mid-sweep, restart it on the same
#                         data dir, and require the committed verdict to
#                         come back byte-identical as an X-Scarecrow-Cache
#                         hit served from the WAL alone.
#
# Throughput and latency are perfbench's job (perfbench/run.sh); every
# check here is deterministic.
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
go build -o scarecrow ./cmd/scarecrow

echo "== boot (store $DATA/store)"
start_daemon

echo "== cached replay: identical request, X-Scarecrow-Cache hit, identical bytes"
curl -fsS "$BASE/v1/verdict" -d '{"specimen":"wannacry","seed":3}' >"$DATA/r1.json"
curl -fsS -D "$DATA/rh" "$BASE/v1/verdict" -d '{"specimen":"wannacry","seed":3}' >"$DATA/r2.json"
if ! grep -qi 'X-Scarecrow-Cache: hit' "$DATA/rh"; then
  echo "FAIL: identical verdict request was not a cache hit"
  cat "$DATA/rh"
  exit 1
fi
if ! cmp -s "$DATA/r1.json" "$DATA/r2.json"; then
  echo "FAIL: cached verdict bytes differ from the first response"
  exit 1
fi

# The sweep manifest: every case study and Joe Security sample the
# command-line tool lists, at seeds 1-4.
SPECIMENS=$({
  ./scarecrow -list | sed -n 's/^case studies: //p' | tr -d ' ' | tr ',' '\n'
  ./scarecrow -list | sed -n 's/^  \(joe:[0-9a-f]*\) .*/\1/p'
} | sed 's/.*/"&"/' | paste -sd, -)
MANIFEST="{\"specimens\":[$SPECIMENS],\"seeds\":[1,2,3,4],\"quota\":8}"

# sweep launches the manifest and prints its terminal summary event.
sweep() {
  local cid
  cid=$(curl -fsS "$BASE/v1/campaign" -d "$MANIFEST" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
  if [ -z "$cid" ]; then
    echo "FAIL: campaign launch returned no id" >&2
    return 1
  fi
  curl -fsSN "$BASE/v1/campaign/$cid/events" | grep '"type":"summary"' | tail -n 1
}
field() { # name, summary
  echo "$2" | sed -n "s/.*\"$1\":\([0-9]*\).*/\1/p"
}

echo "== catalog sweep, then the same manifest again: no errors, the rerun all cache hits"
COLD=$(sweep)
WARM=$(sweep)
for pass in COLD WARM; do
  SUM=${!pass}
  TOTAL=$(field total "$SUM")
  COMPLETED=$(field completed "$SUM")
  ERRORS=$(field errors "$SUM")
  HITS=$(field cache_hits "$SUM")
  echo "   $pass: $COMPLETED/$TOTAL verdicts, $ERRORS errors, $HITS cache hits"
  if [ -z "$TOTAL" ] || [ "$TOTAL" = "0" ] || [ "$COMPLETED" != "$TOTAL" ] || [ "$ERRORS" != "0" ]; then
    echo "FAIL: $pass sweep summary: $SUM"
    exit 1
  fi
done
if [ "$(field cache_hits "$WARM")" != "$(field total "$WARM")" ]; then
  echo "FAIL: the rerun of the same manifest was not served entirely from the cache: $WARM"
  exit 1
fi

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
