#!/bin/sh
# Scheduler failover: a fleet search whose scheduler is SIGKILLed mid-run
# is finished by a fresh scheduler that adopts the history the daemons
# replicated, landing on the uninterrupted run's exact bytes.
#
# Usage: sh adopt.sh NAS_SEARCH RUNNER_SERVE   (in an empty directory)
. "$(dirname "$0")/lib.sh"

start_daemon ep1 --workers 2
start_daemon ep2 --workers 2
echo "fleet: $(fleet ep1 ep2)"

# The uninterrupted oracle every failover run must reproduce to the byte.
"$NAS_SEARCH" ep S --threads 4 --journal-deterministic \
  --journal clean.jsonl --out clean.cfg --quiet

# Kill the scheduler once its journal shows progress (polled every 20 ms:
# the whole search takes about 0.1 s). Every committed record was streamed
# to both daemons' replicated shards as it was sealed.
"$NAS_SEARCH" ep S --connect "$(fleet ep1 ep2)" \
  --journal-deterministic --journal killed.jsonl \
  --heartbeat-ms 50 --quiet &
sched=$!
track "$sched"
i=0
while [ "$i" -lt 1500 ]; do
  kill -0 "$sched" 2>/dev/null || break
  [ -f killed.jsonl ] && [ "$(wc -l < killed.jsonl)" -ge 3 ] && break
  sleep 0.02
  i=$((i + 1))
done
kill -9 "$sched" 2>/dev/null || true
reap "$sched" || true
echo "journal at kill: $(cat killed.jsonl 2>/dev/null | wc -l) line(s)"

# A fresh scheduler with a FRESH journal path -- only the fleet-held
# shards can supply the dead scheduler's history -- adopts and resumes.
"$NAS_SEARCH" ep S --connect "$(fleet ep1 ep2)" --adopt \
  --journal-deterministic --journal adopt.jsonl \
  --heartbeat-ms 50 --metrics-json adopt-metrics.json \
  --out adopt.cfg --quiet
same clean.cfg adopt.cfg
same clean.jsonl adopt.jsonl
some_nonzero adopted_records adopt-metrics.json
