#!/bin/sh
# Durable daemon state: a daemon that dies mid-search and restarts on the
# same port and --state-dir, and then a whole fleet restarted from disk
# alone, both leave the search byte-identical to the in-process run.
#
# Usage: sh restart.sh NAS_SEARCH RUNNER_SERVE   (in an empty directory)
. "$(dirname "$0")/lib.sh"

# Daemon 1 is armed to die after serving 5 trial results, with its shards
# pinned to state1/.
start_daemon ep1 --workers 2 --state-dir state1 --exit-after 5
ep1=$pid
start_daemon ep2 --workers 2 --state-dir state2
ep2=$pid
echo "fleet: $(fleet ep1 ep2)"

# The uninterrupted oracle every restart run must reproduce to the byte.
"$NAS_SEARCH" cg W --threads 4 --journal-deterministic \
  --journal clean.jsonl --out clean.cfg --quiet

# Daemon 1 exits after its 5th result, then restarts on the same port and
# state dir while the search runs on. It reloads its persisted shard, and
# gossip re-streams whatever its death cost it.
"$NAS_SEARCH" cg W --connect "$(fleet ep1 ep2)" \
  --journal-deterministic --journal restart.jsonl \
  --heartbeat-ms 50 --gossip-ms 100 \
  --metrics-json restart-metrics.json --out restart.cfg --quiet &
sched=$!
track "$sched"
reap "$ep1" || true
echo "daemon 1 died at $(wc -l < restart.jsonl) journal line(s)"
restart_daemon ep1 --workers 2 --state-dir state1
ep1=$pid
reap "$sched"
same clean.cfg restart.cfg
same clean.jsonl restart.jsonl
first_nonzero disconnects restart-metrics.json

# Kill the WHOLE fleet and restart every daemon from its state dir: the
# only surviving copy of the search's history is on disk. A fresh
# scheduler with a fresh journal path adopts the reloaded shards.
for p in "$ep1" "$ep2"; do
  kill -9 "$p" 2>/dev/null || true
  reap "$p" || true
done
restart_daemon ep1 --workers 2 --state-dir state1
restart_daemon ep2 --workers 2 --state-dir state2
"$NAS_SEARCH" cg W --connect "$(fleet ep1 ep2)" --adopt \
  --journal-deterministic --journal adopt.jsonl \
  --heartbeat-ms 50 --gossip-ms 100 \
  --metrics-json adopt-metrics.json --out adopt.cfg --quiet
same clean.cfg adopt.cfg
same clean.jsonl adopt.jsonl
some_nonzero adopted_records adopt-metrics.json
first_nonzero shards_reloaded adopt-metrics.json
