#!/bin/sh
# A search served by a two-daemon runner_serve fleet lands on the in-process
# run's exact configuration and journal bytes, its trials really go over
# the wire, and a daemon dying mid-search costs no accepted trial.
#
# Usage: sh fleet.sh NAS_SEARCH RUNNER_SERVE   (in an empty directory)
. "$(dirname "$0")/lib.sh"

start_daemon ep1 --workers 2
start_daemon ep2 --workers 2
echo "fleet: $(fleet ep1 ep2)"

# The in-process reference. Its lane count matches the fleet's capacity
# (2 endpoints x 2 workers), so the journals interleave identically;
# --journal-deterministic zeroes the timing fields.
"$NAS_SEARCH" ep S --threads 4 --journal-deterministic \
  --journal clean.jsonl --out clean.cfg --quiet

# Byte-identical config AND journal -- a resumed search cannot tell which
# executor served it -- and proof the trials went over the wire.
"$NAS_SEARCH" ep S --connect "$(fleet ep1 ep2)" --shard-cache \
  --journal-deterministic --journal dist.jsonl \
  --metrics-json dist-metrics.json --out dist.cfg --quiet
same clean.cfg dist.cfg
same clean.jsonl dist.jsonl
has dist-metrics.json '"remote_degraded": false'
some_nonzero remote_trials dist-metrics.json

# Endpoint death mid-search: one daemon exits after 5 results; the
# surviving shard absorbs its in-flight work without losing a single
# accepted trial.
start_daemon dying --workers 2 --exit-after 5
"$NAS_SEARCH" ep S --connect "$(fleet dying ep1)" \
  --journal-deterministic --journal death.jsonl \
  --metrics-json death-metrics.json --out death.cfg --quiet
same clean.cfg death.cfg
same clean.jsonl death.jsonl
has death-metrics.json '"remote_unserved": 0'
