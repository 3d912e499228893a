#!/bin/sh
# A hard-fault campaign over sandboxed workers lands byte for byte on the
# fault-free configuration, and the crash census shows the campaign drew
# blood on at least one of the seeds.
#
# Usage: sh hard_faults.sh NAS_SEARCH RUNNER_SERVE   (in an empty directory)
. "$(dirname "$0")/lib.sh"

"$NAS_SEARCH" ep S --out clean.cfg --quiet
for seed in 1 2 7; do
  "$NAS_SEARCH" ep S --isolate --workers 2 \
    --fault-seed "$seed" --max-crashes 6 \
    --metrics-json "crash-metrics-$seed.json" \
    --out "faulted-$seed.cfg" --quiet
  same clean.cfg "faulted-$seed.cfg"
done
some_nonzero 'worker_crashes|protocol_errors' crash-metrics-*.json
