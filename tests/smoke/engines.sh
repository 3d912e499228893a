#!/bin/sh
# A jit search and a micro-op search produce byte-identical journals and
# configurations under --journal-deterministic: the engine choice never
# leaks into the science (DESIGN section 4.7).
#
# Usage: sh engines.sh NAS_SEARCH RUNNER_SERVE   (in an empty directory)
. "$(dirname "$0")/lib.sh"

"$NAS_SEARCH" ep S --engine microop --journal-deterministic \
  --journal micro.jsonl --out micro.cfg --quiet
"$NAS_SEARCH" ep S --engine jit --journal-deterministic \
  --journal jit.jsonl --metrics-json jit-metrics.json --out jit.cfg --quiet
same micro.cfg jit.cfg
same micro.jsonl jit.jsonl
has jit-metrics.json '"jit_downgraded": 0'
