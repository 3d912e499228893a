#!/bin/sh
# Trial supervision, isolation and the incremental pipeline through the
# real search CLI. nas_search exits 1 on a clean composite-fail and 3 on
# crash storms or internal-error trials, so a plain invocation is itself
# an assertion.
#
# Usage: sh supervision.sh NAS_SEARCH RUNNER_SERVE   (in an empty directory)
. "$(dirname "$0")/lib.sh"

# A class-S search with a per-trial deadline and majority-vote retries
# converges, then resumes from its own journal.
"$NAS_SEARCH" ep S --deadline-ms 5000 --retries 1 \
  --journal soak-smoke.jsonl --out /dev/null --quiet
"$NAS_SEARCH" ep S --deadline-ms 5000 --retries 1 \
  --journal soak-smoke.jsonl --out /dev/null --quiet

# The same search through sandboxed workers replays entirely from the
# in-process journal (the fingerprints are mode-compatible for clean
# campaigns), so no trial runs live.
"$NAS_SEARCH" ep S --deadline-ms 5000 --retries 1 \
  --isolate --workers 2 --journal soak-smoke.jsonl \
  --metrics-json iso-smoke-metrics.json --out /dev/null --quiet
has iso-smoke-metrics.json '"trials_live": 0'

# The variant cache never changes the science: two runs land on
# byte-identical configs, and the first (whose vote retries rebuild configs
# it just built) reuses function variants.
"$NAS_SEARCH" ep S --retries 1 \
  --metrics-json cache-metrics.json --out cached-1.cfg --quiet
"$NAS_SEARCH" ep S --retries 1 --out cached-2.cfg --quiet
same cached-1.cfg cached-2.cfg
some_nonzero funcs_reused cache-metrics.json
