# Shared plumbing for the end-to-end smoke scripts in this directory.
#
# Each script is run as `sh <script> NAS_SEARCH RUNNER_SERVE` from a working
# directory of its own (ctest gives each one a private directory under the
# build tree) and sources this file first. It fails -- exits non-zero -- at
# the first assertion that does not hold.
set -eu

NAS_SEARCH=$1
RUNNER_SERVE=$2

# Start from an empty directory: a leftover journal would turn the first
# search into a resume. Only a directory this library marked is wiped.
if [ -e .fpmix-smoke ]; then
  find . -mindepth 1 -delete
fi
if [ -n "$(ls -A)" ]; then
  echo "smoke: $(pwd) is not empty; run the script in a fresh directory" >&2
  exit 2
fi
touch .fpmix-smoke

# Every daemon and scheduler started in the background is killed and reaped
# on exit, on success and on failure alike.
started=""
track() { started="$started $1"; }
# reap PID: waits for a tracked process and returns its exit status. Once
# reaped, its pid is dropped from the list so stop_all never signals it.
reap() {
  keep=""
  for p in $started; do
    [ "$p" = "$1" ] || keep="$keep $p"
  done
  started=$keep
  wait "$1"
}
stop_all() {
  for pid in $started; do
    kill "$pid" 2>/dev/null || true
  done
  # A daemon drains its worker pool on SIGTERM; one that has not exited
  # after ~5 s is killed outright.
  i=0
  for pid in $started; do
    while kill -0 "$pid" 2>/dev/null && [ "$i" -lt 50 ]; do
      sleep 0.1
      i=$((i + 1))
    done
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
  done
  started=""
}
trap stop_all EXIT
trap 'exit 130' INT TERM

# start_daemon NAME [runner_serve flags...]: starts a daemon on a kernel-
# assigned port and waits for it to write NAME.txt ("127.0.0.1:PORT").
# Sets $pid to its process id.
start_daemon() {
  name=$1
  shift
  "$RUNNER_SERVE" --port 0 --port-file "$name.txt" --quiet "$@" &
  pid=$!
  track "$pid"
  i=0
  while [ ! -s "$name.txt" ] && [ "$i" -lt 50 ]; do
    sleep 0.2
    i=$((i + 1))
  done
  [ -s "$name.txt" ] || { echo "daemon failed to start: $name" >&2; exit 1; }
}

# restart_daemon NAME [runner_serve flags...]: starts a daemon again on the
# port recorded in NAME.txt (pass the same --state-dir to restart it with
# its on-disk state). The port may still be held briefly by its dead
# predecessor, so binding is retried for up to ~20 s. Sets $pid.
restart_daemon() {
  name=$1
  shift
  port=$(cut -d: -f2 "$name.txt")
  i=0
  while [ "$i" -lt 100 ]; do
    "$RUNNER_SERVE" --port "$port" --quiet "$@" &
    pid=$!
    track "$pid"
    sleep 0.2
    kill -0 "$pid" 2>/dev/null && return 0
    i=$((i + 1))
  done
  echo "daemon restart failed: $name on port $port" >&2
  exit 1
}

# fleet NAME...: the --connect value for the named daemons.
fleet() {
  list=""
  for name in "$@"; do
    list="$list${list:+,}$(cat "$name.txt")"
  done
  echo "$list"
}

# same A B: the two files are byte-identical.
same() {
  cmp -s "$1" "$2" && return 0
  echo "FAIL: $1 and $2 differ" >&2
  diff "$1" "$2" | head -n 20 >&2 || true
  exit 1
}

# has FILE TEXT: FILE contains TEXT.
has() {
  grep -qF -- "$2" "$1" || { echo "FAIL: $1 lacks $2" >&2; exit 1; }
}

# some_nonzero KEYS FILE...: at least one "KEY": N in the files, for any key
# matched by the extended regex KEYS, has N > 0.
some_nonzero() {
  keys=$1
  shift
  grep -hoE "\"($keys)\": [0-9]+" "$@" || true
  grep -hoE "\"($keys)\": [0-9]+" "$@" | grep -vq ': 0$' ||
    { echo "FAIL: no nonzero \"$keys\" in $*" >&2; exit 1; }
}

# first_nonzero KEY FILE: the first "KEY": N in FILE has N > 0.
first_nonzero() {
  first=$(grep -oE "\"$1\": [0-9]+" "$2" | head -1)
  echo "$first"
  case "$first" in
    "" | *": 0") echo "FAIL: first \"$1\" in $2 is not positive" >&2; exit 1 ;;
  esac
}
