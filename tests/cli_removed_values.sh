#!/bin/sh
# Configuration values that are no longer offered must be usage errors:
# exit 2 with the usage text, before any workload runs.
DEPPROF="$1"
status=0
for opt in "--storage shadow" "--storage hashtable" "--queue lock-free-spsc" \
           "--queue lock-free-mpmc" "--wait yield"; do
  # shellcheck disable=SC2086  # $opt is a flag and its value
  err=$("$DEPPROF" run ep $opt 2>&1 >/dev/null)
  rc=$?
  if [ "$rc" -ne 2 ] || ! printf '%s\n' "$err" | grep -q '^usage: depprof'; then
    echo "FAIL: '$opt' exited $rc without the usage message" >&2
    status=1
  fi
done
exit "$status"
