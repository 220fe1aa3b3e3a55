#!/bin/sh
# Every mlck command, bench driver and flag-taking example rejects a
# misspelled flag before doing any work: exit 2 within a second, with
# stderr naming the flag.
#
#   cli_strict.sh <mlck> <binary>...
set -u
mlck=$1
shift
status=0

check() {
  err=$(timeout 1 "$@" --trails=5 2>&1 >/dev/null)
  code=$?
  if [ "$code" != 2 ] || ! printf '%s\n' "$err" | grep -q -e '--trails'; then
    echo "FAIL: $* --trails=5 exited $code: $err"
    status=1
  fi
}

# The command names, from the synopsis `mlck` prints with no command.
commands=$("$mlck" 2>&1 | sed -n 's/^usage: mlck \([a-z]*\).*/\1/p')
if [ -z "$commands" ]; then
  echo "FAIL: mlck printed no command synopsis"
  exit 1
fi
for command in $commands; do check "$mlck" "$command"; done
for binary in "$@"; do check "$binary"; done
exit $status
