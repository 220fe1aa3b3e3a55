#!/bin/sh
# Byte-identity gate on local CLI answers.
#
#   cli_golden.sh <mlck> <workdir>             print the transcript
#   cli_golden.sh <mlck> <workdir> <golden>    diff it against <golden>
#
# The transcript holds `mlck optimize --system=S [--law=L] --out=plan.json`,
# the plan file it wrote, and `mlck predict` on that plan, for every Table I
# system in {B, M, D1, D3, D5, D7, D9} under the exponential (no flag),
# Weibull and log-normal laws.
set -u
mlck=$1
work=$2
golden=${3:-}

case $mlck in /*) ;; *) mlck=$PWD/$mlck ;; esac
if [ -n "$golden" ]; then
  golden=$(cd "$(dirname "$golden")" && pwd)/$(basename "$golden") || exit 1
fi
mkdir -p "$work" || exit 1
cd "$work" || exit 1

transcript() {
  for system in B M D1 D3 D5 D7 D9; do
    for law in "" "weibull:shape=0.7" "lognormal:sigma=1.0"; do
      law_flag=${law:+--law=$law}
      rm -f plan.json
      echo "\$ mlck optimize --system=$system${law:+ --law=$law} --out=plan.json"
      "$mlck" optimize --system="$system" $law_flag --out=plan.json 2>&1
      echo "[exit $?]"
      echo "--- plan.json"
      cat plan.json
      echo "\$ mlck predict --system=$system --plan=plan.json${law:+ --law=$law}"
      "$mlck" predict --system="$system" --plan=plan.json $law_flag 2>&1
      echo "[exit $?]"
    done
  done
}

if [ -z "$golden" ]; then
  transcript
  exit 0
fi
transcript > transcript.txt
diff -u "$golden" transcript.txt
