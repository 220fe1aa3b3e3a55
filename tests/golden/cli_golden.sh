#!/bin/sh
# Byte-identity gate on local CLI answers.
#
#   cli_golden.sh <mlck> <workdir> <section>             print the transcript
#   cli_golden.sh <mlck> <workdir> <section> <golden>    diff it against <golden>
#
# Sections:
#   7x3             `mlck optimize --system=S [--law=L] --out=plan.json`, the
#                   plan file it wrote, and `mlck predict` on that plan, for
#                   every Table I system in {B, M, D1, D3, D5, D7, D9} under
#                   the exponential (no flag), Weibull and log-normal laws.
#   scenario_trace  `mlck scenario` on every examples/*.json spec (one of
#                   them again with the --metrics/--openmetrics exports, which
#                   pins the order of the notice lines), then `mlck trace`
#                   as a four-trial audit and as a single-trial table.
#   select          `mlck compare` on B and D3, `mlck simulate` on D3 (Dauwe
#                   plan, Moody plan, adaptive wrapper, and an interval
#                   schedule the script writes into <workdir>) and
#                   `mlck sensitivity` on D3 (Dauwe and Di plans): every
#                   command that picks a plan by technique name, or takes a
#                   schedule, and then simulates or sweeps it, plus
#                   `mlck energy` and `mlck predict --model=moody` on a plan
#                   the script writes. Then the same commands plus
#                   `mlck trace` under --law=weibull:shape=0.5, and
#                   `mlck energy --law`.
set -u
mlck=$1
work=$2
section=$3
golden=${4:-}

examples=$(cd "$(dirname "$0")/../../examples" && pwd) || exit 1
case $mlck in /*) ;; *) mlck=$PWD/$mlck ;; esac
if [ -n "$golden" ]; then
  golden=$(cd "$(dirname "$golden")" && pwd)/$(basename "$golden") || exit 1
fi
mkdir -p "$work" || exit 1
cd "$work" || exit 1

transcript_7x3() {
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

# Prints "$ mlck <args>", runs it, and prints its exit code.
run() {
  echo "\$ mlck $*"
  "$mlck" "$@" 2>&1
  echo "[exit $?]"
}

transcript_scenario_trace() {
  for spec in "$examples"/*.json; do
    run scenario --spec="$spec" --trials=50 |
      sed "s|$examples/|examples/|"
  done
  rm -f m.json m.txt
  run scenario --spec="$examples/scenario_b_weibull.json" --trials=50 \
      --metrics=m.json --openmetrics=m.txt | sed "s|$examples/|examples/|"
  run trace --system=B --trials=4 --audit
  run trace --system=D3
}

transcript_select() {
  for system in B D3; do
    run compare --system=$system --trials=20
  done
  run simulate --system=D3 --trials=50
  run simulate --system=D3 --trials=50 --technique=moody
  run simulate --system=D3 --trials=50 --adaptive
  echo '{"levels": [0, 1], "periods": [2.0, 7.5]}' > schedule.json
  run simulate --system=D3 --trials=50 --intervals=schedule.json
  run sensitivity --system=D3
  run sensitivity --system=D3 --technique=di
  run energy --system=D3
  echo '{"levels": [0, 1], "counts": [3], "tau0": 1.9221704227164327}' \
    > plan.json
  run predict --system=D3 --plan=plan.json --model=moody
  law=--law=weibull:shape=0.5
  run compare --system=D3 --trials=20 $law
  run simulate --system=D3 --trials=50 $law
  run simulate --system=D3 --trials=50 --technique=moody $law
  run simulate --system=D3 --trials=50 --adaptive $law
  run simulate --system=D3 --trials=50 --intervals=schedule.json $law
  run sensitivity --system=D3 $law
  run trace --system=D3 --max-events=12 $law
  run trace --system=B --trials=4 --audit --max-events=12 $law
  run energy --system=D3 $law
}

case $section in
  7x3|scenario_trace|select) ;;
  *) echo "unknown section: $section (use 7x3|scenario_trace|select)" >&2
     exit 2 ;;
esac

if [ -z "$golden" ]; then
  "transcript_$section"
  exit 0
fi
"transcript_$section" > "transcript_$section.txt"
diff -u "$golden" "transcript_$section.txt"
