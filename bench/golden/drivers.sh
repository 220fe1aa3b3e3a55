#!/bin/sh
# Byte-identity gate on the figure and ablation drivers' reports.
#
#   drivers.sh <bindir>             print the transcript
#   drivers.sh <bindir> <golden>    diff it against <golden>
#
# Runs fig2, fig3, fig5 and every ablation at --trials=20 --threads=2 and
# records stdout (the report) and the exit code; stderr carries progress
# lines and is dropped. fig4 and fig6 run the same code path as fig5 at
# several times the cost, so they are left out.
set -u
bindir=$1
golden=${2:-}

transcript() {
  for driver in fig2_technique_comparison fig3_time_breakdown \
      fig5_short_application ablation_adaptive_horizon \
      ablation_energy_objective ablation_failed_events \
      ablation_failure_distribution ablation_interval_vs_pattern \
      ablation_level_skipping ablation_restart_semantics; do
    echo "\$ $driver --trials=20 --threads=2"
    "$bindir/$driver" --trials=20 --threads=2 2>/dev/null
    echo "[exit $?]"
  done
}

if [ -z "$golden" ]; then
  transcript
  exit 0
fi
transcript | diff -u "$golden" -
