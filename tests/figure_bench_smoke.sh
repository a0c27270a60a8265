#!/bin/sh
# Smoke run of the figure programs that compute with eval/interest_analysis
# (Fig. 3, Fig. 7 and the interest-evolution walkthrough): each must exit 0
# and print its summary line.
#
#   figure_bench_smoke.sh <bench_fig3_redundancy> <bench_fig7_case_study> \
#                         <interest_evolution>
set -u
fail=0

# check <name> <expected summary text> <command...>
check() {
  name=$1
  want=$2
  shift 2
  out=$("$@" 2>&1)
  status=$?
  if [ "$status" -ne 0 ]; then
    echo "FAIL: $name exited $status"
    echo "$out"
    fail=1
  elif ! printf '%s\n' "$out" | grep -qF -- "$want"; then
    echo "FAIL: $name printed no '$want'"
    echo "$out"
    fail=1
  else
    echo "ok: $name"
  fi
}

check bench_fig3_redundancy "new interests created without trimming:" \
  "$1" --scale=0.15
check bench_fig7_case_study "final-span test targets best served" \
  "$2" --scale=0.05
check interest_evolution "total expansion across all users:" "$3"
exit $fail
