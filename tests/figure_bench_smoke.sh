#!/bin/sh
# Smoke run of the figure programs that compute with eval/interest_analysis
# (Fig. 3, Fig. 7 and the interest-evolution walkthrough): each must exit 0
# and print its summary line. Then the flag surface of those three and of
# every further program given (the other paper benches and examples),
# which trains nothing: --help exits 0 and lists the flags, and a
# misspelt flag exits 2 with a hint naming the flag it resembles.
#
#   figure_bench_smoke.sh <bench_fig3_redundancy> <bench_fig7_case_study> \
#                         <interest_evolution> [program ...]
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

# check_flags <program>: the first flag --help lists, misspelt by an
# appended 'x', must be a usage error that suggests that flag.
check_flags() {
  name=$(basename "$1")
  help=$("$1" --help 2>&1)
  status=$?
  first=$(printf '%s\n' "$help" |
    sed -n 's/^  --\([a-z0-9_]*\) .*/\1/p' | head -n 1)
  if [ "$status" -ne 0 ] || [ -z "$first" ]; then
    echo "FAIL: $name --help exited $status or listed no flag"
    echo "$help"
    fail=1
    return
  fi
  out=$("$1" "--${first}x=1" 2>&1)
  status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: $name --${first}x exited $status, expected 2"
    echo "$out"
    fail=1
  elif ! printf '%s\n' "$out" | grep -qF -- "did you mean --$first?"; then
    echo "FAIL: $name --${first}x did not suggest --$first"
    echo "$out"
    fail=1
  else
    echo "ok: $name flags"
  fi
}

for program in "$@"; do
  check_flags "$program"
done
exit $fail
