#!/usr/bin/env bash
# Byte-identity of two builds: a change that means to leave every
# execution where it is (a refactor, a layout or speed change) must make
# the same reports, the same model-checker output and the same exit codes
# as the build it started from.
#
# Runs every ssps_run builtin at --seed 7 --nodes 12 in five variants
# (plain, --scramble, --timed, --threads 2, --threads 4), the natively
# timed builtins (geo-*, lossy-*, chaos-*) once more with --oracle, and
# three ssps_mc probes, under both builds. Every --out report and every
# ssps_mc stdout is cmp'd, and the exit codes must match. Not registered
# with CTest: it needs a second build (for example of the parent commit,
# checked out with `git archive` and built beside this one).
#
#   usage: parent_identity.sh <parent-build-dir> <change-build-dir>
set -u

parent=${1:?usage: parent_identity.sh <parent-build-dir> <change-build-dir>}
change=${2:?usage: parent_identity.sh <parent-build-dir> <change-build-dir>}
for build in "$parent" "$change"; do
  for tool in ssps_run ssps_mc; do
    if [ ! -x "$build/$tool" ]; then
      echo "FAILED: $build/$tool is missing"
      exit 1
    fi
  done
done
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
status=0
compared=0

scenarios=$("$change/ssps_run" --list) || {
  echo "FAILED: $change/ssps_run --list exited nonzero"
  exit 1
}
if [ -z "$scenarios" ]; then
  echo "FAILED: $change/ssps_run --list printed no scenarios"
  exit 1
fi
if [ "$scenarios" != "$("$parent/ssps_run" --list)" ]; then
  echo "MISMATCH: the builds list different builtins"
  status=1
fi

# compare <label> <args...>: runs ssps_run with the args plus --out under
# both builds; the reports and the exit codes must be identical.
compare() {
  local label=$1
  shift
  local a="$workdir/parent-$label.json" b="$workdir/change-$label.json"
  "$parent/ssps_run" "$@" --quiet --out "$a" >/dev/null 2>&1
  local code_a=$?
  "$change/ssps_run" "$@" --quiet --out "$b" >/dev/null 2>&1
  local code_b=$?
  compared=$((compared + 1))
  if [ "$code_a" != "$code_b" ]; then
    echo "EXIT MISMATCH: $label (parent $code_a, change $code_b)"
    status=1
  elif [ -e "$a" ] || [ -e "$b" ]; then
    if ! cmp -s "$a" "$b"; then
      echo "REPORT MISMATCH: $label"
      status=1
    fi
  fi
}

for scenario in $scenarios; do
  base=(--scenario "$scenario" --seed 7 --nodes 12)
  compare "$scenario-plain" "${base[@]}"
  compare "$scenario-scramble" "${base[@]}" --scramble
  compare "$scenario-timed" "${base[@]}" --timed
  compare "$scenario-threads2" "${base[@]}" --threads 2
  compare "$scenario-threads4" "${base[@]}" --threads 4
  case "$scenario" in
    geo-*|lossy-*|chaos-*) compare "$scenario-oracle" "${base[@]}" --oracle ;;
  esac
done

probe=0
for args in "--nodes 2 --junk 1 --seed 1" "--nodes 2 --junk 2 --seed 3" \
    "--nodes 3 --junk 1 --seed 2"; do
  probe=$((probe + 1))
  a="$workdir/parent-mc-$probe.txt"
  b="$workdir/change-mc-$probe.txt"
  # shellcheck disable=SC2086  # the probe arguments split on purpose
  "$parent/ssps_mc" $args >"$a" 2>&1
  code_a=$?
  # shellcheck disable=SC2086
  "$change/ssps_mc" $args >"$b" 2>&1
  code_b=$?
  compared=$((compared + 1))
  if [ "$code_a" != "$code_b" ]; then
    echo "EXIT MISMATCH: ssps_mc $args (parent $code_a, change $code_b)"
    status=1
  elif ! cmp -s "$a" "$b"; then
    echo "OUTPUT MISMATCH: ssps_mc $args"
    status=1
  fi
done

if [ "$status" = 0 ]; then
  echo "$compared/$compared runs identical (outputs and exit codes)"
fi
exit $status
