#!/usr/bin/env bash
# Runs the same fault scenario twice with the same seed and asserts the two
# causal traces are byte-identical (trace_diff.py reports the first divergent
# event otherwise) and the two summary lines (the tool's stdout: every
# ScenarioResult field but the trace) match. Registered as the
# `fault_trace_determinism` ctest.
#
# With a second tool the two runs come from two builds instead (run A from
# <fault_scenario_tool>, run B from [tool_b]): a refactor that must keep
# behaviour checks trace equivalence against the parent commit's build in
# one command.
#
# usage: trace_determinism_check.sh <fault_scenario_tool> <trace_diff.py> <workdir> [tool_b]
#
#   ITDOS_TRACE_SCENARIOS  space-separated scenario names, or `all` for every
#                          scenario `<fault_scenario_tool> list` prints
#                          (default: expel_rekey_e2e partition_primary drop_storm)
#   ITDOS_TRACE_SEED       seed for every run (default: 4242)
set -euo pipefail

TOOL="${1:?path to fault_scenario_tool}"
DIFF="${2:?path to trace_diff.py}"
WORKDIR="${3:?scratch directory for trace files}"
TOOL_B="${4:-$TOOL}"

SCENARIOS="${ITDOS_TRACE_SCENARIOS:-expel_rekey_e2e partition_primary drop_storm}"
if [ "$SCENARIOS" = "all" ]; then
  SCENARIOS="$("$TOOL" list)"
fi
SEED="${ITDOS_TRACE_SEED:-4242}"

mkdir -p "$WORKDIR"

status=0
for scenario in $SCENARIOS; do
  a="$WORKDIR/${scenario}_a.jsonl"
  b="$WORKDIR/${scenario}_b.jsonl"
  summary_a="$("$TOOL" run "$scenario" "$SEED" "$a")"
  summary_b="$("$TOOL_B" run "$scenario" "$SEED" "$b")"
  if ! python3 "$DIFF" "$a" "$b"; then
    echo "determinism FAILED: $scenario seed=$SEED" >&2
    status=1
  elif [ "$summary_a" != "$summary_b" ]; then
    echo "determinism FAILED (summary): $scenario seed=$SEED" >&2
    echo "  a: $summary_a" >&2
    echo "  b: $summary_b" >&2
    status=1
  else
    echo "determinism OK: $scenario seed=$SEED"
  fi
done
exit $status
