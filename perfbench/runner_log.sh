#!/usr/bin/env bash
# Child-side run counter for the traced mode: campaignd's --runner points
# here. Appends one line per run-one to $PERFBENCH_RUNNER_LOG —
#   <pid> <start epoch s> <end epoch s> <exit code> <job spec path>
# — around the real runner, $PERFBENCH_REAL_RUNNER, and passes its exit
# code through. Short appends are atomic, so concurrent lanes never mix lines.
start=$EPOCHREALTIME
"$PERFBENCH_REAL_RUNNER" "$@"
rc=$?
printf '%s %s %s %s %s\n' "$$" "$start" "$EPOCHREALTIME" "$rc" "$2" >> "$PERFBENCH_RUNNER_LOG"
exit "$rc"
