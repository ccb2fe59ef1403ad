#!/bin/sh
# Stand-in experiment binary for the tools/determinism_check.sh self-test.
# Every run prints and writes a line carrying its own process id, so no two
# runs agree and every mode of the driver must exit 1. It accepts the flags
# the driver passes, writes the --json and --trace-out files it is asked for
# and prints "wrote <path>" like the exp_* binaries. Invoked as
# "<stub> chrome <in> <out>" it stands in for past_stats: the output is valid
# trace-event JSON, so only the diff can fail the run.
run="run $$"
if [ "${1:-}" = chrome ]; then
  echo "{\"traceEvents\": [{\"ph\": \"X\", \"name\": \"$run\"}]}" > "$3"
  exit 0
fi
json=""
trace=""
while [ $# -gt 0 ]; do
  case "$1" in
    --json) json="$2"; shift ;;
    --trace-out) trace="$2"; shift ;;
  esac
  shift
done
echo "$run"
if [ -n "$json" ]; then
  echo "{\"run\": \"$run\"}" > "$json"
  echo "wrote $json"
fi
if [ -n "$trace" ]; then
  echo "$run" > "$trace"
fi
