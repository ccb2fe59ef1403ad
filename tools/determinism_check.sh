#!/bin/sh
# Rerun-and-diff determinism gate. Runs a binary once per argument cell and
# requires the chosen artifacts to be byte-identical across every cell. The
# mode picks the cells and the artifacts:
#
#   rerun    two identical runs; the --json document. The runtime complement
#            of past_lint's nondeterminism rule: the seeded simulation
#            actually replays.
#   threads  --threads 1 and 4; stdout and --json. The TrialRunner runs
#            trials out of order but commits them in trial-index order.
#   wheel    --wheel-granularity {1,64} x --threads {1,4}; stdout and --json.
#            Timer-wheel buckets may coalesce timers but never reorder them.
#   serving  exp_serving --check at --shards {1,4} x --threads {1,4}; stdout,
#            a digest of the durable state, which must depend on the applied
#            operations alone.
#   trace    --threads 1 and 4 with --trace-out; stdout, --json, the span
#            dump and its past_stats Chrome conversion, which must also be
#            valid trace-event JSON with at least one complete event.
#
# Every run gets --smoke. Artifacts go to the same paths in every cell and
# are renamed per cell afterwards; "wrote <path>" lines are dropped from
# stdout, so it is compared on simulation-derived bytes only. Exits 1 when
# any artifact differs, 2 on a usage error.
#
# usage: determinism_check.sh <mode> <binary> <out-dir> <tag> [<past_stats>]
set -eu
if [ $# -lt 4 ]; then
  echo "usage: $0 <mode> <binary> <out-dir> <tag> [<past_stats>]" >&2
  exit 2
fi
mode="$1"
exe="$2"
stats="${5:-}"
base="$3/DET_${mode}_$4"

case "$mode" in
  rerun) artifacts="json" ;;
  threads | wheel) artifacts="txt json" ;;
  serving) artifacts="txt" ;;
  trace) artifacts="txt json trace chrome" ;;
  *)
    echo "determinism_check: unknown mode '$mode'" >&2
    exit 2
    ;;
esac
if [ "$mode" = trace ] && [ -z "$stats" ]; then
  echo "determinism_check: trace mode needs the past_stats binary" >&2
  exit 2
fi

path() {  # path <artifact> <cell>: where a cell's artifact is kept
  case "$1" in
    txt) echo "${base}$2.txt" ;;
    json) echo "${base}$2.json" ;;
    trace) echo "${base}$2_trace.json" ;;
    chrome) echo "${base}$2_chrome.json" ;;
  esac
}

has() {  # has <artifact>: whether this mode compares it
  case " $artifacts " in *" $1 "*) return 0 ;; esac
  return 1
}

ref=""
cells=""
ok=0
cell() {  # cell <name> <args...>: one run, compared against the first
  name="_$1"
  shift
  set -- --smoke "$@"
  if has json; then set -- "$@" --json "$(path json "")"; fi
  if has trace; then set -- "$@" --trace-out "$(path trace "")"; fi
  if has txt; then
    "$exe" "$@" > "$(path txt "").raw"
    sed '/^wrote /d' "$(path txt "").raw" > "$(path txt "")"
    rm -f "$(path txt "").raw"
  else
    "$exe" "$@" > /dev/null
  fi
  if has chrome; then
    "$stats" chrome "$(path trace "")" "$(path chrome "")" > /dev/null
  fi
  for a in $artifacts; do
    mv "$(path "$a" "")" "$(path "$a" "$name")"
  done
  cells="$cells ${name#_}"
  if [ -z "$ref" ]; then
    ref="$name"
    return
  fi
  for a in $artifacts; do
    if ! cmp -s "$(path "$a" "$ref")" "$(path "$a" "$name")"; then
      echo "determinism_check: $exe $a differs between ${ref#_} and ${name#_}" >&2
      diff "$(path "$a" "$ref")" "$(path "$a" "$name")" | head -20 >&2 || true
      ok=1
    fi
  done
}

case "$mode" in
  rerun)
    cell a
    cell b
    ;;
  threads | trace)
    cell t1 --threads 1
    cell t4 --threads 4
    ;;
  wheel)
    for gran in 1 64; do
      for threads in 1 4; do
        cell "g${gran}_t${threads}" --threads "$threads" \
          --wheel-granularity "$gran"
      done
    done
    ;;
  serving)
    for shards in 1 4; do
      for threads in 1 4; do
        cell "s${shards}_t${threads}" --check --shards "$shards" \
          --threads "$threads"
      done
    done
    ;;
esac

if has chrome; then
  chrome="$(path chrome "$ref")"
  grep -q '"traceEvents"' "$chrome" || {
    echo "determinism_check: chrome output lacks traceEvents" >&2
    ok=1
  }
  grep -q '"ph": "X"' "$chrome" || {
    echo "determinism_check: chrome output has no complete events" >&2
    ok=1
  }
fi

[ "$ok" -eq 0 ] || exit 1
echo "determinism_check: $exe ($mode) $artifacts byte-identical across cells$cells"
