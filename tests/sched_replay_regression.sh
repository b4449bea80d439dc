#!/bin/sh
# Cross-attribution schedule-replay regression (PR 7).
#
# Replays the committed schedule tests/corpus/is_unpacked_w8_cross_attribution.sched
# against `depprof run is --slots 337311 --parallel --workers 8` and
# requires the dependence map to match the serial run byte for byte.  The
# schedule was recorded with the packed chunk encoding switched off; raw-event
# staging is now the only chunk format, so the replayed run is the same.
#
# Before the ChunkPool was sealed, this exact replay failed every run: the
# schedule starves the workers so the producer's grow-on-demand pool runs
# `new Chunk()` mid-profile, which shifts the target's own heap layout until
# IS's mid-run `cursor` allocation aliases `sorted` in the modulo signature
# (see the header of the .sched file for the measured deltas).  With the
# sealed pool the layout is schedule-independent and the replay is clean.
#
# The failure is a heap-layout property, so the demonstration pins every
# input the layout depends on:
#   - ASLR off via setarch -R when available (plain fallback; the sealed-pool
#     profiler passes either way),
#   - a scrubbed environment (env -i + a fixed variable set) because the size
#     of the environment block shifts the target heap by tens of thousands of
#     words — enough to move the cursor allocation out of (or into) sorted's
#     aliasing window,
#   - fixed-length argv: the binary and the schedule are copied to constant
#     paths under /tmp/dp7regress before running, since argv strings sit in
#     the same stack region as the environment.
# The slot count 337311 was solved against deltas measured under exactly this
# shape: pre-fix scheduled delta 2708488 = 8*337311 + 10000 lands mid-window.
# The deltas drift by a few hundred words as the profiler's own code and
# allocations change; with an x86-64 glibc build of the current tree the
# serial run reads 37408 and the scheduled 8-worker run 37148, both clear of
# sorted's 20000-word window.  The printed `layout-diag` lines on failure
# show where they landed.  The layout is glibc's: an allocator replacement
# such as AddressSanitizer's moves the arrays by ~4e11 words, so the test
# is not registered in such builds (tests/CMakeLists.txt).
set -e

DEPPROF="$1"
SCHED="$2"
[ -x "$DEPPROF" ] || { echo "usage: $0 <depprof> <schedule-file>" >&2; exit 2; }
[ -f "$SCHED" ] || { echo "missing schedule file: $SCHED" >&2; exit 2; }

WRAP=""
if command -v setarch >/dev/null 2>&1; then
  if setarch "$(uname -m)" -R true 2>/dev/null; then
    WRAP="$(command -v setarch) $(uname -m) -R"
  fi
fi

# Fixed path, not mktemp: the path length is part of the pinned layout.
TMP=/tmp/dp7regress
rm -rf "$TMP"
mkdir -p "$TMP"
trap 'rm -rf "$TMP"' EXIT
cp "$DEPPROF" "$TMP/depprof"
cp "$SCHED" "$TMP/s.sched"

env -i DEPPROF_LAYOUT_DIAG=1 \
  $WRAP "$TMP/depprof" run is --slots 337311 --format csv \
  > "$TMP/serial.csv" 2> "$TMP/serial.err"

env -i DEPPROF_LAYOUT_DIAG=1 DEPPROF_SCHED=1 DEPPROF_SCHED_SEED=10 \
  DEPPROF_SCHED_ALGO=pct DEPPROF_SCHED_REPLAY="$TMP/s.sched" \
  $WRAP "$TMP/depprof" run is --slots 337311 --parallel --workers 8 \
  --format csv > "$TMP/parallel.csv" 2> "$TMP/parallel.err"

if ! cmp -s "$TMP/serial.csv" "$TMP/parallel.csv"; then
  echo "FAIL: scheduled parallel run diverged from the serial map" >&2
  echo "--- layout diagnostics:" >&2
  grep -h layout-diag "$TMP/serial.err" "$TMP/parallel.err" >&2 || true
  echo "--- serial vs parallel diff (cross-attribution regression):" >&2
  diff "$TMP/serial.csv" "$TMP/parallel.csv" >&2 || true
  exit 1
fi
echo "ok: schedule replay matches the serial map"
