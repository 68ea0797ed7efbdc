#!/usr/bin/env bash
# Server smoke test: start a real bagcd daemon, replay the annotated
# transcripts from docs/PROTOCOL.md through the bagctl client (all four
# blocks, including the INSERT/DELETE streaming-mutation transcript with
# its "reused" suffixes and all-or-nothing failure line, plus the
# BEGIN/COMMIT transaction block), prove the replayer actually fails on
# divergence (a deliberately wrong transcript must exit nonzero with a
# line-numbered diff), round-trip a sealed-bag segment (bagctl
# --export-seg -> daemon restart -> LOADSEG, answers matching the
# text-loaded session), thrash two named collections through a 1 MiB
# memory budget (eviction + lazy segment reload must not change a byte
# of the answers), SIGKILL a daemon whose commits were journaled to a
# --wal-dir delta WAL and prove the restart replays them byte-identically
# (including a kill mid-commit-stream, whose torn tail must be truncated,
# and a fingerprint-mismatched WAL, which must refuse startup), then
# stop the daemon over the wire (SHUTDOWN) and assert a clean exit.
# This is the out-of-process
# complement to server_protocol_test — it exercises the actual
# executables, argument parsing, port-file handshake, and process
# shutdown path.
#
# Usage: scripts/server_smoke.sh [BUILD_DIR]   (default: build)
set -euo pipefail

BUILD_DIR=${1:-build}
REPO_ROOT=$(cd "$(dirname "$0")/.." && pwd)
BAGCD="$REPO_ROOT/$BUILD_DIR/bagcd"
BAGCTL="$REPO_ROOT/$BUILD_DIR/bagctl"
PORT_FILE=$(mktemp -u)
WORK_DIR=$(mktemp -d)

[ -x "$BAGCD" ] || { echo "server_smoke: $BAGCD not built" >&2; exit 1; }
[ -x "$BAGCTL" ] || { echo "server_smoke: $BAGCTL not built" >&2; exit 1; }

cleanup() {
  [ -n "${DAEMON_PID:-}" ] && kill "$DAEMON_PID" 2>/dev/null || true
  rm -f "$PORT_FILE"
  rm -rf "$WORK_DIR"
}
trap cleanup EXIT

DAEMON_LOG="$WORK_DIR/daemon_log.txt"

# Every daemon runs a 2-worker query pool, so the sanitizer legs cover
# the pool handoff (cyclic GLOBAL, KWISE, WITNESS) out of process too.
start_daemon() {  # args: extra bagcd flags
  rm -f "$PORT_FILE"
  "$BAGCD" --port 0 --port-file "$PORT_FILE" --threads 2 "$@" > "$DAEMON_LOG" 2>&1 &
  DAEMON_PID=$!
  for _ in $(seq 100); do
    [ -s "$PORT_FILE" ] && break
    sleep 0.1
  done
  [ -s "$PORT_FILE" ] || {
    echo "server_smoke: bagcd never wrote its port file" >&2
    cat "$DAEMON_LOG" >&2
    exit 1
  }
  PORT=$(cat "$PORT_FILE")
}

stop_daemon() {  # wire-initiated shutdown; daemon must exit 0 on its own
  printf 'SHUTDOWN\n' | "$BAGCTL" --port "$PORT" --script - > /dev/null
  if wait "$DAEMON_PID"; then
    DAEMON_PID=""
  else
    status=$?
    DAEMON_PID=""
    echo "server_smoke: bagcd exited with status $status" >&2
    exit 1
  fi
}

start_daemon

# The transcript assumes a fresh server (STATS counters from zero),
# which is exactly what we just started.
"$BAGCTL" --port "$PORT" --replay "$REPO_ROOT/docs/PROTOCOL.md"

# The replayer must FAIL on divergence — a conformance check that cannot
# fail checks nothing. A wrong expectation exits nonzero and prints a
# line-numbered diff.
BAD_TRANSCRIPT="$WORK_DIR/bad_transcript.txt"
cat > "$BAD_TRANSCRIPT" <<'EOF'
S: BAGCD 1 READY
C: HELLO
S: OK HELLO proto 999 frames 1
EOF
if "$BAGCTL" --port "$PORT" --replay "$BAD_TRANSCRIPT" > "$WORK_DIR/bad_out.txt" 2>&1; then
  echo "server_smoke: replay of a wrong transcript unexpectedly passed" >&2
  exit 1
fi
grep -q "transcript line 3: transcript mismatch" "$WORK_DIR/bad_out.txt" || {
  echo "server_smoke: replay mismatch lacks the line-numbered diff:" >&2
  cat "$WORK_DIR/bad_out.txt" >&2
  exit 1
}

# Segment round trip: export a collection as an mmap-able segment, take
# reference answers from a text-loaded session, restart the daemon warm
# from the segment (--preload-seg), and check a LOADSEG session agrees.
COLLECTION="$WORK_DIR/collection.bag"
SEGMENT="$WORK_DIR/collection.seg"
cat > "$COLLECTION" <<'EOF'
bag item store
apple downtown : 2
banana uptown : 1
cherry uptown : 5
end
bag store region
downtown north : 2
uptown north : 6
end
EOF
"$BAGCTL" --export-seg "$SEGMENT" --collection "$COLLECTION" --names sales,stores

QUERIES='SEAL\nTWOBAG sales stores\nPAIRWISE\nGLOBAL\nWITNESS sales stores\nQUIT\n'
printf "LOAD sales item store\napple downtown : 2\nbanana uptown : 1\ncherry uptown : 5\nEND\nLOAD stores store region\ndowntown north : 2\nuptown north : 6\nEND\n$QUERIES" \
  | "$BAGCTL" --port "$PORT" --script - | grep -v '^OK LOAD' > "$WORK_DIR/text_answers.txt"
stop_daemon

start_daemon --preload-seg "$SEGMENT"
printf "LOADSEG $SEGMENT\n$QUERIES" \
  | "$BAGCTL" --port "$PORT" --script - | grep -v '^OK LOADSEG' > "$WORK_DIR/seg_answers.txt"
if ! diff -u "$WORK_DIR/text_answers.txt" "$WORK_DIR/seg_answers.txt"; then
  echo "server_smoke: LOADSEG answers diverge from the text-loaded session" >&2
  exit 1
fi
grep -q '^OK CONSISTENT' "$WORK_DIR/seg_answers.txt" || {
  echo "server_smoke: segment session produced no verdict" >&2
  exit 1
}
stop_daemon

# Multi-collection eviction leg: two named tenants, each sealing past the
# entire --mem-budget-mb 1 budget, so every ATTACH+query evicts the other
# tenant and lazily reloads from its segment — and the answers must not
# differ by one byte from an unlimited-budget daemon's. A segment-loaded
# tenant is charged mostly for its dictionaries' hash index (the columns
# and values stay in the mapping), so 140,000 distinct items put each
# tenant at about 2 MiB.
make_big_collection() {  # args: out-path, salt (multiplicities differ per tenant)
  awk -v salt="$2" 'BEGIN {
    print "bag item store"
    for (i = 0; i < 140000; ++i)
      printf "item%d st%d : %d\n", i, i % 64, 1 + (i + salt) % 5
    print "end"
    print "bag store region"
    for (s = 0; s < 64; ++s) printf "st%d north : %d\n", s, 200 + salt
    print "end"
  }' > "$1"
}
make_big_collection "$WORK_DIR/tenant_a.bag" 0
make_big_collection "$WORK_DIR/tenant_b.bag" 1
"$BAGCTL" --export-seg "$WORK_DIR/tenant_a.seg" --collection "$WORK_DIR/tenant_a.bag" --names sales,stores
"$BAGCTL" --export-seg "$WORK_DIR/tenant_b.seg" --collection "$WORK_DIR/tenant_b.bag" --names sales,stores

TENANT_QUERIES='TWOBAG sales stores\nPAIRWISE\nKWISE 2\nQUIT\n'

# Reference answers from a daemon with no budget (nothing ever evicted).
start_daemon
for t in a b; do
  printf "LOADSEG $WORK_DIR/tenant_$t.seg\nSEAL\nQUIT\n" \
    | "$BAGCTL" --port "$PORT" --attach "tenant_$t" --script - > /dev/null
  printf "$TENANT_QUERIES" \
    | "$BAGCTL" --port "$PORT" --attach "tenant_$t" --script - > "$WORK_DIR/ref_$t.txt"
  grep -Eq '^OK (IN)?CONSISTENT' "$WORK_DIR/ref_$t.txt" || {
    echo "server_smoke: tenant_$t reference run produced no verdict" >&2
    exit 1
  }
done
stop_daemon

# The budgeted daemon: seal both tenants, then thrash queries across them.
start_daemon --mem-budget-mb 1
for t in a b; do
  printf "LOADSEG $WORK_DIR/tenant_$t.seg\nSEAL\nQUIT\n" \
    | "$BAGCTL" --port "$PORT" --attach "tenant_$t" --script - > /dev/null
done
for round in 1 2 3; do
  for t in a b; do
    printf "$TENANT_QUERIES" \
      | "$BAGCTL" --port "$PORT" --attach "tenant_$t" --script - > "$WORK_DIR/got_$t.txt"
    if ! diff -u "$WORK_DIR/ref_$t.txt" "$WORK_DIR/got_$t.txt"; then
      echo "server_smoke: tenant_$t round $round diverged after eviction/reload" >&2
      exit 1
    fi
  done
done
# The budget really was tight enough to thrash: the registry reloaded
# tenant_a from its segment at least once per round.
printf 'STATS tenant_a\nQUIT\n' | "$BAGCTL" --port "$PORT" --script - > "$WORK_DIR/stats_a.txt"
grep -Eq '^reloads [1-9]' "$WORK_DIR/stats_a.txt" || {
  echo "server_smoke: budget daemon never reloaded tenant_a (eviction leg inert):" >&2
  cat "$WORK_DIR/stats_a.txt" >&2
  exit 1
}

stop_daemon

# Crash-recovery leg: commits journaled to the delta WAL must survive a
# SIGKILL (no clean shutdown, no flush) and replay on restart, answers
# byte-identical to the uninterrupted daemon's.
WAL_DIR="$WORK_DIR/wal"
mkdir -p "$WAL_DIR"
WAL_QUERIES='TWOBAG 0 1\nPAIRWISE\nGLOBAL\nKWISE 2\nWITNESS 0 1 MINIMAL\nQUIT\n'
# ids follow the segment's interning order: item apple=0 banana=1
# cherry=2; store downtown=0 uptown=1; region north=0.
WAL_COMMITS='BEGIN\nINSERT sales item store\n2 0 : 3\nEND\nDELETE stores store region\n1 0 : 2\nEND\nCOMMIT\nINSERT sales item store\n0 0 : 1\nEND\nDELETE sales item store\n1 1 : 1\nEND\nSTATS\nQUIT\n'

start_daemon --preload-seg "$SEGMENT" --wal-dir "$WAL_DIR"
printf "LOADSEG $SEGMENT\nSEAL\n$WAL_COMMITS" \
  | "$BAGCTL" --port "$PORT" --script - > "$WORK_DIR/wal_commits.txt"
if grep -q '^ERR' "$WORK_DIR/wal_commits.txt"; then
  echo "server_smoke: WAL commit stream errored:" >&2
  cat "$WORK_DIR/wal_commits.txt" >&2
  exit 1
fi
grep -q '^OK COMMIT 2 rows 2 bags' "$WORK_DIR/wal_commits.txt" || {
  echo "server_smoke: multi-bag COMMIT was not published atomically:" >&2
  cat "$WORK_DIR/wal_commits.txt" >&2
  exit 1
}
grep -q '^wal_records 3' "$WORK_DIR/wal_commits.txt" || {
  echo "server_smoke: expected 3 WAL records after the commit stream:" >&2
  cat "$WORK_DIR/wal_commits.txt" >&2
  exit 1
}
# The uninterrupted daemon is the oracle: capture its answers, then
# SIGKILL it — no shutdown handler runs, only the WAL survives.
printf "$WAL_QUERIES" | "$BAGCTL" --port "$PORT" --script - > "$WORK_DIR/wal_ref.txt"
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""

start_daemon --preload-seg "$SEGMENT" --wal-dir "$WAL_DIR"
grep -q 'replayed 3 WAL generation' "$DAEMON_LOG" || {
  echo "server_smoke: restarted bagcd did not replay the WAL:" >&2
  cat "$DAEMON_LOG" >&2
  exit 1
}
printf "$WAL_QUERIES" | "$BAGCTL" --port "$PORT" --script - > "$WORK_DIR/wal_got.txt"
if ! diff -u "$WORK_DIR/wal_ref.txt" "$WORK_DIR/wal_got.txt"; then
  echo "server_smoke: recovered answers diverge from the uninterrupted daemon" >&2
  exit 1
fi

# Kill the daemon MID-stream this time: a torn final record is a crash
# artifact the recovery must truncate and tolerate, never refuse.
( printf "LOADSEG $SEGMENT\nSEAL\n"
  for _ in $(seq 50); do
    printf 'INSERT sales item store\n0 0 : 1\nEND\nDELETE sales item store\n0 0 : 1\nEND\n'
  done
  printf 'QUIT\n' ) \
  | "$BAGCTL" --port "$PORT" --script - > /dev/null 2>&1 &
STREAM_PID=$!
sleep 0.2
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""
wait "$STREAM_PID" 2>/dev/null || true

start_daemon --preload-seg "$SEGMENT" --wal-dir "$WAL_DIR"
printf "$WAL_QUERIES" | "$BAGCTL" --port "$PORT" --script - > "$WORK_DIR/wal_torn.txt"
grep -Eq '^OK (IN)?CONSISTENT' "$WORK_DIR/wal_torn.txt" || {
  echo "server_smoke: daemon did not serve after mid-stream crash recovery:" >&2
  cat "$DAEMON_LOG" >&2
  exit 1
}
stop_daemon

# A WAL written against one base segment must refuse to replay over a
# different one — the daemon exits with the documented error instead of
# silently folding deltas onto the wrong rows.
if "$BAGCD" --port 0 --port-file "$PORT_FILE" --threads 2 --preload-seg "$WORK_DIR/tenant_a.seg" \
    --wal-dir "$WAL_DIR" > "$WORK_DIR/wal_mismatch.txt" 2>&1; then
  echo "server_smoke: bagcd started despite a fingerprint-mismatched WAL" >&2
  exit 1
fi
grep -q 'WAL recovery failed' "$WORK_DIR/wal_mismatch.txt" || {
  echo "server_smoke: fingerprint mismatch lacks the documented error:" >&2
  cat "$WORK_DIR/wal_mismatch.txt" >&2
  exit 1
}
grep -q 'different base segment' "$WORK_DIR/wal_mismatch.txt" || {
  echo "server_smoke: fingerprint mismatch does not name the cause:" >&2
  cat "$WORK_DIR/wal_mismatch.txt" >&2
  exit 1
}

echo "server_smoke: OK (transcripts incl. mutation + transactions replayed, replay diff verified, segment round trip, eviction thrash, WAL crash recovery + fingerprint refusal, clean shutdowns)"
