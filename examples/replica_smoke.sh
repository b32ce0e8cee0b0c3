#!/usr/bin/env bash
# End-to-end smoke test for `herc replicate`: a leader and two streaming
# followers over TCP, mixed load on the leader, reads served (and writes
# refused) by the followers — then SIGKILL the leader, promote a follower
# with `herc promote`, lead from the promoted store, re-attach the other
# follower to the new leader, and prove every store audits clean and the
# survivors' reads match.
#
#   replica_smoke.sh <path-to-herc-binary> <scratch-dir>
set -eu

HERC="$1"
SCRATCH="$2"
LEADER_STORE="$SCRATCH/herc_replica_leader"
F1_STORE="$SCRATCH/herc_replica_f1"
F2_STORE="$SCRATCH/herc_replica_f2"
rm -rf "$LEADER_STORE" "$F1_STORE" "$F2_STORE" "$SCRATCH"/herc_replica_*.log \
  "$SCRATCH/herc_replica_f1_journal.before"

addr_from_log() {  # addr_from_log <logfile>
  local addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/^listening on //p' "$1" | head -n 1)
    [ -n "$addr" ] && break
    sleep 0.1
  done
  [ -n "$addr" ] || { echo "FAIL: no listener in $1" >&2; cat "$1" >&2; return 1; }
  echo "$addr"
}

"$HERC" serve "$LEADER_STORE" --listen 127.0.0.1:0 --schema full \
  >"$SCRATCH/herc_replica_leader.log" 2>&1 &
LEADER=$!
trap 'kill "$LEADER" 2>/dev/null || true; kill "$F1" 2>/dev/null || true; kill "$F2" 2>/dev/null || true' EXIT
ADDR=$(addr_from_log "$SCRATCH/herc_replica_leader.log")

"$HERC" serve "$F1_STORE" --replicate-from "$ADDR" --retry 50 \
  --listen 127.0.0.1:0 >"$SCRATCH/herc_replica_f1.log" 2>&1 &
F1=$!
"$HERC" serve "$F2_STORE" --replicate-from "$ADDR" --retry 50 \
  --listen 127.0.0.1:0 >"$SCRATCH/herc_replica_f2.log" 2>&1 &
F2=$!
F1ADDR=$(addr_from_log "$SCRATCH/herc_replica_f1.log")
F2ADDR=$(addr_from_log "$SCRATCH/herc_replica_f2.log")

# Mixed load on the leader: the Fig. 1 design, a flow built and run over
# the wire, the plan published, plus extra imports for the followers to
# stream.
SETUP="$SCRATCH/herc_replica_setup.hcl"
cat >"$SETUP" <<'EOF'
session user alice
import EditedNetlist inverter <<NETLIST
netlist inverter
input in
output out
nmos mn g=in d=out s=GND model=nch value=1
pmos mp g=in d=out s=VDD model=pch value=1
NETLIST
import DeviceModels standard <<MODELS
models standard
model nch type=nmos resistance=10 threshold=0.6
model pch type=pmos resistance=20 threshold=0.6
MODELS
import Stimuli toggle <<WAVES
stimuli toggle
wave in 0:0 2000:1 4000:0
WAVES
import Simulator switchsim ""
flow new sim goal Performance
flow expand sim 0
flow expand sim 2
flow bind sim 1 i3
flow bind sim 3 i2
flow bind sim 4 i1
flow bind sim 5 i0
run sim
flow save-plan sim
EOF
"$HERC" connect "$ADDR" --retry 30 "$SETUP" || {
  echo "FAIL: mixed load failed on the leader"; exit 1;
}

# Both followers catch up: the streamed import becomes readable.
for F in "$F1ADDR" "$F2ADDR"; do
  CAUGHT=0
  for _ in $(seq 1 100); do
    if "$HERC" connect "$F" -e "browse Stimuli" 2>/dev/null | grep -q toggle; then
      CAUGHT=1; break
    fi
    sleep 0.1
  done
  [ "$CAUGHT" = 1 ] || { echo "FAIL: follower $F never caught up"; exit 1; }
done

# The leader sees both followers; a follower refuses a write.
"$HERC" replicas "$ADDR" | grep -q "followers: 2" || {
  echo "FAIL: leader does not report 2 followers";
  "$HERC" replicas "$ADDR"; exit 1;
}
if "$HERC" connect "$F1ADDR" -e 'import Stimuli nope ""' 2>/dev/null; then
  echo "FAIL: a read-only follower accepted a write"; exit 1;
fi

# The moment of truth: the leader dies without ceremony.
kill -KILL "$LEADER"
wait "$LEADER" 2>/dev/null || true

# Stop follower 1 and promote its store: full recovery, epoch bump (the
# fence), marker removed.  fsck must pass before it leads.
kill -TERM "$F1" && wait "$F1" || {
  echo "FAIL: follower 1 exited nonzero"; cat "$SCRATCH/herc_replica_f1.log"; exit 1;
}
# Until then a leader refuses the follower's store (`herc resume` would
# sweep the leader's live runs and journal there) and leaves it unchanged.
cp "$F1_STORE/journal.wal" "$SCRATCH/herc_replica_f1_journal.before"
if "$HERC" resume "$F1_STORE" >"$SCRATCH/herc_replica_resume.log" 2>&1 ||
   ! grep -q "replica store" "$SCRATCH/herc_replica_resume.log" ||
   ! cmp -s "$F1_STORE/journal.wal" "$SCRATCH/herc_replica_f1_journal.before"; then
  echo "FAIL: herc resume did not refuse the replica store untouched"
  cat "$SCRATCH/herc_replica_resume.log"; exit 1
fi
"$HERC" promote "$F1_STORE" || { echo "FAIL: promote failed"; exit 1; }
"$HERC" fsck "$F1_STORE" || { echo "FAIL: promoted store does not audit clean"; exit 1; }

"$HERC" serve "$F1_STORE" --listen 127.0.0.1:0 \
  >"$SCRATCH/herc_replica_newleader.log" 2>&1 &
LEADER=$!
NEWADDR=$(addr_from_log "$SCRATCH/herc_replica_newleader.log")

# Life goes on under the new epoch: a post-failover write on the new
# leader...
"$HERC" connect "$NEWADDR" --retry 30 \
  -e "session user alice" \
  -e 'import Stimuli after_failover <<W
stimuli af
wave in 0:0 100:1 200:0
W' || { echo "FAIL: the promoted leader refused a write"; exit 1; }

# ...and follower 2, re-attached to the new leader, streams it: its old
# store (bootstrapped under the dead leader's epoch) resyncs across the
# promotion checkpoint.
kill -TERM "$F2" && wait "$F2" || {
  echo "FAIL: follower 2 exited nonzero"; cat "$SCRATCH/herc_replica_f2.log"; exit 1;
}
"$HERC" serve "$F2_STORE" --replicate-from "$NEWADDR" --retry 50 \
  --listen 127.0.0.1:0 >"$SCRATCH/herc_replica_f2b.log" 2>&1 &
F2=$!
F2ADDR=$(addr_from_log "$SCRATCH/herc_replica_f2b.log")
CAUGHT=0
for _ in $(seq 1 100); do
  if "$HERC" connect "$F2ADDR" -e "browse Stimuli" 2>/dev/null \
      | grep -q after_failover; then
    CAUGHT=1; break
  fi
  sleep 0.1
done
[ "$CAUGHT" = 1 ] || {
  echo "FAIL: follower 2 never saw the post-failover write";
  cat "$SCRATCH/herc_replica_f2b.log"; exit 1;
}

# Reads match: the new leader and the re-attached follower agree on the
# full survivor surface (the promoted store carries everything the dead
# leader acked).  The filtered/paginated forms go through each side's own
# secondary indexes, so agreement also proves the follower's index kept up
# with the applied stream.
for Q in "browse Stimuli" "browse EditedNetlist" "entities" "plans" \
         "browse Stimuli keyword=failover limit=5" \
         "browse Stimuli limit=2"; do
  L=$("$HERC" connect "$NEWADDR" -e "$Q")
  R=$("$HERC" connect "$F2ADDR" -e "$Q")
  [ "$L" = "$R" ] || {
    echo "FAIL: '$Q' differs between the new leader and follower 2";
    echo "--- leader"; echo "$L"; echo "--- follower"; echo "$R"; exit 1;
  }
done
echo "$L" >/dev/null

# Graceful wind-down; every surviving store audits clean.
kill -TERM "$F2" && wait "$F2" || true
kill -TERM "$LEADER" && wait "$LEADER" || {
  echo "FAIL: the promoted leader exited nonzero"; exit 1;
}
trap - EXIT
"$HERC" fsck "$F1_STORE" || { echo "FAIL: the promoted store regressed"; exit 1; }
"$HERC" fsck "$F2_STORE" || { echo "FAIL: follower 2's replica store is dirty"; exit 1; }

echo "replica smoke: OK"
