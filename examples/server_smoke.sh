#!/usr/bin/env bash
# End-to-end smoke test for `herc serve`: build and run a flow over the
# wire, SIGTERM the server mid-run, then prove the store came out clean
# (fsck exit 0) and resumable (herc resume finishes the interrupted work).
#
#   server_smoke.sh <path-to-herc-binary> <scratch-dir>
set -eu

HERC="$1"
SCRATCH="$2"
STORE="$SCRATCH/herc_smoke_store"
LOG="$SCRATCH/herc_smoke_serve.log"
rm -rf "$STORE" "$LOG" "$SCRATCH/herc_smoke_junk" "$SCRATCH/herc_smoke_junk_swarm"

"$HERC" serve "$STORE" --listen 127.0.0.1:0 --schema full >"$LOG" 2>&1 &
SERVER=$!
trap 'kill "$SERVER" 2>/dev/null || true' EXIT

ADDR=""
for _ in $(seq 1 100); do
  ADDR=$(sed -n 's/^listening on //p' "$LOG" | head -n 1)
  [ -n "$ADDR" ] && break
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "FAIL: server never listened"; cat "$LOG"; exit 1; }

# Connection 1: import the design data, build the Fig. 1 simulate flow in
# this connection's workspace, run it once, and publish it as a plan so a
# later connection can rebuild it.  Also exercises the per-connection user
# and the stats counters.
SETUP="$SCRATCH/herc_smoke_setup.hcl"
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
browse Performance
stats
EOF
"$HERC" connect "$ADDR" --retry 30 "$SETUP" || {
  echo "FAIL: setup script failed over the wire"; cat "$LOG"; exit 1;
}

# One script, two readers: `hercules_shell` runs it locally and `herc
# connect` ships it over the wire.  Both must take the same payload from a
# heredoc whose terminator is spaced off the `<<`, then run the next line.
HEREDOC="$SCRATCH/herc_smoke_heredoc.hcl"
printf 'import Stimuli spaced << END\nstimuli spaced\nwave in 0:0 500:1\nEND\necho after-heredoc\n' >"$HEREDOC"
{ cat "$HEREDOC"; echo "payload i0"; } >"$HEREDOC.local"
LOCAL=$("$(dirname "$HERC")/hercules_shell" "$HEREDOC.local") || LOCAL=""
REMOTE=$("$HERC" connect "$ADDR" "$HEREDOC") || REMOTE=""
ID=$(echo "$REMOTE" | sed -n 's/^imported \(i[0-9]*\) .*/\1/p')
if ! echo "$REMOTE" | grep -qx after-heredoc || [ -z "$ID" ] ||
   [ "$(echo "$LOCAL" | sed '1,/^after-heredoc$/d')" != "$("$HERC" connect "$ADDR" -e "payload $ID")" ]; then
  echo "FAIL: a heredoc script reads differently locally and over the wire"
  echo "local:"; echo "$LOCAL"; echo "remote:"; echo "$REMOTE"; exit 1
fi

# Connection 2 (background): rebuild the flow from the published plan and
# run it with an artificial per-task latency, so the SIGTERM below lands
# while the run is in flight.
SLOW="$SCRATCH/herc_smoke_slow.hcl"
cat >"$SLOW" <<'EOF'
flow new sim2 plan goal:Performance
flow bind sim2 1 i3
flow bind sim2 3 i2
flow bind sim2 4 i1
flow bind sim2 5 i0
run sim2 parallel latency=1000
EOF
"$HERC" connect "$ADDR" "$SLOW" >"$SCRATCH/herc_smoke_slow.log" 2>&1 &
CLIENT=$!

sleep 0.6  # land inside the first 1000ms task, well before the second
kill -TERM "$SERVER"
wait "$SERVER" || { echo "FAIL: serve exited nonzero after SIGTERM"; cat "$LOG"; exit 1; }
trap - EXIT
wait "$CLIENT" || true  # its run was cancelled; a nonzero exit is expected

# The sealed store must audit clean — interrupted-but-sealed runs are
# resumable notes, not warnings.
"$HERC" fsck "$STORE" || { echo "FAIL: fsck found problems after graceful shutdown"; exit 1; }

# And the interrupted run must actually finish — the SIGTERM above must
# have landed mid-run, so resume has real work to do.
RESUME_OUT=$("$HERC" resume "$STORE") || { echo "FAIL: resume could not finish the interrupted run"; exit 1; }
echo "$RESUME_OUT"
echo "$RESUME_OUT" | grep -q "resumed run #" || {
  echo "FAIL: no run was interrupted — the SIGTERM landed outside the run";
  cat "$SCRATCH/herc_smoke_slow.log"; exit 1;
}

# After the resume the store is quiescent: fsck stays clean.
"$HERC" fsck "$STORE" >/dev/null || { echo "FAIL: fsck regressed after resume"; exit 1; }

# Numeric flags take whole numbers: trailing junk is a usage error (exit
# 2) before anything runs, never a shorter number.
expect_usage_error() {  # expect_usage_error <herc argument>...
  local out rc=0
  out=$("$HERC" "$@" 2>&1) || rc=$?
  [ "$rc" = 2 ] && echo "$out" | grep -q "whole number" && return
  echo "FAIL: 'herc $*' exited $rc instead of refusing its flag"; echo "$out"
  exit 1
}
expect_usage_error serve "$SCRATCH/herc_smoke_junk" \
  --replicate-from 127.0.0.1:1 --retry 3x
expect_usage_error swarm "$SCRATCH/herc_smoke_junk_swarm" \
  --clients 2x --rounds 1 --seed 1

echo "server smoke: OK"
