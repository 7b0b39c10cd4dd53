#!/usr/bin/env bash
# Campaign determinism smoke: run the same campaign on 1 and 2 worker
# threads and require byte-identical JSON + CSV artifacts.
#
#   scripts/determinism_smoke.sh <axis> [<axis> ...]
#
# Axes (each maps to a fixed campaign flag set; add new axes here, not
# as copy-pasted CI steps):
#   core            protocols × channels × failures × churn
#   mobility        random-waypoint and Gauss-Markov motion
#   loss            lossy channels × repair × transient outages
#   mobility-audit  long-horizon motion with dirty-scoped invariant
#                   auditing on every maintenance epoch
#   server-reactor  scripted session through a live reactor daemon over
#                   its JSON frames, byte-identical to the same script
#                   applied library-direct
#   resume          crash a journaled campaign at a fixed injected point,
#                   resume from the journal, and require the resumed
#                   artifacts byte-identical to an uninterrupted run
#   scale           10k-node density-scaled broadcasts (CFF, DFO, the
#                   reliable flood, and CFF on 3 channels) with
#                   cell-sharded parallel delivery: each full traced
#                   event stream on 1 thread must be byte-for-byte
#                   identical to 2 threads (and to a different shard-cell
#                   count)
#   knowledge       dirty-scoped snapshot patching: a churn-heavy traced
#                   session stream and a mobile campaign must be
#                   byte-identical between the patch path and a forced
#                   full-rebuild path (DSNET_KNOWLEDGE_PATCH=off), and
#                   across 1 vs 2 worker threads; cff1/rcff broadcasts
#                   between the mutations drive the on-demand flood part
#                   and its patches across multi-version gaps
#
# Artifacts are left in the working directory as t<axis><threads>.json /
# .csv (tserver_*.stream for the server-reactor axis) so CI can upload
# them on failure.
set -euo pipefail

if [ "$#" -lt 1 ]; then
    echo "usage: $0 <core|mobility|loss|mobility-audit|server-reactor|resume|scale|knowledge> [...]" >&2
    exit 2
fi

DSNET=(cargo run --release -p dsnet-server --bin dsnet --)

axis_flags() {
    case "$1" in
        core)
            # bb2@3+6 darkens two backbone nodes for rounds 3-8, so CFF's
            # wake calendar meets an outage and a revival as well as the
            # permanent kill of bb1@1.
            echo "--ns 30,40 --reps 2 --protocols cff,dfo --channels 1,2 \
                  --failures none,bb1@1,bb2@3+6 --churn none,j2l1"
            ;;
        mobility)
            echo "--ns 30 --reps 2 --protocols cff,dfo \
                  --mobility none,rwp0.05x10p2,gm0.04x10"
            ;;
        loss)
            echo "--ns 30 --reps 2 --protocols cff1,rcff --retries 3 \
                  --loss none,p0.1 --repair off,on --failures none,bb1@1+5,bb1@1"
            ;;
        mobility-audit)
            # Long motion horizons so the per-epoch maintenance loop (and
            # its dirty-scoped DirtyAudit, on by default) dominates the
            # run. Identical artifacts across thread counts prove the
            # audit-on epoch loop — EpochRecord counters included — is
            # deterministic.
            echo "--ns 40,60 --reps 2 --protocols cff \
                  --mobility rwp0.08x40p1,gm0.05x40"
            ;;
        *)
            echo "unknown axis: $1 (want core, mobility, loss, mobility-audit, server-reactor, resume, scale, or knowledge)" >&2
            exit 2
            ;;
    esac
}

# Crash-consistency smoke: run a campaign to completion for a baseline,
# run it again under DSNET_CAMPAIGN_CRASH_AFTER with a journal (the
# process aborts mid-campaign by design), then resume from the journal
# and require the resumed artifacts to be byte-identical to the
# uninterrupted baseline.
resume_smoke() {
    local flags="--ns 20,28 --reps 2 --protocols cff,dfo --quiet"
    rm -f tresume.journal
    # shellcheck disable=SC2086  # flags are a curated word list
    "${DSNET[@]}" campaign $flags --threads 2 \
        --json tresume_base.json --csv tresume_base.csv
    # shellcheck disable=SC2086
    if DSNET_CAMPAIGN_CRASH_AFTER=7 "${DSNET[@]}" campaign $flags --threads 2 \
        --json tresume_run.json --csv tresume_run.csv --journal tresume.journal
    then
        echo "crash injection did not fire" >&2
        exit 1
    fi
    # shellcheck disable=SC2086
    "${DSNET[@]}" campaign $flags --threads 2 \
        --json tresume_run.json --csv tresume_run.csv --resume tresume.journal
    cmp tresume_base.json tresume_run.json
    cmp tresume_base.csv tresume_run.csv
}

# Parallel-delivery determinism: one 10k-node broadcast per protocol,
# traced, on 1 and 2 worker threads (and once more on 2 threads with a
# different spatial-cell count). The engine's contract is that the
# merged event stream never depends on the partition or the worker
# count, so all three stdout streams must be byte-for-byte identical.
# CFF exercises the slotted schedule and its wake hints, and on 3
# channels the single-round tuned listens; DFO is the heaviest resolve
# load (every node listens every round) and rides its token along the
# tour each node reads off the tree; the reliable flood gives no wake
# hints, so every node is on its cell's wake calendar every round.
scale_smoke() {
    local run tag flags
    for run in cff dfo rcff cff:3; do
        tag="tscale_${run/:/_k}"
        flags="--nodes 10000 --seed 7 --protocol ${run%%:*} --quiet"
        if [ "${run}" != "${run%%:*}" ]; then
            flags="${flags} --channels ${run##*:}"
        fi
        # shellcheck disable=SC2086  # flags are a curated word list
        "${DSNET[@]}" scale $flags --threads 1 > "${tag}1.stream"
        # shellcheck disable=SC2086
        "${DSNET[@]}" scale $flags --threads 2 > "${tag}2.stream"
        cmp "${tag}1.stream" "${tag}2.stream"
        # A different partition must also be invisible — compare past the
        # header line, which records the cell count by design.
        # shellcheck disable=SC2086
        "${DSNET[@]}" scale $flags --threads 2 --shards 23 > "${tag}_cells.stream"
        cmp <(tail -n +2 "${tag}1.stream") <(tail -n +2 "${tag}_cells.stream")
    done
}

# Knowledge-patch determinism: the dirty-scoped snapshot patch must be
# invisible everywhere outcomes are observable.  Two probes:
#
# 1. A churn-heavy scripted session (mobility, departures, arrivals,
#    crashes interleaved with traced broadcasts) run library-direct with
#    the patch path live and again with DSNET_KNOWLEDGE_PATCH=off (every
#    miss pays a full rebuild).  The response streams — whose collision
#    and max_awake fields are digests of each broadcast's recorded
#    trace — must be byte-identical.  The script deliberately has no
#    `snapshot` command: cache_patched is path-dependent by design.
# 2. A mobile campaign across {patch, full-rebuild} × {1, 2 threads}:
#    all four JSON/CSV artifact pairs must be byte-identical.
knowledge_smoke() {
    local script="tknowledge.script"
    cat > "$script" <<'EOS'
{"cmd": "broadcast", "protocol": "cff"}
{"cmd": "broadcast", "protocol": "cff1"}
{"cmd": "mobility", "epochs": 2, "movers": 1, "step_milli": 300}
{"cmd": "broadcast", "protocol": "cff"}
{"cmd": "broadcast", "protocol": "rcff", "loss_ppm": 100000, "retries": 3}
{"cmd": "move_out", "node": 5}
{"cmd": "broadcast", "protocol": "dfo"}
{"cmd": "broadcast", "protocol": "cff1"}
{"cmd": "move_in", "x_milli": 4200, "y_milli": 4700}
{"cmd": "broadcast", "protocol": "cff", "loss_ppm": 30000, "retries": 2, "min_delivery_ppm": 800000}
{"cmd": "kill", "node": 7}
{"cmd": "broadcast", "protocol": "rcff", "loss_ppm": 100000, "retries": 3}
{"cmd": "mobility", "epochs": 3, "movers": 2, "step_milli": 400}
{"cmd": "broadcast", "protocol": "dfo"}
{"cmd": "revive", "node": 7}
{"cmd": "broadcast", "protocol": "cff"}
{"cmd": "broadcast", "protocol": "cff1"}
EOS
    "${DSNET[@]}" direct --script "$script" \
        --nodes 60 --seed 2026 > tknowledge_patch.stream
    DSNET_KNOWLEDGE_PATCH=off "${DSNET[@]}" direct --script "$script" \
        --nodes 60 --seed 2026 > tknowledge_rebuild.stream
    cmp tknowledge_patch.stream tknowledge_rebuild.stream

    local flags="--ns 40 --reps 2 --protocols cff,dfo,cff1,rcff \
                 --mobility rwp0.06x20p1,gm0.05x15 --quiet"
    for threads in 1 2; do
        # shellcheck disable=SC2086  # flags are a curated word list
        "${DSNET[@]}" campaign $flags --threads "$threads" \
            --json "tknowledge_p${threads}.json" --csv "tknowledge_p${threads}.csv"
        # shellcheck disable=SC2086
        DSNET_KNOWLEDGE_PATCH=off "${DSNET[@]}" campaign $flags --threads "$threads" \
            --json "tknowledge_r${threads}.json" --csv "tknowledge_r${threads}.csv"
    done
    cmp tknowledge_p1.json tknowledge_p2.json
    cmp tknowledge_p1.json tknowledge_r1.json
    cmp tknowledge_r1.json tknowledge_r2.json
    cmp tknowledge_p1.csv tknowledge_p2.csv
    cmp tknowledge_p1.csv tknowledge_r1.csv
    cmp tknowledge_r1.csv tknowledge_r2.csv
}

# Server determinism: boot a unix-socket daemon, run a fixed churn-heavy
# script through `client --script`, run the same script library-direct,
# and require the two streams byte-identical.
server_smoke() {
    local sock="tserver.sock" script="tserver.script" pid
    rm -f "$sock"
    # Build up front so the daemon's socket-wait window below never
    # races a cold compile.
    cargo build --release -p dsnet-server --bin dsnet
    cat > "$script" <<'EOS'
{"cmd": "broadcast", "protocol": "cff"}
{"cmd": "kill", "node": 3}
{"cmd": "broadcast", "protocol": "dfo", "loss_ppm": 40000, "retries": 2, "min_delivery_ppm": 900000}
{"cmd": "move_out", "node": 5}
{"cmd": "move_in", "x_milli": 4500, "y_milli": 4500}
{"cmd": "mobility", "epochs": 2, "movers": 2, "step_milli": 400}
{"cmd": "revive", "node": 3}
{"cmd": "snapshot"}
EOS
    "${DSNET[@]}" serve --unix "$sock" --max-sessions 4 --quiet &
    pid=$!
    for _ in $(seq 1 100); do
        [ -S "$sock" ] && break
        sleep 0.1
    done
    [ -S "$sock" ] || { echo "daemon did not come up" >&2; exit 1; }
    "${DSNET[@]}" direct --script "$script" \
        --nodes 40 --seed 2007 > tserver_direct.stream
    "${DSNET[@]}" client --unix "$sock" \
        --session smoke-json --script "$script" \
        --nodes 40 --seed 2007 > tserver_reactor_json.stream
    cmp tserver_reactor_json.stream tserver_direct.stream
    "${DSNET[@]}" client --unix "$sock" --shutdown > /dev/null
    wait "$pid"
}

for axis in "$@"; do
    if [ "$axis" = server-reactor ]; then
        echo "=== determinism smoke: server-reactor ==="
        server_smoke
        echo "=== server-reactor: reactor daemon matches library-direct ==="
        continue
    fi
    if [ "$axis" = resume ]; then
        echo "=== determinism smoke: resume ==="
        resume_smoke
        echo "=== resume: resumed artifacts identical to uninterrupted run ==="
        continue
    fi
    if [ "$axis" = scale ]; then
        echo "=== determinism smoke: scale ==="
        scale_smoke
        echo "=== scale: 10k-node traced streams identical across threads and shard cells ==="
        continue
    fi
    if [ "$axis" = knowledge ]; then
        echo "=== determinism smoke: knowledge ==="
        knowledge_smoke
        echo "=== knowledge: patched and full-rebuild paths byte-identical across thread counts ==="
        continue
    fi
    flags=$(axis_flags "$axis")
    echo "=== determinism smoke: $axis ==="
    for threads in 1 2; do
        # shellcheck disable=SC2086  # flags are a curated word list
        "${DSNET[@]}" campaign $flags --threads "$threads" --quiet \
            --json "t${axis}${threads}.json" --csv "t${axis}${threads}.csv"
    done
    cmp "t${axis}1.json" "t${axis}2.json"
    cmp "t${axis}1.csv" "t${axis}2.csv"
    echo "=== $axis: artifacts identical across thread counts ==="
done
