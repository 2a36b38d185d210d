#!/usr/bin/env bash
# Chaos smoke: run the fault-injection and crash-recovery suite. The
# fault-tolerance layer (per-job catch_unwind isolation, retry/drop
# recovery, CRC-checked checkpoints, bit-identical resume) runs once here,
# then the two environment-armed fault plans each get a round-trip.
#
# Usage: scripts/chaos_smoke.sh [extra cargo-test args]
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

# The fault-injection integration tests plus the trainer/checkpoint/fault
# unit suites that back them, and the serving-side resilience + chaos
# suites (deadlines, panic quarantine, drain).
echo "== chaos smoke: fault/checkpoint and serving suites =="
cargo test --release --test failure_injection "$@"
cargo test --release -p orbit2 --lib "$@" -- trainer:: checkpoint:: fault::
cargo test --release -p orbit2-serve --test resilience "$@"
cargo test --release -p orbit2-serve --test chaos_serving "$@"

# One pass driven purely through the environment knob, checking the
# ORBIT2_FAULT_PLAN parsing/arming path end to end. Only the fault unit
# suite runs under the env plan: every Trainer picks the env plan up by
# default, and the clean-run trainer tests rightly assert an empty fault
# log when nothing was (deliberately) armed.
echo "== chaos smoke: ORBIT2_FAULT_PLAN env round-trip =="
ORBIT2_FAULT_PLAN="seed=42,panic=0.02,nan=0.02,straggle=0.05,straggle_ms=5" \
    cargo test --release -p orbit2 --lib "$@" -- fault::

# The serving twin: a canned ORBIT2_SERVE_FAULT_PLAN drives the env-armed
# injection path through a default-resolution server (fault_plan: None).
# Only the default-config chaos test runs under the env plan — the other
# resilience tests pin explicit plans precisely so canned chaos like this
# cannot perturb them.
echo "== chaos smoke: ORBIT2_SERVE_FAULT_PLAN env round-trip =="
ORBIT2_SERVE_FAULT_PLAN="seed=42,panic=0.05,straggle=0.05,straggle_ms=3" \
    cargo test --release -p orbit2-serve --test chaos_serving "$@" -- default_config

echo "chaos smoke passed"
