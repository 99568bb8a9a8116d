#!/usr/bin/env bash
# Benchmark driver for the geodynamo workspace.
#
# Runs the full step pipeline benchmark (halo round-trip, overset
# donate/fill, the overlapped parallel RK4 step both under a fixed
# injected message latency and kernel-bound) and leaves a
# machine-readable summary in BENCH_step.json at the repo root, next to
# the obs, profile and io summaries. CI smoke-runs the same bench with
# tiny knobs (see scripts/ci.sh); this script is the full-fat version.
#
# Knobs (environment):
#   BENCH_OUT              step output path       [BENCH_step.json]
#   BENCH_OBS_OUT          obs output path        [BENCH_obs.json]
#   BENCH_PROFILE_OUT      profile output path    [BENCH_profile.json]
#   BENCH_IO_OUT           io output path         [BENCH_io.json]
#   YY_BENCH_STEP_GRID     small|medium           [medium]
#   YY_BENCH_STEP_STEPS    steps per measurement  [10]
#   YY_BENCH_STEP_REPS     interleaved reps       [5]
#   YY_BENCH_STEP_DELAY_US injected fixed per-message latency [12000]
#   YY_BENCH_STEP_PTH/PPH  tiles per panel        [1x1]
#   YY_BENCH_IO_*          io bench knobs (GRID, STEPS, REPS, EVERY,
#                          CODEC, PTH/PPH) — see crates/bench/benches/io.rs
#   BENCH_LEDGER           regression ledger path [runs.jsonl]
set -euo pipefail
cd "$(dirname "$0")/.."

# Bench binaries run with their package dir (crates/bench) as cwd, so
# relative output paths would silently land there instead of the repo
# root — anchor the defaults to the root explicitly.
root=$(pwd)
out=${BENCH_OUT:-$root/BENCH_step.json}
obs_out=${BENCH_OBS_OUT:-$root/BENCH_obs.json}
profile_out=${BENCH_PROFILE_OUT:-$root/BENCH_profile.json}
io_out=${BENCH_IO_OUT:-$root/BENCH_io.json}

echo "==> step pipeline bench (writes $out)"
BENCH_STEP_JSON="$out" cargo bench -p yy-bench --bench step --offline

echo "==> observability overhead bench (writes $obs_out)"
BENCH_OBS_JSON="$obs_out" cargo bench -p yy-bench --bench obs --offline

echo "==> measured kernel profile bench (writes $profile_out)"
BENCH_PROFILE_JSON="$profile_out" cargo bench -p yy-bench --bench profile --offline

echo "==> output pipeline cost bench (writes $io_out)"
BENCH_IO_JSON="$io_out" cargo bench -p yy-bench --bench io --offline

echo "==> kernel microbenches"
cargo bench -p yy-bench --bench kernels --offline

# Append this run's step and profile summaries to the cross-run
# regression ledger so `yycore doctor ledger=` accumulates history and
# renders noise-aware verdicts against the best run on record. (The obs
# and io benches gate ratios, not throughput; their summaries carry no
# ledger metrics.)
ledger=${BENCH_LEDGER:-$root/runs.jsonl}
echo "==> appending to the regression ledger ($ledger)"
cargo build --release -q -p yycore --offline
./target/release/yycore doctor ledger="$ledger" ingest="$out" label=bench-step
./target/release/yycore doctor ledger="$ledger" ingest="$profile_out" label=bench-profile

echo "wrote $out, $obs_out, $profile_out and $io_out; ledger at $ledger"
