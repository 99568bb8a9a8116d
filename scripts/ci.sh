#!/usr/bin/env bash
# Hermetic CI gate for the geodynamo workspace.
#
# The build must succeed with *no registry access*: every dependency is a
# workspace path crate (see DESIGN.md, "Hermetic build"). This script is
# the enforcement point — it builds and tests fully offline, compiles
# every target (benches included), and fails if `cargo tree` reports any
# package resolved from a registry instead of a workspace path.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> hermetic release build (offline)"
# --workspace matters: the root is a hybrid workspace+package, and a bare
# `cargo build` covers only the root package and dependency *libraries* —
# the yycore binary the smoke tests below run would go stale.
cargo build --release --offline --workspace

echo "==> all targets compile offline (tests, benches, examples)"
cargo build --workspace --all-targets --offline

echo "==> tests (offline)"
cargo test -q --offline --workspace

echo "==> committed bench baselines present"
# scripts/bench.sh writes these at the repo root and they are committed
# as the reference numbers the gates below gate drift against. A
# missing file means a bench was added without regenerating baselines.
for f in BENCH_step.json BENCH_obs.json BENCH_profile.json BENCH_io.json; do
  test -s "$f" || {
    echo "ERROR: baseline $f is missing or empty." >&2
    echo "       Run scripts/bench.sh and commit the regenerated baselines." >&2
    exit 1; }
done
echo "OK: all four bench baselines present"

echo "==> fault-injection soak: seeded drops/delays + a rank kill must recover bit-exactly"
soak_dir=$(mktemp -d)
trap 'rm -rf "$soak_dir"' EXIT
soak="pth=1 pph=2 steps=6 sample=0 nr=12 nth=9"
# Clean supervised run (checkpointing only, no faults).
./target/release/yycore parallel $soak ckpt_every=2 ckpt="$soak_dir/clean.ck" >/dev/null
# Same run under seeded message faults plus a mid-run rank kill.
./target/release/yycore parallel $soak ckpt_every=2 ckpt="$soak_dir/fault.ck" \
  fault_seed=42 drop=0.10 delay=0.10 delay_us=200 dup=0.05 kill_rank=1 kill_step=4 >/dev/null
cmp "$soak_dir/clean.ck" "$soak_dir/fault.ck"
echo "OK: recovered trajectory is bit-identical to the fault-free run"

echo "==> chaos soak: permanent rank loss must re-tile 2x2 -> 1x2 and finish byte-identical"
# Reference: an uninterrupted serial run writing the same trajectory.
./target/release/yycore run steps=8 sample=0 nr=12 nth=9 \
  ckpt="$soak_dir/chaos-serial.ck" >/dev/null 2>&1
# Chaos run: node 1 dies at step 5 on *every* pass (broken hardware).
# Retry alone can never finish; the supervisor must classify the fault
# as persistent, exclude the node, shrink the layout, and continue.
./target/release/yycore parallel pth=2 pph=2 steps=8 sample=0 nr=12 nth=9 \
  ckpt_every=2 ckpt="$soak_dir/chaos.ck" \
  report_json="$soak_dir/chaos-report.json" trace="$soak_dir/chaos-trace.json" \
  kill_rank=1 kill_step=5 kill_persistent=1 \
  on_failure=retile max_retiles=2 retile_backoff_ms=10 weights=measured \
  >/dev/null 2>"$soak_dir/chaos.log"
grep -q 'retiled: pass .* 2x2 -> 1x2' "$soak_dir/chaos.log" || {
  echo "ERROR: chaos run did not report a 2x2 -> 1x2 re-tile" >&2
  cat "$soak_dir/chaos.log" >&2; exit 1; }
grep -q 'degraded mode' "$soak_dir/chaos.log" || {
  echo "ERROR: chaos run did not enter degraded mode" >&2; exit 1; }
cmp "$soak_dir/chaos-serial.ck" "$soak_dir/chaos.ck"
echo "OK: re-tiled trajectory is byte-identical to the clean serial run"
# The v3 report carries the elastic section with the retile record and
# the partitioner's predicted-vs-achieved imbalance.
for key in '"elastic"' '"policy":"retile"' '"weights":"measured"' \
    '"degraded":true' '"retiles"' '"excluded_node":1' \
    '"predicted_imbalance"' '"achieved_imbalance"'; do
  grep -q "$key" "$soak_dir/chaos-report.json" || {
    echo "ERROR: chaos report missing $key" >&2; exit 1; }
done
# The Chrome trace carries the retile/degrade instants.
chaos_tc=$(./target/release/yycore tracecheck "$soak_dir/chaos-trace.json")
echo "$chaos_tc" | grep -qE ' [1-9][0-9]* retile' || {
  echo "ERROR: chaos trace has no retile instants" >&2; exit 1; }
echo "$chaos_tc" | grep -qE ' [1-9][0-9]* degrade' || {
  echo "ERROR: chaos trace has no degrade instants" >&2; exit 1; }
echo "OK: retile recorded in v3 report and Chrome trace"

echo "==> doctor smoke: the chaos trace diagnosis names the kill and the re-tile"
# The doctor re-derives the critical path from the exported trace; the
# killed rank and the shrink it forced must both surface as disruptions.
doc_out=$(./target/release/yycore doctor trace="$soak_dir/chaos-trace.json")
echo "$doc_out"
echo "$doc_out" | grep -q 'critical-path disruption: kill on rank 1' || {
  echo "ERROR: doctor did not place the rank-1 kill on the critical path" >&2
  exit 1; }
echo "$doc_out" | grep -q 'critical-path disruption: retile 1x2' || {
  echo "ERROR: doctor did not surface the forced 2x2 -> 1x2 re-tile" >&2
  exit 1; }
# The same diagnosis must be embedded in the v5 report artifact.
./target/release/yycore doctor report="$soak_dir/chaos-report.json" >/dev/null || {
  echo "ERROR: doctor could not read the chaos report's analysis section" >&2
  exit 1; }
echo "OK: doctor names the killed rank and the re-tile on the critical path"

echo "==> regression ledger smoke: ingest twice, verdicts render (advisory)"
ledger="$soak_dir/runs.jsonl"
./target/release/yycore doctor ledger="$ledger" \
  ingest="$soak_dir/chaos-report.json" label=ci >/dev/null
ledger_out=$(./target/release/yycore doctor ledger="$ledger" \
  ingest="$soak_dir/chaos-report.json" label=ci)
echo "$ledger_out"
echo "$ledger_out" | grep -q '2 entrie(s); latest ci#1' || {
  echo "ERROR: ledger did not accumulate both ingested runs" >&2; exit 1; }
echo "$ledger_out" | grep -qE '(ok|regressed|improved)\(' || {
  echo "ERROR: ledger comparison produced no verdict lines" >&2; exit 1; }
# Advisory: a regressed verdict warns but does not fail the gate (the
# hard perf gates below own failure); surface it loudly for the log.
if echo "$ledger_out" | grep -q 'regressed('; then
  echo "WARNING: ledger reports a regression vs baseline (advisory)" >&2
fi
echo "OK: regression ledger ingests and renders noise-aware verdicts"

echo "==> elastic restart smoke: serial checkpoint resumes onto a shrunk layout"
./target/release/yycore run steps=4 sample=0 nr=12 nth=9 \
  ckpt="$soak_dir/mid.ck" >/dev/null 2>&1
./target/release/yycore parallel pth=1 pph=2 steps=8 sample=0 nr=12 nth=9 \
  resume="$soak_dir/mid.ck" ckpt="$soak_dir/resumed.ck" >/dev/null 2>&1
cmp "$soak_dir/chaos-serial.ck" "$soak_dir/resumed.ck"
echo "OK: restart onto 1x2 is byte-identical to the unbroken run"

echo "==> output soak: faulted 2x2 async compressed shards, restart from the merged set"
# A 2x2 supervised run under seeded message faults plus a mid-run rank
# kill, writing per-rank delta-compressed shards through the async
# writer thread. The shard stream must survive the rollback, merge back
# into a serial-format checkpoint, and seed a bit-exact restart.
./target/release/yycore parallel pth=2 pph=2 steps=8 sample=0 nr=12 nth=9 \
  ckpt_every=2 ckpt_dir="$soak_dir/shards" ckpt_async=1 ckpt_compress=delta \
  report_json="$soak_dir/io-report.json" \
  fault_seed=42 drop=0.10 delay=0.10 delay_us=200 kill_rank=1 kill_step=4 \
  >/dev/null 2>&1
# Offline merge of the mid-run set (before the kill's rollback horizon).
./target/release/yycore merge "$soak_dir/shards" "$soak_dir/merged4.ck" \
  step=4 nr=12 nth=9 >/dev/null
# Restart from the merged mid-run checkpoint onto a different layout and
# finish; the result must match the unbroken serial run byte for byte.
./target/release/yycore parallel pth=1 pph=2 steps=8 sample=0 nr=12 nth=9 \
  resume="$soak_dir/merged4.ck" ckpt="$soak_dir/io-resumed.ck" >/dev/null 2>&1
cmp "$soak_dir/chaos-serial.ck" "$soak_dir/io-resumed.ck"
# resume= also accepts the shard directory itself (newest complete set).
./target/release/yycore parallel pth=1 pph=2 steps=8 sample=0 nr=12 nth=9 \
  resume="$soak_dir/shards" ckpt="$soak_dir/io-resumed-dir.ck" >/dev/null 2>&1
cmp "$soak_dir/chaos-serial.ck" "$soak_dir/io-resumed-dir.ck"
echo "OK: merged-shard restarts are byte-identical to the clean serial run"
# The v4 report's io section must carry the output-pipeline accounting.
for key in '"io"' '"shards_written"' '"bytes_raw"' '"bytes_written"' \
    '"write_wall_s"' '"writer_wait_s"' '"async_mode":true' '"codec":"delta"' \
    '"compression_ratio"'; do
  grep -q "$key" "$soak_dir/io-report.json" || {
    echo "ERROR: io report missing $key" >&2; exit 1; }
done
grep -q '"writer_wait_s"' "$soak_dir/io-report.json" || {
  echo "ERROR: io report missing writer_wait phase" >&2; exit 1; }
echo "OK: v4 report io section well-formed"

echo "==> observability smoke: faulted supervised run leaves a post-mortem trace"
./target/release/yycore parallel $soak trace="$soak_dir/trace.json" \
  log="$soak_dir/run.jsonl" report_json="$soak_dir/report.json" \
  fault_seed=42 kill_rank=1 kill_step=4 >/dev/null
test -s "$soak_dir/trace.json.postmortem" || {
  echo "ERROR: post-mortem trace missing" >&2; exit 1; }
# tracecheck validates the Chrome trace structure and reports the kill
# count; a post-mortem from a killed run must contain the kill event.
pm=$(./target/release/yycore tracecheck "$soak_dir/trace.json.postmortem")
echo "$pm"
echo "$pm" | grep -qE ' [1-9][0-9]* kill' || {
  echo "ERROR: post-mortem trace has no kill event" >&2; exit 1; }
./target/release/yycore tracecheck "$soak_dir/trace.json" >/dev/null
grep -q '"schema":"yy.runreport.v6"' "$soak_dir/report.json" || {
  echo "ERROR: report.json missing schema tag" >&2; exit 1; }
# The v6 additions are always present: an (empty here) alerts array and
# a telemetry section (null — this run was not armed).
for key in '"alerts"' '"telemetry"'; do
  grep -q "$key" "$soak_dir/report.json" || {
    echo "ERROR: report.json missing v6 key $key" >&2; exit 1; }
done
grep -q '"recv_wait_ns"' "$soak_dir/report.json" || {
  echo "ERROR: report.json missing recv-wait histogram" >&2; exit 1; }
grep -q '"kernels"' "$soak_dir/report.json" || {
  echo "ERROR: report.json missing the v2 kernel table" >&2; exit 1; }
# The v5 analysis section must be present and populated on a traced run.
for key in '"analysis"' '"verdict"' '"gating"' '"stragglers"' \
    '"steps_analyzed"' '"coverage"'; do
  grep -q "$key" "$soak_dir/report.json" || {
    echo "ERROR: report.json missing v5 analysis key $key" >&2; exit 1; }
done
test -s "$soak_dir/run.jsonl" || { echo "ERROR: JSONL log missing" >&2; exit 1; }
echo "OK: post-mortem + final traces valid, report versioned, log written"

echo "==> counter-track smoke: profile-enabled trace carries C-phase counter samples"
./target/release/yycore parallel $soak trace="$soak_dir/ptrace.json" \
  profile_every=1 >/dev/null
ptc=$(./target/release/yycore tracecheck "$soak_dir/ptrace.json")
echo "$ptc"
echo "$ptc" | grep -qE ' [1-9][0-9]* counter sample' || {
  echo "ERROR: profile-enabled trace has no counter samples" >&2; exit 1; }

echo "==> science telemetry smoke: seeded dt collapse fires the blow-up alert"
# A supervised run with the series store + watchdog armed and a seeded
# geometric dt collapse injected from step 10. The energy_blowup
# precursor must land in the driver log, the v6 report, and the Chrome
# trace; a clean armed run must fire nothing (DESIGN.md §6j).
wsoak="pth=1 pph=2 steps=16 sample=1 nr=12 nth=9"
./target/release/yycore parallel $wsoak telemetry=1 dt_collapse_at=10 \
  trace="$soak_dir/wtrace.json" report_json="$soak_dir/wreport.json" \
  >/dev/null 2>"$soak_dir/watch.log"
grep -q 'watchdog energy_blowup (dt-collapse): FIRED' "$soak_dir/watch.log" || {
  echo "ERROR: seeded collapse did not fire energy_blowup" >&2
  cat "$soak_dir/watch.log" >&2; exit 1; }
grep -q '"rule":"energy_blowup"' "$soak_dir/wreport.json" || {
  echo "ERROR: report carries no energy_blowup alert edge" >&2; exit 1; }
grep -q '"channels"' "$soak_dir/wreport.json" || {
  echo "ERROR: report carries no telemetry series store" >&2; exit 1; }
wtc=$(./target/release/yycore tracecheck "$soak_dir/wtrace.json")
echo "$wtc"
echo "$wtc" | grep -qE ' [1-9][0-9]* alert edge' || {
  echo "ERROR: trace carries no alert instants" >&2; exit 1; }
# The same grid armed but unseeded: the watchdog must stay quiet.
./target/release/yycore parallel $wsoak telemetry=1 \
  report_json="$soak_dir/wclean.json" >/dev/null 2>"$soak_dir/wclean.log"
if grep -q 'FIRED' "$soak_dir/wclean.log"; then
  echo "ERROR: clean armed run fired an alert" >&2
  cat "$soak_dir/wclean.log" >&2; exit 1; fi
grep -q '"alerts":\[\]' "$soak_dir/wclean.json" || {
  echo "ERROR: clean armed run has non-empty report alerts" >&2; exit 1; }
echo "OK: seeded collapse fires energy_blowup; clean armed run stays quiet"

echo "==> watch smoke: dashboard renders the report artifact and the live endpoint"
watch_out=$(./target/release/yycore watch "$soak_dir/wreport.json")
echo "$watch_out" | grep -q 'alert energy_blowup (dt-collapse): FIRED' || {
  echo "ERROR: watch (file mode) did not render the alert" >&2
  echo "$watch_out" >&2; exit 1; }
echo "$watch_out" | grep -q 'kinetic' || {
  echo "ERROR: watch (file mode) did not render channel panels" >&2; exit 1; }
# URL mode: re-run the seeded collapse serving live metrics, and hold
# the endpoint open after the run ends so the single-frame watcher can
# scrape the final science gauges race-free.
wport=${YY_CI_WATCH_PORT:-19184}
./target/release/yycore parallel $wsoak telemetry=1 dt_collapse_at=10 \
  metrics_port="$wport" metrics_hold_ms=30000 >/dev/null 2>&1 &
wpid=$!
live_ok=0
for _ in $(seq 1 40); do
  live=$(./target/release/yycore watch "http://127.0.0.1:$wport" once=1 \
    retries=40 2>/dev/null) || true
  if echo "$live" | grep -q 'alert energy_blowup.*FIRING'; then
    live_ok=1; break; fi
  sleep 0.5
done
kill "$wpid" 2>/dev/null || true
wait "$wpid" 2>/dev/null || true
[ "$live_ok" = 1 ] || {
  echo "ERROR: watch (URL mode) never saw the firing alert gauge" >&2; exit 1; }
echo "OK: yycore watch renders file and live-endpoint dashboards"

echo "==> profile smoke: roofline table + measured-profile ES projection"
profile_out=$(./target/release/yycore profile steps=3 sample=0)
echo "$profile_out" | grep -q 'measured kernel profile' || {
  echo "ERROR: profile did not print the roofline table" >&2; exit 1; }
echo "$profile_out" | grep -q 'measured-profile flagship projection' || {
  echo "ERROR: profile did not print the ES projection" >&2; exit 1; }
echo "OK: yycore profile prints the measured roofline + projection"

echo "==> observability overhead gate: idle recorder must stay under tolerance"
# 10 interleaved reps: the gate compares per-mode minima at a 2%
# tolerance, and on comm-wait-dominated small runs a 3-rep minimum is
# noisier than the effect being gated.
YY_BENCH_OBS_GRID=small YY_BENCH_OBS_STEPS=4 YY_BENCH_OBS_REPS=10 \
BENCH_OBS_JSON="$soak_dir/BENCH_obs.json" \
  cargo bench -p yy-bench --bench obs --offline >/dev/null
# ratio_vs_off order in the JSON: disabled (idle recorder), enabled
# (informational, not gated), counters (armed per-kernel counters).
ratio=$(grep -o '"ratio_vs_off": [0-9.]*' "$soak_dir/BENCH_obs.json" \
  | head -1 | awk '{print $2}')
ctr_ratio=$(grep -o '"ratio_vs_off": [0-9.]*' "$soak_dir/BENCH_obs.json" \
  | sed -n '3p' | awk '{print $2}')
tol=${YY_CI_OBS_TOL:-1.02}
awk -v r="$ratio" -v t="$tol" 'BEGIN { exit !(r < t) }' || {
  echo "ERROR: disabled tracing costs x$ratio vs off (tolerance $tol)" >&2
  exit 1
}
echo "OK: disabled tracing ratio x$ratio (< $tol)"
awk -v r="$ctr_ratio" -v t="$tol" 'BEGIN { exit !(r < t) }' || {
  echo "ERROR: armed counters cost x$ctr_ratio vs off (tolerance $tol)" >&2
  exit 1
}
echo "OK: armed counters ratio x$ctr_ratio (< $tol)"
# Armed science telemetry vs the same run sampling diagnostics without
# it: the series store + watchdog must stay under the same tolerance.
ser_ratio=$(grep -o '"ratio_vs_sampled": [0-9.]*' "$soak_dir/BENCH_obs.json" \
  | awk '{print $2}')
awk -v r="$ser_ratio" -v t="$tol" 'BEGIN { exit !(r < t) }' || {
  echo "ERROR: armed series telemetry costs x$ser_ratio vs sampled (tolerance $tol)" >&2
  exit 1
}
echo "OK: armed series telemetry ratio x$ser_ratio (< $tol)"

echo "==> bench smoke: step pipeline writes machine-readable BENCH_step.json"
# Tiny knobs: this checks the bench runs and the JSON is well-formed,
# not the performance numbers (scripts/bench.sh is the full-fat run).
YY_BENCH_SAMPLE_MS=5 YY_BENCH_SAMPLES=2 \
YY_BENCH_STEP_GRID=small YY_BENCH_STEP_STEPS=3 YY_BENCH_STEP_REPS=1 \
YY_BENCH_STEP_DELAY_US=500 \
BENCH_STEP_JSON="$soak_dir/BENCH_step.json" \
  cargo bench -p yy-bench --bench step --offline >/dev/null
for key in hidden_comm_fraction median_ns_per_step kernel_bound \
    overlapped_median_ns_per_step retiles steps_per_sec_before_shrink \
    steps_per_sec_after_shrink; do
  grep -q "$key" "$soak_dir/BENCH_step.json" || {
    echo "ERROR: BENCH_step.json missing '$key'" >&2; exit 1; }
done
echo "OK: BENCH_step.json written and well-formed"

echo "==> step-rate regression gate: kernel-bound ns/point under tolerance"
# Guards against hot-loop regressions of the per-call-allocation kind
# (the r2 Vec bug this gate was written for): the kernel-bound step
# through the overlapped pipeline must stay under a generous per-point
# ceiling. The default
# tolerance (ns per grid point per step) leaves ~3x headroom over the
# measured rate on the CI box, so host-contention noise passes but an
# accidental deoptimization of the RHS sweep does not.
gp=$(grep -o '"grid_points": [0-9]*' "$soak_dir/BENCH_step.json" | awk '{print $2}')
kb=$(grep -o '"overlapped_median_ns_per_step": [0-9.]*' "$soak_dir/BENCH_step.json" \
  | awk '{print $2}')
nspp=$(awk -v k="$kb" -v g="$gp" 'BEGIN { printf "%.1f", k / g }')
step_tol=${YY_CI_STEP_TOL:-2500}
awk -v r="$nspp" -v t="$step_tol" 'BEGIN { exit !(r < t) }' || {
  echo "ERROR: kernel-bound step costs $nspp ns/point (tolerance $step_tol)" >&2
  exit 1
}
echo "OK: kernel-bound step $nspp ns/point (< $step_tol)"

echo "==> io overhead gate: overlapped output must stay under tolerance"
# Tiny knobs again: minima over interleaved reps. On a multi-core host
# the writer thread overlaps encode+write with the next steps' compute,
# so async/off is gated directly at YY_CI_IO_TOL (default 5%). A
# single-core host has no spare core to overlap onto — both modes pay
# the full output CPU cost — so there the gate degrades to "async must
# not cost more than sync" at the same tolerance.
YY_BENCH_IO_GRID=small YY_BENCH_IO_STEPS=4 YY_BENCH_IO_REPS=3 \
BENCH_IO_JSON="$soak_dir/BENCH_io.json" \
  cargo bench -p yy-bench --bench io --offline >/dev/null
for key in '"cores"' '"sync"' '"async"' ratio_vs_off write_mib_s \
    compression_ratio; do
  grep -q "$key" "$soak_dir/BENCH_io.json" || {
    echo "ERROR: BENCH_io.json missing '$key'" >&2; exit 1; }
done
io_cores=$(grep -o '"cores": [0-9]*' "$soak_dir/BENCH_io.json" | awk '{print $2}')
# ratio_vs_off order in the JSON: sync first, then async.
io_r_sync=$(grep -o '"ratio_vs_off": [0-9.]*' "$soak_dir/BENCH_io.json" \
  | sed -n '1p' | awk '{print $2}')
io_r_async=$(grep -o '"ratio_vs_off": [0-9.]*' "$soak_dir/BENCH_io.json" \
  | sed -n '2p' | awk '{print $2}')
io_tol=${YY_CI_IO_TOL:-1.05}
if [ "$io_cores" -ge 2 ]; then
  awk -v r="$io_r_async" -v t="$io_tol" 'BEGIN { exit !(r < t) }' || {
    echo "ERROR: async output costs x$io_r_async vs off (tolerance $io_tol)" >&2
    exit 1
  }
  echo "OK: async output x$io_r_async vs off (< $io_tol, $io_cores cores)"
else
  awk -v a="$io_r_async" -v s="$io_r_sync" -v t="$io_tol" \
    'BEGIN { exit !(a < s * t) }' || {
    echo "ERROR: async output x$io_r_async vs off exceeds sync x$io_r_sync" \
      "* $io_tol on a single-core host" >&2
    exit 1
  }
  echo "OK: async x$io_r_async vs sync x$io_r_sync (single core: no overlap possible)"
fi

echo "==> bench smoke: measured kernel profile writes BENCH_profile.json"
YY_BENCH_PROFILE_STEPS=3 \
BENCH_PROFILE_JSON="$soak_dir/BENCH_profile.json" \
  cargo bench -p yy-bench --bench profile --offline >/dev/null
for key in flops_per_point_step es_flagship_tflops avg_vector_length kernels \
    phi_block_sweep; do
  grep -q "$key" "$soak_dir/BENCH_profile.json" || {
    echo "ERROR: BENCH_profile.json missing '$key'" >&2; exit 1; }
done
echo "OK: BENCH_profile.json written and well-formed"

echo "==> roofline regression gates: ES projection window + RHS intensity"
# The measured-profile flagship projection must stay inside the paper's
# acceptance window (15.2 +/- 2.0 TFlops, same window as the flagship
# test) — it is a pure function of the exact flop/VL accounting, so a
# drift here means the counter model changed, not the machine. The RHS
# arithmetic intensity gate protects the fused sweep's traffic model:
# the unfused kernel modeled 1.25 flops/byte, the fused one 2.76 — a
# fall below 2.0 means someone reverted to per-leg stencil billing (or
# broke the fusion) without retuning the model.
tflops=$(grep -o '"es_flagship_tflops": [0-9.]*' "$soak_dir/BENCH_profile.json" \
  | awk '{print $2}')
awk -v r="$tflops" 'BEGIN { exit !(r > 13.2 && r < 17.2) }' || {
  echo "ERROR: ES flagship projection $tflops TFlops outside [13.2, 17.2]" >&2
  exit 1
}
rhs_int=$(grep -o '"name": "rhs"[^}]*' "$soak_dir/BENCH_profile.json" \
  | grep -o '"intensity": [0-9.]*' | awk '{print $2}')
rhs_tol=${YY_CI_RHS_INTENSITY_MIN:-2.0}
awk -v r="$rhs_int" -v t="$rhs_tol" 'BEGIN { exit !(r > t) }' || {
  echo "ERROR: RHS intensity $rhs_int flops/byte under minimum $rhs_tol" >&2
  exit 1
}
echo "OK: flagship $tflops TFlops in window, RHS intensity $rhs_int (> $rhs_tol)"

echo "==> dependency audit: workspace path dependencies only"
# Path dependencies print as `name vX.Y.Z (/abs/path)`; anything without
# a path source came from a registry and breaks hermeticity.
nonpath=$(cargo tree --workspace --edges normal,dev,build --prefix none --offline \
  | sed 's/ (\*)$//' \
  | grep -vE '^\[|^$' \
  | grep -v ' (/' \
  | sort -u || true)
if [ -n "$nonpath" ]; then
  echo "ERROR: non-workspace (registry) dependencies detected:" >&2
  echo "$nonpath" >&2
  exit 1
fi
echo "OK: only workspace path dependencies"
