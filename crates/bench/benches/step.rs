//! The overlapped step pipeline, end to end:
//!
//! * `halo_roundtrip`  — one θ-band halo exchange between two live ranks
//!   (pack → send → recv → unpack, pooled buffers)
//! * `overset_donate`  — interpolating + packing one panel frame's
//!   donor columns (the send half of the overset exchange)
//! * `overset_fill`    — placing received columns into the frame slots
//! * `parallel_step`   — a full multi-rank RK4 step through the
//!   overlapped pipeline, under an injected message latency and
//!   kernel-bound (no injection)
//!
//! With `BENCH_STEP_JSON=<path>` set, writes a machine-readable summary
//! (median ns/step, points/s, phase breakdown) for CI.
//!
//! Knobs: `YY_BENCH_STEP_GRID` (small|medium), `YY_BENCH_STEP_STEPS`,
//! `YY_BENCH_STEP_REPS`, `YY_BENCH_STEP_PTH`/`YY_BENCH_STEP_PPH`
//! (decomposition), `YY_BENCH_STEP_DELAY_US` (injected per-message
//! delivery delay bound; 0 disables injection), plus the harness's
//! `YY_BENCH_SAMPLE_MS` / `YY_BENCH_SAMPLES`.
//!
//! Run with: `cargo bench -p yy-bench --bench step`

use std::hint::black_box;
use std::time::{Duration, Instant};
use yy_bench::Harness;
use yy_field::{pack_region, unpack_region, Region};
use yy_mesh::interp::{interp_scalar_column, interp_vector_column};
use yy_mesh::{build_overset_columns, Panel};
use yy_mhd::{initialize, State};
use yy_parcomm::stats::TrafficClass;
use yy_parcomm::{FaultSpec, Universe};
use yycore::parallel::{run_parallel_supervised, FailurePolicy, RecoveryOpts};
use yycore::RunConfig;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Tiles per panel for the step measurement. One tile per panel by
/// default: 2 ranks keep the measurement meaningful even on single-core
/// CI boxes, where more threads measure the scheduler, not the solver.
fn step_decomp() -> (usize, usize) {
    (env_u64("YY_BENCH_STEP_PTH", 1) as usize, env_u64("YY_BENCH_STEP_PPH", 1) as usize)
}

fn cfg() -> RunConfig {
    let mut cfg = match std::env::var("YY_BENCH_STEP_GRID").as_deref() {
        Ok("small") => RunConfig::small(),
        _ => RunConfig::medium(),
    };
    cfg.init.perturb_amplitude = 1e-2;
    cfg
}

/// One θ-band halo exchange between two live ranks: pack all 8 fields,
/// buffered send, blocking recv, unpack — with recycled buffers, exactly
/// like the solver's pooled path. Self-timed inside a single universe so
/// rank-thread spawn/teardown stays out of the measurement.
fn bench_halo_roundtrip() {
    let cfg = cfg();
    let grid = cfg.grid();
    let shape = grid.full_shape();
    let band = Region {
        i0: 0,
        i1: shape.nr,
        j0: 0,
        j1: grid.spec().halo as isize,
        k0: 0,
        k1: shape.nph as isize,
    };
    let bytes = band.len() * 8 * 8;
    let per_iter = Universe::run(2, |world| {
        let mut state = State::zeros(shape);
        initialize(&mut state, &grid, None, &cfg.params, &cfg.init, Panel::Yin);
        let peer = 1 - world.rank();
        let mut pool: Vec<Vec<f64>> = Vec::new();
        let exchange = |pool: &mut Vec<Vec<f64>>, state: &mut State| {
            let mut buf = pool.pop().unwrap_or_else(|| Vec::with_capacity(band.len() * 8));
            buf.clear();
            for arr in state.arrays() {
                pack_region(arr, band, &mut buf);
            }
            world.send_f64s(peer, 1, buf, TrafficClass::Halo);
            let got = world.recv_f64s(peer, 1);
            let mut rest: &[f64] = &got;
            for arr in state.arrays_mut() {
                rest = unpack_region(arr, band, rest);
            }
            pool.push(got);
        };
        for _ in 0..8 {
            exchange(&mut pool, &mut state); // warmup, fills the pool
        }
        let n = 256;
        let t0 = Instant::now();
        for _ in 0..n {
            exchange(&mut pool, &mut state);
        }
        t0.elapsed() / n
    });
    let slowest = per_iter.into_iter().max().unwrap();
    let gbps = bytes as f64 / slowest.as_secs_f64() / 1e9;
    println!(
        "halo_roundtrip/theta_band_{bytes}_bytes        {:>12.2} µs/iter  {gbps:.2} GB/s",
        black_box(slowest).as_secs_f64() * 1e6
    );
}

/// The send half of the overset exchange: interpolate every donor column
/// of a panel frame (scalars + rotated vectors) into a packed buffer.
fn bench_overset_donate_fill(c: &mut Harness) {
    let cfg = cfg();
    let grid = cfg.grid();
    let cols = build_overset_columns(&grid).expect("valid grid");
    let nr = grid.spec().nr;
    let shape = grid.full_shape();
    let mut donor = State::zeros(shape);
    initialize(&mut donor, &grid, None, &cfg.params, &cfg.init, Panel::Yang);
    let mut target = State::zeros(shape);
    let mut buf: Vec<f64> = Vec::with_capacity(cols.len() * 8 * nr);
    let mut row = vec![0.0; nr];
    let (mut vr, mut vt, mut vp) = (vec![0.0; nr], vec![0.0; nr], vec![0.0; nr]);

    let mut group = c.benchmark_group("overset");
    group.throughput(yy_bench::Throughput::Elements(cols.len() as u64));
    group.bench_function(format!("donate_{}_columns", cols.len()), |b| {
        b.iter(|| {
            buf.clear();
            for col in &cols {
                interp_scalar_column(col, &donor.rho, &mut row);
                buf.extend_from_slice(&row);
                interp_scalar_column(col, &donor.press, &mut row);
                buf.extend_from_slice(&row);
                interp_vector_column(
                    col, &donor.f.r, &donor.f.t, &donor.f.p, &mut vr, &mut vt, &mut vp,
                );
                buf.extend_from_slice(&vr);
                buf.extend_from_slice(&vt);
                buf.extend_from_slice(&vp);
                interp_vector_column(
                    col, &donor.a.r, &donor.a.t, &donor.a.p, &mut vr, &mut vt, &mut vp,
                );
                buf.extend_from_slice(&vr);
                buf.extend_from_slice(&vt);
                buf.extend_from_slice(&vp);
            }
            black_box(buf.len())
        })
    });
    // Fill half: place a received message's columns into the frame slots.
    group.bench_function(format!("fill_{}_columns", cols.len()), |b| {
        b.iter(|| {
            let mut pos = 0;
            for col in &cols {
                let (tj, tk) = (col.tgt_j as isize, col.tgt_k as isize);
                for arr in target.arrays_mut() {
                    arr.row_mut(tj, tk).copy_from_slice(&buf[pos..pos + nr]);
                    pos += nr;
                }
            }
            black_box(pos)
        })
    });
    group.finish();
}

/// Mean seconds per step of one multi-rank run, and its phase
/// breakdown and grid size. The step time is the report's `step_wall`
/// histogram mean (exact sum over exact count, across every rank-step),
/// so setup, the initial sync and the initial/final checkpoint gathers
/// stay out of the figure.
///
/// `delay_us > 0` runs under a deterministic injected per-message
/// delivery latency (fixed, data-plane only), standing in for the latency
/// the overlap exists to hide — every byte otherwise "travels" at memcpy
/// speed. Bit-exactness under the injected plan is covered by the core
/// test suite.
fn measure_step(
    cfg: &RunConfig,
    steps: u64,
    delay_us: u64,
) -> (f64, yycore::PhaseBreakdown, usize) {
    let (pth, pph) = step_decomp();
    let fault = if delay_us == 0 {
        FaultSpec::disabled()
    } else {
        FaultSpec::seeded(11)
            .with_delay_range(1.0, Duration::from_micros(delay_us), Duration::from_micros(delay_us))
            .with_data_floor(4096)
    };
    let opts = RecoveryOpts {
        fault,
        checkpoint_every: 0,
        deadline: Duration::from_secs(120),
        ..RecoveryOpts::default()
    };
    let report = run_parallel_supervised(cfg, pth, pph, steps, 0, &opts)
        .expect("bench run completes")
        .report;
    (report.step_wall.mean() / 1e9, report.phases, report.grid_points)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Chaos companion: a 2×2 supervised run loses node 1 permanently at
/// mid-run; `on_failure=retile` must exclude it, shrink to 1×2 and
/// finish. Returns (retile count, steps/s on the full layout before the
/// shrink, steps/s on the shrunk layout) — the price of losing a rank,
/// measured rather than modeled. Always 2×2 regardless of the step
/// decomposition knobs: the shrink ladder needs survivors to land on.
fn bench_elastic_retile(steps: u64) -> (usize, f64, f64) {
    let cfg = cfg();
    let kill_step = (steps / 2).max(1);
    let opts = RecoveryOpts {
        fault: FaultSpec::seeded(17).with_persistent_kill(1, kill_step),
        checkpoint_every: 1,
        deadline: Duration::from_secs(120),
        on_failure: FailurePolicy::Retile,
        max_retiles: 2,
        retile_backoff: Duration::from_millis(1),
        ..RecoveryOpts::default()
    };
    let sup = run_parallel_supervised(&cfg, 2, 2, steps, 0, &opts)
        .expect("elastic bench run completes");
    assert!(!sup.retiles.is_empty(), "the persistent kill must force a shrink");
    let before = sup
        .passes
        .iter()
        .filter(|p| (p.pth, p.pph) == (2, 2) && p.steps_advanced > 0)
        .map(|p| p.steps_per_sec())
        .fold(0.0_f64, f64::max);
    let after = sup
        .passes
        .last()
        .filter(|p| p.steps_advanced > 0)
        .map(|p| p.steps_per_sec())
        .unwrap_or(0.0);
    (sup.retiles.len(), before, after)
}

fn bench_parallel_step() -> String {
    let cfg = cfg();
    let steps = env_u64("YY_BENCH_STEP_STEPS", 10);
    let reps = env_u64("YY_BENCH_STEP_REPS", 5) as usize;
    let delay_us = env_u64("YY_BENCH_STEP_DELAY_US", 12_000);
    let (pth, pph) = step_decomp();

    // Interleave the delayed and kernel-bound runs rep by rep, so slow
    // drift of the host lands on both figures alike. The kernel-bound
    // figure (no injected latency) is dominated by compute rather than
    // by the synthetic delay floor: kernel rewrites are judged against
    // it, while the delayed figure answers the overlap question.
    let (mut delayed, mut kernel_bound) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    let mut phases = yycore::PhaseBreakdown::default();
    let mut points = 0;
    for _ in 0..reps {
        let (t, p, n) = measure_step(&cfg, steps, delay_us);
        delayed.push(t);
        (phases, points) = (p, n);
        if delay_us > 0 {
            kernel_bound.push(measure_step(&cfg, steps, 0).0);
        }
    }
    let t_over = median(delayed);
    let kb_over = if delay_us == 0 { t_over } else { median(kernel_bound) };
    let pps = points as f64 / t_over;
    println!(
        "parallel_step/kernel_bound_{pth}x{pph}            {:>12.2} µs/step",
        kb_over * 1e6
    );
    println!(
        "parallel_step/overlapped_{pth}x{pph}_delay{delay_us}us    {:>12.2} µs/step  {:.2} Melem/s",
        t_over * 1e6,
        pps / 1e6
    );
    println!(
        "  phases (all-rank s): pack {:.4}  interior {:.4}  wait {:.4}  boundary {:.4}  overset {:.4}  hidden {:.2}",
        phases.pack_s,
        phases.interior_s,
        phases.wait_s,
        phases.boundary_s,
        phases.overset_s,
        phases.hidden_comm_fraction()
    );

    let (retiles, rate_before, rate_after) = bench_elastic_retile(steps);
    println!(
        "parallel_step/elastic_retile_2x2to1x2             {retiles} retile(s)  \
         {rate_before:.1} steps/s before -> {rate_after:.1} steps/s after shrink"
    );

    format!(
        concat!(
            "{{\n",
            "  \"bench\": \"step\",\n",
            "  \"grid_points\": {},\n",
            "  \"steps\": {},\n",
            "  \"reps\": {},\n",
            "  \"decomp\": [{}, {}],\n",
            "  \"injected_delay_us\": {},\n",
            "  \"overlapped\": {{\n",
            "    \"median_ns_per_step\": {:.0},\n",
            "    \"points_per_s\": {:.0},\n",
            "    \"phases_s\": {{ \"pack\": {:.6}, \"interior\": {:.6}, \"wait\": {:.6}, ",
            "\"boundary\": {:.6}, \"overset\": {:.6} }},\n",
            "    \"hidden_comm_fraction\": {:.4}\n",
            "  }},\n",
            "  \"kernel_bound\": {{\n",
            "    \"overlapped_median_ns_per_step\": {:.0}\n",
            "  }},\n",
            "  \"elastic\": {{\n",
            "    \"retiles\": {},\n",
            "    \"steps_per_sec_before_shrink\": {:.2},\n",
            "    \"steps_per_sec_after_shrink\": {:.2}\n",
            "  }}\n",
            "}}\n"
        ),
        points,
        steps,
        reps,
        pth,
        pph,
        delay_us,
        t_over * 1e9,
        pps,
        phases.pack_s,
        phases.interior_s,
        phases.wait_s,
        phases.boundary_s,
        phases.overset_s,
        phases.hidden_comm_fraction(),
        kb_over * 1e9,
        retiles,
        rate_before,
        rate_after
    )
}

fn main() {
    let mut harness = Harness::from_args();
    bench_halo_roundtrip();
    bench_overset_donate_fill(&mut harness);
    let json = bench_parallel_step();
    if let Ok(path) = std::env::var("BENCH_STEP_JSON") {
        std::fs::write(&path, &json).expect("write BENCH_step.json");
        println!("wrote {path}");
    }
    harness.summary();
}
