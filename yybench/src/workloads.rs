//! The three workloads. Each is a closed loop: one operation at a time,
//! the next starting when the previous one (and its output check) ends.
//! A failed operation or check is counted and gives no timing sample.

use crate::host::process_cpu_s;
use crate::replay::{timed_step, Layer, Replay};
use crate::stats::{median, tail};
use crate::{Outcome, Workload, KERNELS};
use std::path::Path;
use std::time::Instant;
use yy_mesh::{build_overset_columns, Metric};
use yy_obs::counters::{kernel, CounterSnapshot};
use yy_obs::HistogramSnapshot;
use yy_parcomm::Universe;
use yycore::checkpoint::Checkpoint;
use yycore::{
    merge_shards, run_parallel_supervised, CkptCodec, ObsOpts, PhaseBreakdown, RecoveryOpts,
    RunConfig, SerialSim, SupervisedReport, TraceMode,
};

/// Repetitions of each per-layer set-up and probe timing (median taken).
const REPS: usize = 5;

/// Largest relative drift of the total mass `serial_deep` accepts
/// between its initial state and any checked state. The overset
/// interpolation and wall conditions do not conserve mass exactly: at
/// nr=128 the drift is about 2.5e-6 after 200 steps.
pub const MASS_DRIFT_TOL: f64 = 1e-5;

/// Steps the `checkpoint_restart` continuation runs past the restart.
const CONTINUATION_STEPS: u64 = 2;

/// Dispatch one workload. `dir` is an empty scratch directory.
pub fn run(
    w: Workload,
    cfg: &RunConfig,
    seconds: f64,
    trace: bool,
    dir: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.notes.push(format!(
        "workload: {} nr={} nth={} points={} seed={} input_digest={:016x}",
        w.name(),
        cfg.nr,
        cfg.nth_nominal,
        cfg.grid().total_points(),
        cfg.init.seed,
        initial_digest(cfg)
    ));
    match w {
        Workload::SerialDeep => serial_deep(cfg, seconds, trace, dir, &mut out)?,
        Workload::Panels1x1 | Workload::CheckpointRestart => {
            parallel(w, cfg, seconds, trace, dir, &mut out)?
        }
    }
    out.notes.push(format!(
        "checks: attempted={} failed={} failed_frac={}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    ));
    Ok(out)
}

/// Digest of the serial-format initial state the configuration (and so
/// the seed) generates.
pub fn initial_digest(cfg: &RunConfig) -> u64 {
    crate::digest(&ck_bytes(&Checkpoint::capture(&SerialSim::new(
        cfg.clone(),
    ))))
}

/// A checkpoint's serialized bytes (the byte-identity check currency).
pub fn ck_bytes(ck: &Checkpoint) -> Vec<u8> {
    let mut v = Vec::new();
    ck.write_to(&mut v).expect("writing to a Vec cannot fail");
    v
}

/// What the timed operations of one run measured. Every time is CPU
/// time, summed over the process's threads (`host::process_cpu_s`):
/// on a shared host the hypervisor steals a virtual CPU for whole
/// milliseconds, and with one rank per CPU the other rank then waits,
/// so wall time measures the neighbours as much as the program. Wall
/// figures are kept for a note. Every operation gives its step
/// samples, one set-up sample and one restart sample, so each median
/// spreads over the whole run.
#[derive(Default)]
struct Samples {
    /// CPU ms per step: one sample per step (`serial_deep`) or per
    /// supervised run (parallel workloads; see `finish_runs`).
    step_cpu_ms: Vec<f64>,
    /// Wall ms per step, sampled the same way; a note only.
    step_wall_ms: Vec<f64>,
    /// CPU seconds of each whole supervised run, set-up included.
    run_cpu_s: Vec<f64>,
    steps: u64,
    ops: u64,
    /// CPU seconds of each set-up.
    setup_s: Vec<f64>,
    /// CPU seconds of each restart.
    restart_s: Vec<f64>,
}

impl Samples {
    /// One serial operation's steps, each `(wall ms, CPU ms)`.
    fn push_steps(&mut self, steps: &[(f64, f64)]) {
        self.step_wall_ms.extend(steps.iter().map(|s| s.0));
        self.step_cpu_ms.extend(steps.iter().map(|s| s.1));
        self.steps += steps.len() as u64;
        self.ops += 1;
    }

    /// One supervised run of `steps` steps: its CPU seconds and its
    /// mean step wall in ms.
    fn push_run(&mut self, cpu_s: f64, step_wall_ms: f64, steps: u64) {
        self.run_cpu_s.push(cpu_s);
        self.step_wall_ms.push(step_wall_ms);
        self.steps += steps;
        self.ops += 1;
    }

    /// Median CPU ms per step.
    fn p50(&self) -> f64 {
        median(&self.step_cpu_ms)
    }

    /// Turn each supervised run's CPU time into a step sample: the run
    /// less the median set-up (a zero-step run of the same options),
    /// over its `steps` steps.
    fn finish_runs(&mut self, steps: u64) {
        let setup = median(&self.setup_s);
        self.step_cpu_ms = self
            .run_cpu_s
            .iter()
            .map(|&c| (c - setup) * 1e3 / steps as f64)
            .collect();
    }

    /// Record the end-to-end metrics; `what` names a step sample.
    fn report(&self, out: &mut Outcome, points: usize, what: &str) {
        let p50 = self.p50();
        out.set("step_cpu_ms_p50", p50);
        let (p, v) = tail(&self.step_cpu_ms, 10);
        out.set("step_cpu_ms_tail", v);
        out.set("cpu_ns_per_point_step", p50 * 1e6 / points as f64);
        out.set("setup_s", median(&self.setup_s));
        out.set("restart_s", median(&self.restart_s));
        out.notes.push(format!(
            "step_cpu_ms_tail: p{p} of {} samples ({what}); {} operations, {} steps timed",
            self.step_cpu_ms.len(),
            self.ops,
            self.steps
        ));
        let wall = median(&self.step_wall_ms);
        out.notes.push(format!(
            "wall clock (no bound; moves with host load): step_ms_p50={wall:.3} steps_per_s={:.3}",
            1e3 / wall
        ));
    }
}

/// Run operations until `seconds` have passed (at least one).
fn until(seconds: f64, mut op: impl FnMut() -> Result<(), String>) -> Result<(), String> {
    let t = Instant::now();
    loop {
        op()?;
        if t.elapsed().as_secs_f64() >= seconds {
            return Ok(());
        }
    }
}

/// Median wall seconds of `REPS` calls of `f`, and the last result.
fn median_wall<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
    let mut walls = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        let t = Instant::now();
        last = Some(f()?);
        walls.push(t.elapsed().as_secs_f64());
    }
    Ok((median(&walls), last.expect("REPS > 0")))
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// CPU seconds used since `c0`, a `process_cpu_s` reading.
fn cpu_since(c0: f64) -> f64 {
    process_cpu_s() - c0
}

/// Run one step with `step` (which returns its wall in ns) and return
/// `(wall ms, CPU ms)`.
fn cpu_step(step: impl FnOnce() -> u64) -> (f64, f64) {
    let c = process_cpu_s();
    let wall_ns = step();
    (wall_ns as f64 / 1e6, cpu_since(c) * 1e3)
}

/// Set-up layer metrics, timed by calling the constructors directly,
/// and the RK4 state working set (state, y0, k, stage; both panels).
fn setup_layers(cfg: &RunConfig, ranks: usize, out: &mut Outcome) -> Result<(), String> {
    let grid = cfg.grid();
    let (metric_s, _) = median_wall(|| Ok(Metric::full(&grid)))?;
    let (cols_s, cols) = median_wall(|| build_overset_columns(&grid).map_err(|e| e.to_string()))?;
    out.set("setup.metric_ms", metric_s * 1e3);
    out.set("setup.overset_columns_ms", cols_s * 1e3);
    out.set("mesh.overset.columns", cols.len() as f64);
    if ranks > 1 {
        let (uni_s, _) = median_wall(|| Ok(Universe::run(ranks, |c| c.rank())))?;
        out.set("setup.universe_ms", uni_s * 1e3);
    }
    let s = grid.full_shape();
    let padded = s.nr * (s.nth + 2 * s.gth) * (s.nph + 2 * s.gph);
    let state_bytes = 2 * 8 * padded * 8;
    let ws_mib = 4.0 * state_bytes as f64 / (1024.0 * 1024.0);
    out.set("memory.state_working_set_mib", ws_mib);
    out.notes.push(format!(
        "memory: RK4 state working set {ws_mib:.1} MiB (compare the host L3); byte counts are computed, not measured"
    ));
    Ok(())
}

/// Roofline inputs per kernel from counter totals over `steps` steps:
/// flops and computed bytes per step, flops per computed byte.
fn roofline(k: &CounterSnapshot, steps: u64, out: &mut Outcome) {
    for (id, name) in KERNELS.iter().enumerate() {
        let s = k.kernels[id];
        out.set(
            &format!("roofline.{name}.flops_per_step"),
            s.flops as f64 / steps as f64,
        );
        out.set(
            &format!("roofline.{name}.bytes_per_step"),
            (s.bytes_read + s.bytes_written) as f64 / steps as f64,
        );
        out.set(&format!("roofline.{name}.flops_per_byte"), s.intensity());
    }
}

fn gib_s(bytes: u64, wall_ns: f64) -> f64 {
    if wall_ns > 0.0 {
        bytes as f64 / (wall_ns / 1e9) / (1u64 << 30) as f64
    } else {
        0.0
    }
}

// ---------------------------------------------------------------- serial

fn serial_deep(
    cfg: &RunConfig,
    seconds: f64,
    trace: bool,
    dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let per_op = Workload::SerialDeep.steps_per_op();
    let mut sim = SerialSim::new(cfg.clone());
    let mut replay = Replay::new(cfg.clone());
    let points = sim.grid.total_points();
    let m0 = sim.diagnostics().mass;
    let mut diag_ms = Vec::new();
    let mut max_drift = 0.0_f64;
    let mut mass_ok = |sim: &SerialSim, diag_ms: &mut Vec<f64>| {
        let t = Instant::now();
        let mass = sim.diagnostics().mass;
        diag_ms.push(secs(t) * 1e3);
        let drift = ((mass - m0) / m0).abs();
        max_drift = max_drift.max(drift);
        drift <= MASS_DRIFT_TOL
    };

    // Restart source: the initial state on disk. A restart sample is
    // the CPU time of `Checkpoint::load` + `SerialSim::new` (the set-up
    // sample) + `restore`, a solver ready to step.
    let path = dir.join("serial.ck");
    let initial = Checkpoint::capture(&sim);
    initial
        .save(&path)
        .map_err(|e| format!("saving {}: {e}", path.display()))?;
    let initial = ck_bytes(&initial);
    let mut restored: Option<SerialSim> = None;
    let mut restart = |s: &mut Samples| -> Result<(), String> {
        restored = None;
        let c = process_cpu_s();
        let ck = Checkpoint::load(&path).map_err(|e| format!("loading {}: {e}", path.display()))?;
        let c_new = process_cpu_s();
        let mut fresh = SerialSim::new(cfg.clone());
        s.setup_s.push(cpu_since(c_new));
        ck.restore(&mut fresh);
        s.restart_s.push(cpu_since(c));
        restored = Some(fresh);
        Ok(())
    };

    // Untraced: `SerialSim::advance`, timed per call from outside.
    let mut untraced = Samples::default();
    until(if trace { seconds / 2.0 } else { seconds }, || {
        let steps: Vec<(f64, f64)> = (0..per_op)
            .map(|_| cpu_step(|| timed_step(&mut sim)))
            .collect();
        let ok =
            !sim.yin.has_non_finite() && !sim.yang.has_non_finite() && mass_ok(&sim, &mut diag_ms);
        out.op(ok);
        if ok {
            untraced.push_steps(&steps);
        }
        restart(&mut untraced)
    })?;

    if trace {
        // Traced: the same steps replayed from public calls with spans.
        let mut traced = Samples::default();
        let mut wall_ms = 0.0;
        until(seconds / 2.0, || {
            let mut healthy = true;
            let steps: Vec<(f64, f64)> = (0..per_op)
                .map(|_| {
                    let s = cpu_step(|| replay.step());
                    healthy &= replay.health();
                    s
                })
                .collect();
            wall_ms += steps.iter().map(|s| s.0).sum::<f64>();
            let ok = healthy && mass_ok(&replay.sim, &mut diag_ms);
            out.op(ok);
            if ok {
                traced.push_steps(&steps);
            }
            restart(&mut traced)
        })?;
        let n = replay.sim.step as f64;
        let per_step = |ns: u64| ns as f64 / n / 1e6;
        let layer = replay.layer_ns();
        let in_step: u64 = [
            Layer::Cfl,
            Layer::Copy,
            Layer::Rhs,
            Layer::Combine,
            Layer::FillPair,
        ]
        .iter()
        .map(|&l| layer[l as usize])
        .sum();
        out.set("mhd.rhs.ms_per_step", per_step(layer[Layer::Rhs as usize]));
        out.set("mhd.cfl.ms_per_step", per_step(layer[Layer::Cfl as usize]));
        out.set(
            "mhd.health.ms_per_step",
            per_step(layer[Layer::Health as usize]),
        );
        out.set(
            "field.combine.ms_per_step",
            per_step(layer[Layer::Combine as usize]),
        );
        out.set(
            "core.fill_pair.ms_per_step",
            per_step(layer[Layer::FillPair as usize]),
        );
        out.set(
            "core.unattributed_ms_per_step",
            wall_ms / n - per_step(in_step),
        );
        out.set("mhd.diagnostics.ms_per_sample", median(&diag_ms));
        out.set("checkpoint.restore_ms", median(&traced.restart_s) * 1e3);
        out.set("trace.overhead_ratio", traced.p50() / untraced.p50());

        // Work counts: the untraced solver's own always-on counters.
        let k = sim.meter.counters().snapshot();
        let su = sim.step;
        let rhs = k.kernels[kernel::RHS as usize];
        let comb = k.kernels[kernel::RK4_COMBINE as usize];
        let rhs_ns = layer[Layer::Rhs as usize] as f64 / n;
        let comb_ns = layer[Layer::Combine as usize] as f64 / n;
        out.set(
            "mhd.rhs.mflops",
            rhs.flops as f64 / su as f64 / rhs_ns * 1e3,
        );
        out.set("mhd.rhs.flops_per_byte", rhs.intensity());
        out.set(
            "mhd.rhs.calls_per_stage",
            rhs.calls as f64 / (su * 4 * 2) as f64,
        );
        out.set("mhd.rhs.avg_vector_length", rhs.avg_vector_length());
        out.set(
            "field.combine.gib_s",
            gib_s((comb.bytes_read + comb.bytes_written) / su, comb_ns),
        );
        let donate = k.kernels[kernel::OVERSET_DONATE as usize];
        out.set(
            "mesh.overset.ms_per_step",
            donate.wall_ns as f64 / su as f64 / 1e6,
        );
        let kernel_ns: u64 = k.kernels.iter().map(|s| s.wall_ns).sum();
        out.set(
            "core.kernel_coverage",
            kernel_ns as f64 / (untraced.step_wall_ms.iter().sum::<f64>() * 1e6),
        );
        roofline(&k, su, out);
        setup_layers(cfg, 1, out)?;
        out.notes.push(
            "absent (0) on serial_deep: parcomm.*, core.hidden_comm_fraction, core.imbalance, \
             setup.universe_ms (no ranks), core.phase_coverage (the serial solver records no phases), \
             output.*, checkpoint.merge_ms (no output)"
                .into(),
        );
    }
    untraced.report(out, points, "one step each");
    out.notes.push(format!(
        "mass drift: max {max_drift:.3e} (tolerance {MASS_DRIFT_TOL:e})"
    ));

    // Output checks: the restored solver holds the saved state, and the
    // public-call replay is bit-identical to `SerialSim::advance`.
    let restored = restored.expect("at least one operation ran");
    out.op(ck_bytes(&Checkpoint::capture(&restored)) == initial);
    drop(restored);
    Checkpoint::capture(&sim).restore(&mut replay.sim);
    timed_step(&mut sim);
    replay.step();
    let same = ck_bytes(&Checkpoint::capture(&sim)) == ck_bytes(&Checkpoint::capture(&replay.sim));
    out.op(same);
    out.notes
        .push(format!("replay == SerialSim::advance bitwise: {same}"));
    Ok(())
}

// -------------------------------------------------------------- parallel

/// Reports of the traced runs, summed.
#[derive(Default)]
struct Agg {
    steps: u64,
    kernels: CounterSnapshot,
    phases: PhaseBreakdown,
    step_wall: HistogramSnapshot,
    recv_wait: HistogramSnapshot,
    overset_bytes: u64,
    halo_bytes: u64,
    max_queue_depth: u64,
    imbalance: Vec<f64>,
    write_wall_s: f64,
    writer_wait_s: f64,
    bytes_raw: u64,
    bytes_written: u64,
    last: Option<Checkpoint>,
}

impl Agg {
    fn add(&mut self, sup: &SupervisedReport, steps: u64) {
        let r = &sup.report;
        self.steps += steps;
        self.kernels = self.kernels.merged(r.kernels);
        let (p, q) = (&mut self.phases, &r.phases);
        p.pack_s += q.pack_s;
        p.interior_s += q.interior_s;
        p.wait_s += q.wait_s;
        p.boundary_s += q.boundary_s;
        p.overset_s += q.overset_s;
        p.writer_wait_s += q.writer_wait_s;
        self.step_wall = self.step_wall.merged(r.step_wall);
        self.recv_wait = self.recv_wait.merged(r.recv_wait);
        self.overset_bytes += r.overset_bytes;
        self.halo_bytes += r.halo_bytes;
        self.max_queue_depth = self.max_queue_depth.max(r.max_queue_depth);
        self.imbalance.push(sup.achieved_imbalance);
        self.write_wall_s += r.io.write_wall_s;
        self.writer_wait_s += r.io.writer_wait_s;
        self.bytes_raw += r.io.bytes_raw;
        self.bytes_written += r.io.bytes_written;
        self.last = Some(sup.final_checkpoint.clone());
    }

    /// Per-layer metrics from the summed reports of `ranks`-rank runs.
    /// Times are per rank-step: what one rank spends per step.
    fn report(&self, ranks: u64, out: &mut Outcome) {
        let steps = self.steps.max(1);
        let rank_steps = (steps * ranks) as f64;
        let k = &self.kernels;
        let per = |ns: f64| ns / rank_steps / 1e6;
        let rhs = k.kernels[kernel::RHS as usize];
        let comb = k.kernels[kernel::RK4_COMBINE as usize];
        let health = k.kernels[kernel::HEALTH_SCAN as usize];
        out.set("mhd.rhs.ms_per_step", per(rhs.wall_ns as f64));
        out.set("mhd.rhs.mflops", rhs.mflops());
        out.set("mhd.rhs.flops_per_byte", rhs.intensity());
        out.set(
            "mhd.rhs.calls_per_stage",
            rhs.calls as f64 / (4.0 * rank_steps),
        );
        out.set("mhd.rhs.avg_vector_length", rhs.avg_vector_length());
        out.set("mhd.health.ms_per_step", per(health.wall_ns as f64));
        out.set("field.combine.ms_per_step", per(comb.wall_ns as f64));
        out.set(
            "field.combine.gib_s",
            gib_s(comb.bytes_read + comb.bytes_written, comb.wall_ns as f64),
        );
        let ph = &self.phases;
        out.set("mesh.overset.ms_per_step", per(ph.overset_s * 1e9));
        out.set("parcomm.wait_ms_per_step", per(ph.wait_s * 1e9));
        out.set(
            "parcomm.recv_wait_us_p50",
            self.recv_wait.p50() as f64 / 1e3,
        );
        let n = self.recv_wait.count;
        let q = if n > 10 {
            (n - 10) as f64 / n as f64
        } else {
            1.0
        };
        out.set(
            "parcomm.recv_wait_us_tail",
            self.recv_wait.quantile(q) as f64 / 1e3,
        );
        out.notes.push(format!(
            "parcomm.recv_wait_us_tail: q={q:.4} of {n} receives; log2-bucket upper edges (2x resolution)"
        ));
        out.set(
            "parcomm.overset_bytes_per_step",
            self.overset_bytes as f64 / steps as f64,
        );
        out.set(
            "parcomm.halo_bytes_per_step",
            self.halo_bytes as f64 / steps as f64,
        );
        out.set("parcomm.max_queue_depth", self.max_queue_depth as f64);
        out.set("core.hidden_comm_fraction", ph.hidden_comm_fraction());
        out.set("core.imbalance", median(&self.imbalance));
        let rank_ns = self.step_wall.sum as f64;
        out.set("core.phase_coverage", ph.total_s() * 1e9 / rank_ns);
        let kernel_ns: u64 = k.kernels.iter().map(|s| s.wall_ns).sum();
        out.set("core.kernel_coverage", kernel_ns as f64 / rank_ns);
        out.set(
            "core.unattributed_ms_per_step",
            per(rank_ns - ph.total_s() * 1e9),
        );
        out.set(
            "output.write_ms_per_step",
            self.write_wall_s * 1e3 / steps as f64,
        );
        out.set(
            "output.writer_wait_ms_per_step",
            self.writer_wait_s * 1e3 / steps as f64,
        );
        out.set(
            "output.bytes_written_per_step",
            self.bytes_written as f64 / steps as f64,
        );
        if self.bytes_written > 0 {
            out.set(
                "output.compression_ratio",
                self.bytes_raw as f64 / self.bytes_written as f64,
            );
        }
        if self.write_wall_s > 0.0 {
            out.set(
                "output.write_mib_s",
                self.bytes_written as f64 / self.write_wall_s / (1024.0 * 1024.0),
            );
        }
        roofline(k, steps, out);
    }
}

/// Mean step wall of one supervised run (ms per rank-step), from the
/// report's `step_wall` histogram. Its sum and count are exact; its
/// log2-bucket quantiles resolve only 2x, too coarse for a bound.
fn mean_step_ms(r: &SupervisedReport) -> f64 {
    r.report.step_wall.mean() / 1e6
}

/// One timed parallel operation: the supervised run's report and the
/// CPU seconds of its set-up, of the run itself (set-up included) and
/// of its restart, plus the wall of `merge_shards` (traced runs only).
struct Op {
    sup: SupervisedReport,
    setup_s: f64,
    run_cpu_s: f64,
    restart_s: f64,
    merge_ms: f64,
}

fn run_1x1(
    cfg: &RunConfig,
    steps: u64,
    sample_every: u64,
    opts: &RecoveryOpts,
) -> Result<SupervisedReport, String> {
    run_parallel_supervised(cfg, 1, 1, steps, sample_every, opts)
}

fn resume_opts(ck: Checkpoint) -> RecoveryOpts {
    RecoveryOpts {
        resume_from: Some(ck),
        ..RecoveryOpts::default()
    }
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

fn parallel(
    w: Workload,
    cfg: &RunConfig,
    seconds: f64,
    trace: bool,
    dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let per_op = w.steps_per_op();
    let ranks = w.rank_threads() as u64;
    let ckpt = w == Workload::CheckpointRestart;
    let shard_dir = dir.join("shards");
    // Default options; `checkpoint_restart` adds telemetry and
    // synchronous delta shards every step.
    let opts_for = |mode: TraceMode| {
        let mut o = RecoveryOpts {
            obs: ObsOpts {
                mode,
                ..ObsOpts::default()
            },
            ..RecoveryOpts::default()
        };
        if ckpt {
            o.obs.series = true;
            o.checkpoint_every = 1;
            o.ckpt_dir = Some(shard_dir.clone());
            o.ckpt_async = false;
            o.ckpt_compress = CkptCodec::Delta;
        }
        o
    };
    let sample_every = u64::from(ckpt);
    let (untraced_opts, traced_opts) = (opts_for(TraceMode::Auto), opts_for(TraceMode::Enabled));

    // References, computed outside the timed window.
    let ref_path = dir.join("reference.ck");
    let reference = if ckpt {
        // The uninterrupted run the restarted continuation must match.
        ck_bytes(
            &run_1x1(
                cfg,
                per_op + CONTINUATION_STEPS,
                0,
                &RecoveryOpts::default(),
            )?
            .final_checkpoint,
        )
    } else {
        // A serial run of the same grid and seed, also saved as the
        // state `panels_1x1` restarts from.
        let mut s = SerialSim::new(cfg.clone());
        s.run(per_op, 0);
        let ck = Checkpoint::capture(&s);
        ck.save(&ref_path)
            .map_err(|e| format!("saving {}: {e}", ref_path.display()))?;
        ck_bytes(&ck)
    };

    // The state a zero-step run must return: the initial condition.
    let initial = ck_bytes(&Checkpoint::capture(&SerialSim::new(cfg.clone())));

    let mut merge_ms = Vec::new();
    let mut op =
        |opts: &RecoveryOpts, s: &mut Samples, agg: Option<&mut Agg>| -> Result<(), String> {
            if ckpt {
                fresh_dir(&shard_dir)?;
            }
            // Set-up, the run and its restart; an error is a failed
            // operation.
            let attempt = || -> Result<(Op, bool), String> {
                // Set-up: a zero-step run of the same options (spawn,
                // build, initial sync and capture, final gather, join).
                let c = process_cpu_s();
                let zero = run_1x1(cfg, 0, sample_every, opts)?;
                let setup_s = cpu_since(c);
                let c = process_cpu_s();
                let sup = run_1x1(cfg, per_op, sample_every, opts)?;
                let run_cpu_s = cpu_since(c);
                let started = ck_bytes(&zero.final_checkpoint) == initial;
                // Restart: a checkpoint to a resumed solver ready to step (a
                // zero-step `resume_from` run).
                let c = process_cpu_s();
                let t = Instant::now();
                let (restart_s, merge_ms, ok) = if ckpt {
                    // Read the shards back: merge the newest set, restart from it.
                    let merged = merge_shards(cfg, &shard_dir, None)
                        .map_err(|e| format!("merge_shards: {e}"))?;
                    let merge_ms = secs(t) * 1e3;
                    let resumed = run_1x1(cfg, merged.step, 0, &resume_opts(merged.clone()))?;
                    let restart_s = cpu_since(c);
                    let same = ck_bytes(&merged) == ck_bytes(&sup.final_checkpoint)
                        && ck_bytes(&resumed.final_checkpoint) == ck_bytes(&merged);
                    let cont = run_1x1(cfg, per_op + CONTINUATION_STEPS, 0, &resume_opts(merged))?;
                    let ok = same && ck_bytes(&cont.final_checkpoint) == reference;
                    (restart_s, merge_ms, ok)
                } else {
                    let ck = Checkpoint::load(&ref_path)
                        .map_err(|e| format!("loading {}: {e}", ref_path.display()))?;
                    let resumed = run_1x1(cfg, ck.step, 0, &resume_opts(ck))?;
                    let restart_s = cpu_since(c);
                    let ok = ck_bytes(&sup.final_checkpoint) == reference
                        && ck_bytes(&resumed.final_checkpoint) == reference;
                    (restart_s, 0.0, ok)
                };
                let op = Op {
                    sup,
                    setup_s,
                    run_cpu_s,
                    restart_s,
                    merge_ms,
                };
                Ok((op, started && ok))
            };
            match attempt() {
                Err(e) => {
                    out.op(false);
                    out.notes.push(format!("operation failed: {e}"));
                }
                Ok((op, ok)) => {
                    out.op(ok);
                    if ok {
                        s.push_run(op.run_cpu_s, mean_step_ms(&op.sup), per_op);
                        s.setup_s.push(op.setup_s);
                        s.restart_s.push(op.restart_s);
                        merge_ms.push(op.merge_ms);
                        if let Some(agg) = agg {
                            agg.add(&op.sup, per_op);
                        }
                    }
                }
            }
            Ok(())
        };

    let mut untraced = Samples::default();
    until(if trace { seconds / 2.0 } else { seconds }, || {
        op(&untraced_opts, &mut untraced, None)
    })?;
    untraced.finish_runs(per_op);
    let mut agg = Agg::default();
    if trace {
        let mut traced = Samples::default();
        until(seconds / 2.0, || {
            op(&traced_opts, &mut traced, Some(&mut agg))
        })?;
        traced.finish_runs(per_op);
        out.set("trace.overhead_ratio", traced.p50() / untraced.p50());
        out.set("checkpoint.restore_ms", median(&traced.restart_s) * 1e3);
    }
    let what = format!("CPU of one {per_op}-step run less the median set-up, each");
    untraced.report(out, cfg.grid().total_points(), &what);

    if trace {
        agg.report(ranks, out);
        if ckpt {
            out.set("checkpoint.merge_ms", median(&merge_ms));
        }
        // Layers the parallel solver does not time: the same public
        // calls on the run's final state, over both panels.
        if let Some(ck) = &agg.last {
            let mut s = SerialSim::new(cfg.clone());
            ck.restore(&mut s);
            let (cfl_s, _) = median_wall(|| Ok(s.auto_dt()))?;
            let evals = (0..per_op).filter(|n| n % cfg.dt_every as u64 == 0).count();
            out.set(
                "mhd.cfl.ms_per_step",
                cfl_s * 1e3 * evals as f64 / per_op as f64,
            );
            let (diag_s, _) = median_wall(|| Ok(s.diagnostics()))?;
            out.set("mhd.diagnostics.ms_per_sample", diag_s * 1e3);
        }
        setup_layers(cfg, ranks as usize, out)?;
        out.notes.push(format!(
            "absent (0) on {}: core.fill_pair.ms_per_step (the serial overset path){}{}",
            w.name(),
            if ckpt {
                ""
            } else {
                ", output.* and checkpoint.merge_ms (no output)"
            },
            ", parcomm.halo_bytes_per_step is 0 at 1x1: halo exchange needs pth*pph > 1"
        ));
        out.notes.push(
            "mhd.cfl and mhd.diagnostics: SerialSim::auto_dt / diagnostics timed on the run's final state \
             (both panels; the parallel solver does not time them)"
                .into(),
        );
    }
    Ok(())
}
