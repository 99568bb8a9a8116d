//! `yycore` — command-line driver for the Yin-Yang geodynamo code.
//!
//! ```text
//! yycore run      [key=value ...]      run a simulation (see options)
//! yycore resume   <ckpt> [key=value]   continue from a checkpoint
//! yycore slice    <ckpt> [out_dir]     equatorial/meridional slices from a checkpoint
//! yycore parallel [key=value ...]      run the flat-MPI-style parallel driver
//!                                      (always supervised: fault-free, it is
//!                                      the plain run)
//! yycore merge    <shard_dir> <out.ck> [step=N] [key=value]
//!                                      reassemble per-rank checkpoint shards
//!                                      into a serial-format checkpoint
//! yycore profile  [key=value ...]      serial run + per-kernel roofline table
//!                                      and measured-profile ES projection
//! yycore tables                        print Tables I-III and List 1
//! yycore tracecheck <trace.json>       validate a Chrome trace artifact
//! yycore doctor   [key=value ...]      diagnose observability artifacts:
//!                                      critical path, stragglers, ledger
//!                                      verdicts (see doctor keys below)
//! yycore watch    <url|report.json> [key=value]
//!                                      live terminal dashboard: sparkline
//!                                      panels over the science telemetry,
//!                                      from a metrics endpoint or a v6
//!                                      report artifact (see watch keys)
//!
//! common keys: any RunConfig key (nr, nth, mu, omega, ...) plus
//!   steps=N        total steps                     [default 200]
//!   sample=N       diagnostics every N steps       [default 10]
//!   ckpt=PATH      write a checkpoint here at the end
//!   series=PATH    write the CSV time series here
//!   report_json=P  write the RunReport JSON artifact here
//!   log=PATH       write JSONL structured logs here
//!   pth=N pph=N    process grid (parallel only)    [default 1x2]
//!   trace=PATH     (parallel) record per-rank flight recorders and
//!                  write a Chrome trace-event JSON (Perfetto-loadable);
//!                  failed passes dump PATH.postmortem.
//!   profile_every=N (parallel) every N steps each rank appends
//!                  per-kernel MFLOPS counter samples to its flight
//!                  recorder ("C"-phase tracks in the Chrome trace).
//!   metrics_port=N (parallel) serve a live Prometheus text exposition
//!                  of the allreduced counters on 127.0.0.1:N for the
//!                  duration of the run.
//!
//! science-telemetry keys (run/resume/parallel; see DESIGN.md §6j):
//!   telemetry=1    arm the in-situ series store + physics watchdog;
//!                  alert edges land in the report (`alerts`), the
//!                  Chrome trace, and the metrics endpoint. Bit-exact:
//!                  the armed trajectory is identical to unarmed.
//!   rules=PATH     watchdog rules file, one `name: channel kind k=v`
//!                  rule per line           [default: built-in ruleset]
//!   dt_collapse_at=N  fault-inject a CFL collapse: from step N the
//!                  *applied* dt shrinks geometrically while the CFL
//!                  estimate itself is untouched (the seeded blow-up
//!                  smoke in ci.sh — the watchdog must catch it)
//!   dt_collapse_factor=F  per-step collapse factor      [default 0.5]
//!   metrics_hold_ms=N  (parallel) keep the metrics endpoint serving
//!                  this long after the run ends, so `yycore watch`
//!                  can scrape the final state race-free
//!
//! watch keys:
//!   once=1         print a single frame and exit (the CI smoke shape)
//!   interval_ms=N  poll cadence in loop mode            [default 1000]
//!   frames=N       stop after N frames  [default: unbounded from a URL,
//!                  1 from a report file]
//!   width=N        sparkline width in samples             [default 48]
//!   retries=N      connection retries before giving up    [default 20]
//!
//! output-pipeline keys (see DESIGN.md §6h):
//!   snapshot_every=N (run) stream an equatorial temperature slice
//!                  every N steps plus the live energy CSV into
//!                  snap_dir, through the double-buffered writer
//!   snap_dir=PATH  (run) directory for streamed products [default out]
//!   ckpt_dir=PATH  (parallel) write per-rank checkpoint shards here at
//!                  every checkpoint (pair with ckpt_every=N); restart
//!                  with resume=PATH pointing at the directory, or
//!                  reassemble with `yycore merge`.
//!   ckpt_async=B   0|1 — write shards on a background writer thread,
//!                  overlapped with the next steps' compute [default 1]
//!   ckpt_compress=C  none|rle|delta shard payload codec: rle is
//!                  self-contained run-length coding, delta XORs
//!                  against the previous shard first    [default none]
//!
//! fault-tolerance keys (parallel only; every parallel run is supervised
//! and recovers from its last checkpoint — these keys inject faults and
//! tune the recovery):
//!   fault_seed=N   deterministic fault-schedule seed  [default 0]
//!   drop=P         message drop probability (bounded retransmission)
//!   delay=P        message delay probability
//!   delay_us=N     maximum injected delay in microseconds [default 500]
//!   delay_src=N    restrict delay injection to messages *sent by* this
//!                  world rank — a deterministic late sender the doctor
//!                  must name (other ranks' messages deliver untouched)
//!   dup=P          message duplication probability
//!   kill_rank=N    kill this world rank (a *node* id under re-tiling) ...
//!   kill_step=N    ... at this step               [default 0]
//!   kill_persistent=1  re-kill on every pass (a permanently bad node,
//!                  not a transient) — pair with on_failure=retile
//!   ckpt_every=N   checkpoint every N steps       [default 0 = ends only]
//!   deadline_ms=N  per-receive comm deadline      [default 30000]
//!
//! elastic-decomposition keys (parallel only):
//!   on_failure=P   retry|retile|abort — what to do with a *persistent*
//!                  fault (same node, same failure, twice) [default retry]
//!   max_retiles=N  layout-shrink budget under retile    [default 2]
//!   retile_backoff_ms=N  backoff before a re-tiled pass [default 50]
//!   weights=W      uniform|measured tile cuts — measured balances
//!                  per-column cost from a serial probe's kernel
//!                  counters                             [default uniform]
//!   resume=PATH    start from this serial-format checkpoint, or from a
//!                  shard directory (the newest complete shard set is
//!                  merged first). Any producer: serial run or any tile
//!                  layout — restarts are layout-portable and bit-exact
//!
//! doctor keys (any combination; at least one of trace/report/ledger):
//!   trace=PATH     re-import a Chrome trace and print the critical-path
//!                  / straggler diagnosis extracted from it
//!   report=PATH    print the `analysis` section of a v5 report artifact
//!   ledger=PATH    cross-run regression ledger (JSONL): compare the
//!                  newest entry against its history and print verdicts
//!   ingest=REPORT  summarize a report JSON into a new ledger entry and
//!                  append it to ledger=PATH before comparing
//!   label=L        source label stamped on ingested entries [default run]
//!   tol=F          baseline noise tolerance (relative)    [default 0.05]
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use yy_obs::JsonlLogger;
use yy_parcomm::FaultSpec;
use yycore::checkpoint::Checkpoint;
use yycore::output::{is_shard_dir, merge_shards};
use yycore::parallel::{run_parallel_supervised, FailurePolicy, RecoveryOpts, WeightsMode};
use yycore::{CkptCodec, ObsOpts, RunConfig, SerialSim, StreamOpts};

/// Subcommand dispatch table. The dispatcher and the usage line both
/// derive from this single list, so they cannot drift — a regression
/// test asserts the usage string names every arm and nothing else.
const COMMANDS: [(&str, fn(&[String]) -> Result<(), String>); 10] = [
    ("run", cmd_run),
    ("resume", cmd_resume),
    ("slice", cmd_slice),
    ("parallel", cmd_parallel),
    ("merge", cmd_merge),
    ("profile", cmd_profile),
    ("tables", cmd_tables_cli),
    ("tracecheck", cmd_tracecheck),
    ("doctor", cmd_doctor),
    ("watch", cmd_watch),
];

/// The one-line usage string, generated from [`COMMANDS`].
fn usage() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|&(name, _)| name).collect();
    format!("usage: yycore <{}> [args]", names.join("|"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let result = match COMMANDS.iter().find(|&&(name, _)| name == cmd) {
        Some(&(_, run)) => run(rest),
        None => Err(format!("unknown command '{cmd}'\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// Harness options shared by run/resume/parallel.
struct Opts {
    cfg: RunConfig,
    steps: u64,
    sample: u64,
    ckpt: Option<PathBuf>,
    series: Option<PathBuf>,
    trace: Option<PathBuf>,
    report_json: Option<PathBuf>,
    log: Option<PathBuf>,
    pth: usize,
    pph: usize,
    fault_seed: u64,
    drop: f64,
    delay: f64,
    delay_us: u64,
    delay_src: Option<usize>,
    dup: f64,
    kill_rank: Option<usize>,
    kill_step: u64,
    kill_persistent: bool,
    ckpt_every: u64,
    deadline_ms: u64,
    profile_every: u64,
    metrics_port: Option<u16>,
    on_failure: FailurePolicy,
    max_retiles: u32,
    retile_backoff_ms: u64,
    weights: WeightsMode,
    resume: Option<PathBuf>,
    ckpt_dir: Option<PathBuf>,
    ckpt_async: bool,
    ckpt_compress: CkptCodec,
    snapshot_every: u64,
    snap_dir: PathBuf,
    telemetry: bool,
    rules: Option<PathBuf>,
    dt_collapse_at: Option<u64>,
    dt_collapse_factor: f64,
    metrics_hold_ms: u64,
}

impl Opts {
    /// Assemble the fault spec the CLI keys describe (inactive when no
    /// fault key was given).
    fn fault_spec(&self) -> FaultSpec {
        let mut spec = FaultSpec::seeded(self.fault_seed)
            .with_drop(self.drop)
            .with_delay(self.delay, Duration::from_micros(self.delay_us))
            .with_duplicate(self.dup);
        if let Some(src) = self.delay_src {
            spec = spec.with_delay_src(src);
        }
        if let Some(rank) = self.kill_rank {
            spec = if self.kill_persistent {
                spec.with_persistent_kill(rank, self.kill_step)
            } else {
                spec.with_kill(rank, self.kill_step)
            };
        }
        spec
    }

    /// The seeded dt-collapse injection the CLI keys describe, if any.
    fn dt_inject(&self) -> Option<yycore::DtInject> {
        self.dt_collapse_at
            .map(|at_step| yycore::DtInject { at_step, factor: self.dt_collapse_factor })
    }

    /// Arm the science-telemetry layer (and the dt-collapse injector)
    /// on a serial simulation. A no-op unless `telemetry=1`/
    /// `dt_collapse_at=` was given.
    fn arm_serial(&self, sim: &mut SerialSim) -> Result<(), String> {
        sim.arm_telemetry(&ObsOpts {
            series: self.telemetry,
            rules: self.rules.clone(),
            ..ObsOpts::default()
        })?;
        sim.dt_inject = self.dt_inject();
        Ok(())
    }
}

/// Print every watchdog alert edge a run recorded, newest last.
fn print_alerts(report: &yycore::RunReport) {
    for a in &report.alerts {
        eprintln!(
            "watchdog {} ({}): {} at step {} (t = {:.5}, value {:.4e})",
            a.rule,
            yy_obs::event::alert::name(a.kind_code),
            if a.firing { "FIRED" } else { "cleared" },
            a.step,
            a.time,
            a.value
        );
    }
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        cfg: RunConfig::small(),
        steps: 200,
        sample: 10,
        ckpt: None,
        series: None,
        trace: None,
        report_json: None,
        log: None,
        pth: 1,
        pph: 2,
        fault_seed: 0,
        drop: 0.0,
        delay: 0.0,
        delay_us: 500,
        delay_src: None,
        dup: 0.0,
        kill_rank: None,
        kill_step: 0,
        kill_persistent: false,
        ckpt_every: 0,
        deadline_ms: 30_000,
        profile_every: 0,
        metrics_port: None,
        on_failure: FailurePolicy::default(),
        max_retiles: 2,
        retile_backoff_ms: 50,
        weights: WeightsMode::default(),
        resume: None,
        ckpt_dir: None,
        ckpt_async: true,
        ckpt_compress: CkptCodec::default(),
        snapshot_every: 0,
        snap_dir: PathBuf::from("out"),
        telemetry: false,
        rules: None,
        dt_collapse_at: None,
        dt_collapse_factor: 0.5,
        metrics_hold_ms: 0,
    };
    o.cfg.init.perturb_amplitude = 3e-2;
    for arg in args {
        let Some((k, v)) = arg.split_once('=') else {
            return Err(format!("expected key=value, got '{arg}'"));
        };
        match k {
            "steps" => o.steps = v.parse().map_err(|e| format!("steps: {e}"))?,
            "sample" => o.sample = v.parse().map_err(|e| format!("sample: {e}"))?,
            "ckpt" => o.ckpt = Some(PathBuf::from(v)),
            "series" => o.series = Some(PathBuf::from(v)),
            "trace" => o.trace = Some(PathBuf::from(v)),
            "report_json" => o.report_json = Some(PathBuf::from(v)),
            "log" => o.log = Some(PathBuf::from(v)),
            "pth" => o.pth = v.parse().map_err(|e| format!("pth: {e}"))?,
            "pph" => o.pph = v.parse().map_err(|e| format!("pph: {e}"))?,
            "fault_seed" => o.fault_seed = v.parse().map_err(|e| format!("fault_seed: {e}"))?,
            "drop" => o.drop = v.parse().map_err(|e| format!("drop: {e}"))?,
            "delay" => o.delay = v.parse().map_err(|e| format!("delay: {e}"))?,
            "delay_us" => o.delay_us = v.parse().map_err(|e| format!("delay_us: {e}"))?,
            "delay_src" => {
                o.delay_src = Some(v.parse().map_err(|e| format!("delay_src: {e}"))?)
            }
            "dup" => o.dup = v.parse().map_err(|e| format!("dup: {e}"))?,
            "kill_rank" => o.kill_rank = Some(v.parse().map_err(|e| format!("kill_rank: {e}"))?),
            "kill_step" => o.kill_step = v.parse().map_err(|e| format!("kill_step: {e}"))?,
            "kill_persistent" => {
                o.kill_persistent = match v {
                    "1" | "true" => true,
                    "0" | "false" => false,
                    other => {
                        return Err(format!("kill_persistent: expected 0|1, got '{other}'"))
                    }
                }
            }
            "on_failure" => o.on_failure = FailurePolicy::parse(v)?,
            "max_retiles" => o.max_retiles = v.parse().map_err(|e| format!("max_retiles: {e}"))?,
            "retile_backoff_ms" => {
                o.retile_backoff_ms =
                    v.parse().map_err(|e| format!("retile_backoff_ms: {e}"))?
            }
            "weights" => o.weights = WeightsMode::parse(v)?,
            "resume" => o.resume = Some(PathBuf::from(v)),
            "ckpt_dir" => o.ckpt_dir = Some(PathBuf::from(v)),
            "ckpt_async" => {
                o.ckpt_async = match v {
                    "1" | "true" => true,
                    "0" | "false" => false,
                    other => return Err(format!("ckpt_async: expected 0|1, got '{other}'")),
                }
            }
            "ckpt_compress" => {
                o.ckpt_compress = CkptCodec::parse(v).map_err(|e| format!("ckpt_compress: {e}"))?
            }
            "snapshot_every" => {
                o.snapshot_every = v.parse().map_err(|e| format!("snapshot_every: {e}"))?
            }
            "snap_dir" => o.snap_dir = PathBuf::from(v),
            "ckpt_every" => o.ckpt_every = v.parse().map_err(|e| format!("ckpt_every: {e}"))?,
            "deadline_ms" => {
                o.deadline_ms = v.parse().map_err(|e| format!("deadline_ms: {e}"))?
            }
            "profile_every" => {
                o.profile_every = v.parse().map_err(|e| format!("profile_every: {e}"))?
            }
            "metrics_port" => {
                o.metrics_port = Some(v.parse().map_err(|e| format!("metrics_port: {e}"))?)
            }
            "telemetry" => {
                o.telemetry = match v {
                    "1" | "true" => true,
                    "0" | "false" => false,
                    other => return Err(format!("telemetry: expected 0|1, got '{other}'")),
                }
            }
            "rules" => o.rules = Some(PathBuf::from(v)),
            "dt_collapse_at" => {
                o.dt_collapse_at =
                    Some(v.parse().map_err(|e| format!("dt_collapse_at: {e}"))?)
            }
            "dt_collapse_factor" => {
                o.dt_collapse_factor =
                    v.parse().map_err(|e| format!("dt_collapse_factor: {e}"))?
            }
            "metrics_hold_ms" => {
                o.metrics_hold_ms =
                    v.parse().map_err(|e| format!("metrics_hold_ms: {e}"))?
            }
            _ => o.cfg.apply_override(k, v)?,
        }
    }
    o.cfg.check()?;
    Ok(o)
}

fn finish(report: &yycore::RunReport, o: &Opts) -> Result<(), String> {
    if let Some(path) = &o.series {
        std::fs::write(path, report.series_csv()).map_err(|e| format!("writing series: {e}"))?;
        eprintln!("wrote series to {}", path.display());
    } else {
        print!("{}", report.series_csv());
    }
    if let Some(path) = &o.report_json {
        std::fs::write(path, report.to_json())
            .map_err(|e| format!("writing report JSON: {e}"))?;
        eprintln!("wrote report JSON to {}", path.display());
    }
    eprintln!(
        "done: t = {:.5}, {} steps, {:.1} MFLOPS, {:.0} flops/point/step",
        report.time,
        report.steps,
        report.mflops(),
        report.flops_per_point_step()
    );
    Ok(())
}

/// JSONL log for the serial drivers: run parameters, every series
/// sample, and the closing summary. (The supervised parallel driver
/// writes its own richer log — pass lifecycle, rollbacks — from inside
/// `run_parallel_supervised`.)
fn write_serial_log(path: &Path, report: &yycore::RunReport) -> Result<(), String> {
    let log = JsonlLogger::create(path).map_err(|e| format!("opening log: {e}"))?;
    log.log("info", None, None, "serial run start", &[("steps", report.steps.to_string())]);
    for p in &report.series {
        log.log(
            "info",
            None,
            Some(p.step),
            "sample",
            &[
                ("time", format!("{:.8e}", p.time)),
                ("dt", format!("{:.4e}", p.dt)),
                ("kinetic", format!("{:.8e}", p.diag.kinetic)),
                ("magnetic", format!("{:.8e}", p.diag.magnetic)),
            ],
        );
    }
    log.log(
        "info",
        None,
        Some(report.steps),
        "serial run complete",
        &[("wall_seconds", format!("{:.3}", report.wall_seconds))],
    );
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let o = parse_opts(args)?;
    let grid = o.cfg.grid();
    eprintln!(
        "grid {}x{}x{}x2 = {} points; Ra-like {:.2e}, Ekman {:.2e}",
        o.cfg.nr,
        grid.dims().1,
        grid.dims().2,
        grid.total_points(),
        o.cfg.params.rayleigh(),
        o.cfg.params.ekman()
    );
    let mut sim = SerialSim::new(o.cfg.clone());
    o.arm_serial(&mut sim)?;
    let report = if o.snapshot_every > 0 {
        let stream = StreamOpts {
            dir: o.snap_dir.clone(),
            snapshot_every: o.snapshot_every,
            async_mode: o.ckpt_async,
        };
        let report = sim.run_streaming(o.steps, o.sample, &stream)?;
        eprintln!(
            "streamed {} product file(s) ({} KiB) to {}",
            report.io.snapshots_written,
            report.io.bytes_written / 1024,
            o.snap_dir.display()
        );
        report
    } else {
        sim.run(o.steps, o.sample)
    };
    let b = sim.speed_breakdown();
    eprintln!(
        "signal speeds: flow {:.3e}, sound {:.3e}, alfven {:.3e}",
        b.flow, b.sound, b.alfven
    );
    if let Some(path) = &o.ckpt {
        Checkpoint::capture(&sim).save(path).map_err(|e| format!("writing checkpoint: {e}"))?;
        eprintln!("wrote checkpoint to {}", path.display());
    }
    if let Some(path) = &o.log {
        write_serial_log(path, &report)?;
        eprintln!("wrote log to {}", path.display());
    }
    print_alerts(&report);
    finish(&report, &o)
}

fn cmd_resume(args: &[String]) -> Result<(), String> {
    let Some(path) = args.first() else {
        return Err("resume needs a checkpoint path".into());
    };
    let o = parse_opts(&args[1..])?;
    let ck = Checkpoint::load(Path::new(path)).map_err(|e| format!("loading {path}: {e}"))?;
    let mut sim = SerialSim::new(o.cfg.clone());
    ck.restore(&mut sim);
    o.arm_serial(&mut sim)?;
    eprintln!("resumed at step {}, t = {:.5}", sim.step, sim.time);
    let report = sim.run(o.steps, o.sample);
    if let Some(out) = &o.ckpt {
        Checkpoint::capture(&sim).save(out).map_err(|e| format!("writing checkpoint: {e}"))?;
        eprintln!("wrote checkpoint to {}", out.display());
    }
    if let Some(path) = &o.log {
        write_serial_log(path, &report)?;
        eprintln!("wrote log to {}", path.display());
    }
    print_alerts(&report);
    finish(&report, &o)
}

fn cmd_slice(args: &[String]) -> Result<(), String> {
    use yy_mesh::{Metric, Panel};
    use yycore::snapshots::*;
    let Some(path) = args.first() else {
        return Err("slice needs a checkpoint path".into());
    };
    let out_dir = PathBuf::from(args.get(1).map(String::as_str).unwrap_or("out"));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    // Reconstruct a config whose grid matches the checkpoint geometry.
    let ck = Checkpoint::load(Path::new(path)).map_err(|e| format!("loading {path}: {e}"))?;
    let mut cfg = RunConfig::small();
    cfg.nr = ck.shape.nr;
    // nth owned = nominal + 2 ext → invert with the default ext.
    cfg.nth_nominal = ck.shape.nth - 2 * cfg.ext;
    let grid = cfg.grid();
    if grid.full_shape() != ck.shape {
        return Err(format!(
            "checkpoint geometry {:?} does not match a default-spec grid; \
             pass matching nr/nth via a run config instead",
            ck.shape
        ));
    }
    let metric = Metric::full(&grid);

    let t_yin = temperature(&ck.yin);
    let t_yang = temperature(&ck.yang);
    let eq_t = sample_equatorial(&t_yin, &t_yang, &grid, 512);
    equatorial_disk_ppm(&eq_t, &out_dir.join("slice_eq_t.ppm"), 512)
        .map_err(|e| format!("ppm: {e}"))?;

    let wz_yin = axial_vorticity(&ck.yin, &grid, &metric, Panel::Yin);
    let wz_yang = axial_vorticity(&ck.yang, &grid, &metric, Panel::Yang);
    let eq_wz = sample_equatorial(&wz_yin, &wz_yang, &grid, 512);
    equatorial_disk_ppm(&eq_wz, &out_dir.join("slice_eq_wz.ppm"), 512)
        .map_err(|e| format!("ppm: {e}"))?;
    std::fs::write(out_dir.join("slice_eq_wz.csv"), eq_wz.to_csv())
        .map_err(|e| format!("csv: {e}"))?;

    let mer_t = sample_meridional(&t_yin, &t_yang, &grid, 512, 0.0);
    std::fs::write(out_dir.join("slice_mer_t.csv"), mer_t.to_csv())
        .map_err(|e| format!("csv: {e}"))?;

    let columns = count_convection_columns(eq_wz.mid_shell_ring(), 0.2);
    let mode = yy_mhd::spectra::dominant_mode(eq_wz.mid_shell_ring(), 40);
    println!(
        "step {} (t = {:.5}): {} vorticity columns (dominant azimuthal mode m = {})",
        ck.step, ck.time, columns, mode
    );
    println!("wrote slices to {}", out_dir.display());
    Ok(())
}

fn cmd_parallel(args: &[String]) -> Result<(), String> {
    let o = parse_opts(args)?;
    eprintln!(
        "{} ranks: 2 panels x {}x{} tiles",
        2 * o.pth * o.pph,
        o.pth,
        o.pph
    );
    // The CLI owns the metrics endpoint (instead of letting the driver
    // bind it) so `metrics_hold_ms=` can keep it serving the final
    // state after the run returns — that is what makes
    // `yycore watch http://...` against a just-finished run race-free.
    let metrics_hub = o.metrics_port.map(|_| Arc::new(yy_obs::MetricsHub::new()));
    let mut metrics_server = match (&metrics_hub, o.metrics_port) {
        (Some(hub), Some(port)) => Some(
            yy_obs::MetricsServer::start(Arc::clone(hub), port)
                .map_err(|e| format!("binding metrics port {port}: {e}"))?,
        ),
        _ => None,
    };
    let resume_from = match &o.resume {
        Some(path) if is_shard_dir(path) => {
            let ck = merge_shards(&o.cfg, path, None)
                .map_err(|e| format!("merging shards in {}: {e}", path.display()))?;
            eprintln!("merged shard set at step {} from {}", ck.step, path.display());
            Some(ck)
        }
        Some(path) => Some(
            Checkpoint::load(path)
                .map_err(|e| format!("loading resume checkpoint {}: {e}", path.display()))?,
        ),
        None => None,
    };
    let ropts = RecoveryOpts {
        fault: o.fault_spec(),
        checkpoint_every: o.ckpt_every,
        deadline: Duration::from_millis(o.deadline_ms),
        ckpt_dir: o.ckpt_dir.clone(),
        ckpt_async: o.ckpt_async,
        ckpt_compress: o.ckpt_compress,
        obs: ObsOpts {
            trace: o.trace.clone(),
            log: o.log.clone(),
            profile_every: o.profile_every,
            metrics_hub: metrics_hub.clone(),
            series: o.telemetry,
            rules: o.rules.clone(),
            ..ObsOpts::default()
        },
        dt_inject: o.dt_inject(),
        on_failure: o.on_failure,
        max_retiles: o.max_retiles,
        retile_backoff: Duration::from_millis(o.retile_backoff_ms),
        weights: o.weights,
        resume_from,
        ..RecoveryOpts::default()
    };
    let sup = run_parallel_supervised(&o.cfg, o.pth, o.pph, o.steps, o.sample, &ropts)?;
    for ev in &sup.recoveries {
        eprintln!(
            "recovered: pass {} failed ({}); resumed from step {}",
            ev.pass, ev.cause, ev.resume_step
        );
    }
    for rt in &sup.retiles {
        eprintln!(
            "retiled: pass {} excluded node {}; {}x{} -> {}x{}, resumed from step {}",
            rt.pass, rt.excluded_node, rt.from.0, rt.from.1, rt.to.0, rt.to.1, rt.resume_step
        );
    }
    if sup.degraded {
        eprintln!(
            "degraded mode: finished on {}x{} with {} node(s) excluded",
            sup.final_layout.0,
            sup.final_layout.1,
            sup.excluded_nodes.len()
        );
    }
    eprintln!(
        "imbalance ({} weights): predicted {:.3}, achieved {:.3}",
        o.weights.name(),
        sup.predicted_imbalance,
        sup.achieved_imbalance
    );
    if sup.passes.len() > 1 {
        let first = &sup.passes[0];
        let last = sup.passes.last().unwrap();
        eprintln!(
            "pass rates: {}x{} {:.1} steps/s -> {}x{} {:.1} steps/s",
            first.pth,
            first.pph,
            first.steps_per_sec(),
            last.pth,
            last.pph,
            last.steps_per_sec()
        );
    }
    if sup.dt_scale != 1.0 {
        eprintln!("health guards reduced dt by x{}", sup.dt_scale);
    }
    if let Some(path) = &o.ckpt {
        sup.final_checkpoint
            .save(path)
            .map_err(|e| format!("writing checkpoint: {e}"))?;
        eprintln!("wrote checkpoint to {}", path.display());
    }
    if let Some(path) = &o.trace {
        eprintln!("wrote trace to {}", path.display());
    }
    eprintln!("max mailbox depth observed: {}", sup.report.max_queue_depth);
    let report = sup.report;
    eprintln!(
        "traffic: halo {} KiB, overset {} KiB",
        report.halo_bytes / 1024,
        report.overset_bytes / 1024
    );
    let p = &report.phases;
    if p.total_s() > 0.0 {
        eprintln!(
            "phases (all-rank s): pack {:.3}, interior {:.3}, wait {:.3}, \
             boundary {:.3}, overset {:.3}, writer_wait {:.3}",
            p.pack_s, p.interior_s, p.wait_s, p.boundary_s, p.overset_s, p.writer_wait_s
        );
        if report.io.shards_written > 0 {
            eprintln!(
                "io: {} shard(s), {} -> {} KiB (x{:.2} compression, {}), \
                 write wall {:.3}s, producer wait {:.3}s ({})",
                report.io.shards_written,
                report.io.bytes_raw / 1024,
                report.io.bytes_written / 1024,
                report.io.compression_ratio(),
                report.io.codec,
                report.io.write_wall_s,
                report.io.writer_wait_s,
                if report.io.async_mode { "overlapped" } else { "inline" },
            );
        }
        // Feed the measured hidden fraction into the Earth Simulator
        // model: what the paper's flagship run would sustain if its
        // exchanges were hidden as well as this run's were.
        use yy_esmodel::model::{project_overlapped, RunShape};
        use yy_esmodel::{EsMachine, EsModelParams, KernelProfile};
        let hidden = p.hidden_comm_fraction();
        let proj = project_overlapped(
            &EsMachine::earth_simulator(),
            &EsModelParams::calibrated(),
            &KernelProfile::yycore_default(),
            &RunShape { procs: 4096, nr: 511, nth: 514, nph: 1538 },
            hidden,
        );
        eprintln!(
            "hidden comm fraction {:.2} -> ES 4096p projection: \
             {:.1} TFlops sustained, {:.0}% of peak",
            hidden,
            proj.tflops(),
            proj.efficiency * 100.0
        );
        // The mean hides the tail: feed the measured receive-wait
        // p99/p50 spread into the tail-aware projection, which
        // inflates the *exposed* communication accordingly. Only
        // meaningful when the median wait is itself a real latency
        // (≥1 µs, the injected-delay bench regime) — on an idle
        // in-process run most receives find their message already
        // delivered, p50 is a few ns, and the ratio is noise.
        if !report.recv_wait.is_empty() && report.recv_wait.p50() >= 1_000 {
            use yy_esmodel::model::{project_overlapped_tail, WaitTail};
            let tail = WaitTail {
                p50: report.recv_wait.p50() as f64,
                p99: report.recv_wait.p99() as f64,
            };
            let tproj = project_overlapped_tail(
                &EsMachine::earth_simulator(),
                &EsModelParams::calibrated(),
                &KernelProfile::yycore_default(),
                &RunShape { procs: 4096, nr: 511, nth: 514, nph: 1538 },
                hidden,
                tail,
            );
            eprintln!(
                "recv-wait tail p99/p50 = x{:.1} -> tail-aware projection: \
                 {:.1} TFlops sustained",
                tail.ratio(),
                tproj.tflops()
            );
        }
    }
    print_alerts(&report);
    finish(&report, &o)?;
    if let Some(server) = metrics_server.as_mut() {
        if o.metrics_hold_ms > 0 {
            eprintln!(
                "holding metrics endpoint http://{} for {} ms (scrape it with \
                 `yycore watch http://{}`)",
                server.local_addr(),
                o.metrics_hold_ms,
                server.local_addr()
            );
            std::thread::sleep(Duration::from_millis(o.metrics_hold_ms));
        }
        server.stop();
    }
    Ok(())
}

/// Reassemble per-rank checkpoint shards into a serial-format
/// checkpoint file. The grid keys (`nr=`, `nth=`, ...) must describe
/// the geometry the shards were written under; `step=N` picks a
/// specific shard set (default: the newest complete one). The output
/// is byte-identical to the checkpoint a serial run would have saved
/// at that step, so everything that consumes checkpoints (`resume`,
/// `slice`) works on it unchanged.
fn cmd_merge(args: &[String]) -> Result<(), String> {
    let (Some(dir), Some(out)) = (args.first(), args.get(1)) else {
        return Err("merge needs <shard_dir> <out.ck>".into());
    };
    let dir = PathBuf::from(dir);
    if !is_shard_dir(&dir) {
        return Err(format!("{} is not a shard directory", dir.display()));
    }
    // `step=` is a merge-only key; everything else configures the grid.
    let mut step = None;
    let mut cfg_args = Vec::new();
    for arg in &args[2..] {
        match arg.split_once('=') {
            Some(("step", v)) => {
                step = Some(v.parse().map_err(|e| format!("step: {e}"))?);
            }
            _ => cfg_args.push(arg.clone()),
        }
    }
    let o = parse_opts(&cfg_args)?;
    let ck = merge_shards(&o.cfg, &dir, step)
        .map_err(|e| format!("merging shards in {}: {e}", dir.display()))?;
    ck.save(Path::new(out)).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "merged shard set at step {} (t = {:.5}) into {out}",
        ck.step, ck.time
    );
    Ok(())
}

/// Run the serial reference solver with counters armed and print the
/// per-kernel roofline table (measured MFLOPS, arithmetic intensity,
/// equivalent vector length), then feed the measured per-kernel profile
/// into the Earth Simulator model: a per-kernel projection at the
/// paper's flagship shape, plus Tables II/III and the MPIPROGINF sheet
/// reconstructed from the *measured* kernel costs rather than the
/// hand-derived defaults.
fn cmd_profile(args: &[String]) -> Result<(), String> {
    use yy_esmodel::model::{project, project_kernels, KernelCost, RunShape};
    use yy_esmodel::mpiproginf::{list1_text, ReportShape};
    use yy_esmodel::{table2_text, table3_text, EsMachine, EsModelParams, KernelProfile};
    use yy_obs::counters::kernel;

    let o = parse_opts(args)?;
    let mut sim = SerialSim::new(o.cfg.clone());
    let interior = sim.interior_points();
    let report = sim.run(o.steps, 0);
    let snap = &report.kernels;
    let total_flops = snap.total_flops();
    if total_flops == 0 {
        return Err("profile run recorded no flops".into());
    }

    println!("measured kernel profile ({} steps, {} interior points):", report.steps, interior);
    println!(
        "{:<16} {:>10} {:>12} {:>10} {:>8} {:>8}",
        "kernel", "calls", "MFLOPS", "flops/B", "avg VL", "%flops"
    );
    for id in 0..kernel::COUNT {
        let k = &snap.kernels[id];
        if k.calls == 0 {
            continue;
        }
        println!(
            "{:<16} {:>10} {:>12.1} {:>10.3} {:>8.1} {:>8.2}",
            kernel::name(id as u8),
            k.calls,
            k.mflops(),
            k.intensity(),
            k.avg_vector_length(),
            100.0 * k.flops as f64 / total_flops as f64
        );
    }

    // Normalize the measured counters into per-point-per-step kernel
    // costs. FLOP tallies follow the owned-node convention, so dividing
    // by owned points x steps is exact; the measured equivalent vector
    // length (points per innermost loop) maps onto the model's fraction
    // of the nominal radial length.
    // interior_points() already covers both panels, matching the
    // both-panel counter totals.
    let denom = report.steps as f64 * interior as f64;
    let nr = o.cfg.nr as f64;
    let costs: Vec<KernelCost> = (0..kernel::COUNT)
        .filter(|&id| snap.kernels[id].flops > 0)
        .map(|id| KernelCost {
            name: kernel::name(id as u8).to_string(),
            flops_per_point_step: snap.kernels[id].flops as f64 / denom,
            vl_fraction: (snap.kernels[id].avg_vector_length() / nr).clamp(0.01, 1.0),
        })
        .collect();

    let machine = EsMachine::earth_simulator();
    let params = EsModelParams::calibrated();
    let shape = RunShape { procs: 4096, nr: 511, nth: 514, nph: 1538 };
    println!();
    println!("ES projection at the flagship shape (4096 procs, 511x514x1538):");
    println!(
        "{:<16} {:>14} {:>10} {:>12} {:>8}",
        "kernel", "flops/pt/step", "proj VL", "AP GFLOPS", "%time"
    );
    for row in project_kernels(&machine, &params, &costs, &shape) {
        println!(
            "{:<16} {:>14.2} {:>10.1} {:>12.2} {:>8.2}",
            row.name,
            row.flops_per_point_step,
            row.vector_length,
            row.ap_rate / 1e9,
            row.time_fraction * 100.0
        );
    }

    let profile = KernelProfile::from_kernels(&costs);
    println!();
    println!("{}", table2_text(&profile));
    println!("{}", table3_text(&profile));
    let projection = project(&machine, &params, &profile, &shape);
    println!(
        "measured-profile flagship projection: {:.1} TFlops sustained \
         ({:.0}% of peak; paper reports 15.2)",
        projection.tflops(),
        projection.efficiency * 100.0
    );
    println!("{}", list1_text(&ReportShape::paper_window(projection)));
    finish(&report, &o)
}

/// Dispatch-table adapter: `tables` takes no arguments.
fn cmd_tables_cli(_args: &[String]) -> Result<(), String> {
    cmd_tables()
}

fn cmd_tables() -> Result<(), String> {
    use yy_esmodel::model::{project, RunShape};
    use yy_esmodel::mpiproginf::{list1_text, ReportShape};
    use yy_esmodel::*;
    let mut cfg = RunConfig::small();
    cfg.init.perturb_amplitude = 1e-2;
    let mut sim = SerialSim::new(cfg);
    let interior = sim.interior_points();
    let report = sim.run(3, 0);
    let measured = report.flops as f64 / report.steps as f64 / interior as f64;
    let profile = KernelProfile::yycore_default().with_measured_flops(measured);
    println!("{}", table1_text());
    println!("{}", table2_text(&profile));
    println!("{}", table3_text(&profile));
    let projection = project(
        &EsMachine::earth_simulator(),
        &EsModelParams::calibrated(),
        &profile,
        &RunShape { procs: 4096, nr: 511, nth: 514, nph: 1538 },
    );
    println!("{}", list1_text(&ReportShape::paper_window(projection)));
    Ok(())
}

/// Validate a Chrome trace-event artifact (CI gate): the file must
/// parse with the in-repo JSON parser, carry the required keys, and
/// keep per-track timestamps monotone. Prints a one-line census.
fn cmd_tracecheck(args: &[String]) -> Result<(), String> {
    let Some(path) = args.first() else {
        return Err("tracecheck needs a trace path".into());
    };
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let check = yy_obs::validate_chrome_trace(&text)
        .map_err(|e| format!("{path}: invalid trace: {e}"))?;
    // An armed run always records phase spans; a span-free trace with
    // rank tracks means the recorders silently dropped everything.
    if check.tracks > 0 && check.spans == 0 {
        return Err(format!("{path}: armed trace contains no phase spans"));
    }
    println!(
        "trace ok: {} events, {} spans, {} flow arrows, {} kill(s), {} track(s), \
         {} counter sample(s) on {} counter track(s), {} retile(s), {} degrade(s), \
         {} analysis mark(s), {} alert edge(s)",
        check.events,
        check.spans,
        check.flow_starts,
        check.kills,
        check.tracks,
        check.counter_samples,
        check.counter_tracks,
        check.retiles,
        check.degrades,
        check.analysis_marks,
        check.alerts
    );
    Ok(())
}

/// The perf doctor: interpret the observability artifacts the other
/// commands produce. `trace=` re-imports a Chrome trace and runs the
/// critical-path/straggler analysis; `report=` prints a v5 report's
/// `analysis` section; `ledger=` compares the newest entry of a
/// `runs.jsonl` regression ledger against its history (`ingest=` first
/// appends a fresh entry summarized from a report artifact).
fn cmd_doctor(args: &[String]) -> Result<(), String> {
    use yy_obs::analysis::{Analysis, LedgerEntry};
    use yy_obs::{analyze, compare, streams_from_chrome, AnalysisInput, Json};

    let mut trace = None;
    let mut report = None;
    let mut ledger: Option<PathBuf> = None;
    let mut ingest: Option<PathBuf> = None;
    let mut label = "run".to_string();
    let mut tol = 0.05_f64;
    for arg in args {
        let Some((k, v)) = arg.split_once('=') else {
            return Err(format!("expected key=value, got '{arg}'"));
        };
        match k {
            "trace" => trace = Some(PathBuf::from(v)),
            "report" => report = Some(PathBuf::from(v)),
            "ledger" => ledger = Some(PathBuf::from(v)),
            "ingest" => ingest = Some(PathBuf::from(v)),
            "label" => label = v.to_string(),
            "tol" => tol = v.parse().map_err(|e| format!("tol: {e}"))?,
            other => return Err(format!("doctor: unknown key '{other}'")),
        }
    }
    if ingest.is_some() && ledger.is_none() {
        return Err("ingest= needs ledger=PATH to append to".into());
    }
    if trace.is_none() && report.is_none() && ledger.is_none() {
        return Err(
            "doctor needs trace=PATH, report=PATH, or ledger=PATH \
             (optionally ingest=REPORT label=L tol=F)"
                .into(),
        );
    }
    if let Some(path) = &trace {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let streams = streams_from_chrome(&text)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let a = analyze(&AnalysisInput {
            streams: &streams,
            retained: Vec::new(),
            predicted_imbalance: 1.0,
        });
        print_analysis(&a, &format!("trace {}", path.display()));
    }
    if let Some(path) = &report {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let section = doc
            .get("analysis")
            .ok_or_else(|| format!("{}: no analysis section (pre-v5 artifact?)", path.display()))?;
        let a = Analysis::from_json(section).map_err(|e| format!("{}: {e}", path.display()))?;
        print_analysis(&a, &format!("report {}", path.display()));
    }
    if let Some(path) = &ledger {
        let mut history = match std::fs::read_to_string(path) {
            Ok(text) => LedgerEntry::parse_ledger(&text)
                .map_err(|e| format!("{}: {e}", path.display()))?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(format!("reading {}: {e}", path.display())),
        };
        if let Some(src) = &ingest {
            let entry = ledger_entry_from_report(src, &label, history.len() as u64)?;
            let mut text = entry.to_json_line();
            text.push('\n');
            use std::io::Write as _;
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| f.write_all(text.as_bytes()))
                .map_err(|e| format!("appending to {}: {e}", path.display()))?;
            println!("ingested {} as {}#{}", src.display(), entry.label, entry.seq);
            history.push(entry);
        }
        let Some((latest, past)) = history.split_last() else {
            return Err(format!("{}: ledger is empty", path.display()));
        };
        println!(
            "ledger {}: {} entrie(s); latest {}#{}",
            path.display(),
            history.len(),
            latest.label,
            latest.seq
        );
        // Baselines come from the same run family only: one ledger can
        // interleave bench-step, bench-profile and ci entries, and their
        // metrics are not mutually comparable (different grids and
        // different projection estimators).
        let family: Vec<yy_obs::LedgerEntry> =
            past.iter().filter(|e| e.label == latest.label).cloned().collect();
        for v in compare(latest, &family, tol) {
            println!("  {}", v.line());
        }
        if latest.es_tflops > 0.0 {
            println!(
                "  es projection: {:.1} TFlops, {:+.1}% vs paper headline {:.1} ({})",
                latest.es_tflops,
                yy_esmodel::flagship_delta_pct(latest.es_tflops),
                yy_esmodel::PAPER_FLAGSHIP_TFLOPS,
                if yy_esmodel::in_flagship_window(latest.es_tflops) {
                    "within window"
                } else {
                    "outside window"
                }
            );
        }
    }
    Ok(())
}

/// Human rendering of an [`yy_obs::Analysis`] — the doctor's tables.
fn print_analysis(a: &yy_obs::Analysis, source: &str) {
    println!("doctor: {source}");
    println!("  verdict: {}", a.verdict);
    println!(
        "  steps analyzed: {} (ring coverage {:.0}%)",
        a.steps_analyzed,
        a.coverage * 100.0
    );
    if !a.gating.is_empty() {
        println!("  gating phases:");
        for g in &a.gating {
            let share = if a.steps_analyzed > 0 {
                100.0 * g.steps as f64 / a.steps_analyzed as f64
            } else {
                0.0
            };
            println!("    {:<12} {:>6} step(s)  {:>5.1}%", g.phase, g.steps, share);
        }
    }
    let on_path: u64 = a.rank_path.iter().sum();
    if on_path > 0 {
        println!("  critical-path appearances by rank:");
        for (r, n) in a.rank_path.iter().enumerate().filter(|(_, &n)| n > 0) {
            println!("    rank {r:<4} {n:>6} step(s)");
        }
    }
    if !a.stragglers.is_empty() {
        println!("  stragglers (worst first):");
        for s in &a.stragglers {
            println!(
                "    rank {}: {} (severity x{:.2}) -- {}",
                s.rank,
                yy_obs::analysis::reason::name(s.reason),
                s.severity,
                s.detail
            );
        }
    }
    for d in &a.disruptions {
        if d.rank >= 0 {
            println!("  critical-path disruption: {} on rank {} at step {}", d.kind, d.rank, d.step);
        } else {
            println!("  critical-path disruption: {} at step {}", d.kind, d.step);
        }
    }
}

/// Summarize a report JSON artifact into one ledger entry: normalized
/// step cost, per-kernel MFLOPS, hidden-communication fraction, and the
/// ES flagship projection that fraction supports.
fn ledger_entry_from_report(
    path: &Path,
    label: &str,
    seq: u64,
) -> Result<yy_obs::LedgerEntry, String> {
    use yy_obs::Json;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let f = |k: &str| doc.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
    let steps = f("steps") as u64;
    let grid_points = f("grid_points") as u64;
    let wall = f("wall_seconds");
    // RunReports carry wall_seconds; BENCH_step.json carries the
    // overlapped median directly — accept either shape.
    let overlapped_ns = doc
        .get("overlapped")
        .and_then(|o| o.get("median_ns_per_step"))
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0);
    let ns_per_point = if steps > 0 && grid_points > 0 && wall > 0.0 {
        wall * 1e9 / (steps as f64 * grid_points as f64)
    } else if grid_points > 0 && overlapped_ns > 0.0 {
        overlapped_ns / grid_points as f64
    } else {
        0.0
    };
    let mut kernel_mflops = Vec::new();
    if let Some(arr) = doc.get("kernels").and_then(|v| v.as_arr()) {
        for row in arr {
            let name = row.get("name").and_then(|v| v.as_str()).unwrap_or("");
            let mflops = row.get("mflops").and_then(|v| v.as_f64()).unwrap_or(0.0);
            if !name.is_empty() && mflops > 0.0 {
                kernel_mflops.push((name.to_string(), mflops));
            }
        }
    }
    let hidden = doc
        .get("phases")
        .and_then(|p| p.get("hidden_comm_fraction"))
        .or_else(|| doc.get("overlapped").and_then(|o| o.get("hidden_comm_fraction")))
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0);
    // BENCH_profile.json carries its own exact-counter projection;
    // prefer it over the hiding-derived one.
    let es_tflops = if f("es_flagship_tflops") > 0.0 {
        f("es_flagship_tflops")
    } else if hidden > 0.0 {
        yy_esmodel::flagship_projection(hidden).tflops()
    } else {
        0.0
    };
    let layout = match doc.get("elastic") {
        Some(e) => (
            e.get("final_pth").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64,
            e.get("final_pph").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64,
        ),
        None => (0, 0),
    };
    let codec = doc
        .get("io")
        .and_then(|io| io.get("codec"))
        .and_then(|v| v.as_str())
        .unwrap_or("none")
        .to_string();
    Ok(yy_obs::LedgerEntry {
        label: label.to_string(),
        seq,
        steps,
        grid_points,
        layout,
        codec,
        ns_per_point,
        kernel_mflops,
        hidden_comm_fraction: hidden,
        es_tflops,
    })
}

/// Render a numeric series as a one-line Unicode sparkline, newest
/// sample last. Non-finite samples render as `·`; a flat series renders
/// at the bottom level.
fn sparkline(vals: &[f64], width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let tail = if vals.len() > width { &vals[vals.len() - width..] } else { vals };
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &v in tail.iter().filter(|v| v.is_finite()) {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if !lo.is_finite() {
        return "·".repeat(tail.len().max(1));
    }
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    tail.iter()
        .map(|&v| {
            if !v.is_finite() {
                return '·';
            }
            let level = ((v - lo) / span * 7.0).round().clamp(0.0, 7.0) as usize;
            BARS[level]
        })
        .collect()
}

/// Parse a Prometheus text exposition into `(sample name, value)` pairs
/// (the sample name keeps its `{label="v"}` part; comment and blank
/// lines are skipped).
fn parse_exposition(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// The first `"quoted"` label value inside a sample name, e.g.
/// `kinetic` from `yy_energy{component="kinetic"}`.
fn label_value(sample: &str) -> Option<&str> {
    let start = sample.find('"')? + 1;
    let end = start + sample[start..].find('"')?;
    Some(&sample[start..end])
}

/// Plain HTTP/1.0 GET over a std `TcpStream` (the watch dashboard's
/// only network dependency). Returns the response body.
fn http_get(url: &str) -> Result<String, String> {
    use std::io::{Read as _, Write as _};
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| format!("watch: only http:// URLs are supported, got '{url}'"))?;
    let (hostport, path) = match rest.split_once('/') {
        Some((h, p)) => (h.to_string(), format!("/{p}")),
        None => (rest.to_string(), "/metrics".to_string()),
    };
    let mut stream = std::net::TcpStream::connect(hostport.as_str())
        .map_err(|e| format!("connecting {hostport}: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
    write!(stream, "GET {path} HTTP/1.0\r\nHost: {hostport}\r\nConnection: close\r\n\r\n")
        .map_err(|e| format!("sending request to {hostport}: {e}"))?;
    let mut resp = String::new();
    stream
        .read_to_string(&mut resp)
        .map_err(|e| format!("reading response from {hostport}: {e}"))?;
    match resp.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_string()),
        None => Err(format!("{hostport}: malformed HTTP response")),
    }
}

/// Sparkline history for one dashboard panel, keyed by display name.
/// Kept across polls so URL mode accumulates a time axis.
#[derive(Default)]
struct WatchHistory {
    panels: Vec<(String, Vec<f64>)>,
}

impl WatchHistory {
    fn push(&mut self, key: &str, value: f64, cap: usize) {
        let vals = match self.panels.iter_mut().find(|(k, _)| k == key) {
            Some((_, vals)) => vals,
            None => {
                self.panels.push((key.to_string(), Vec::new()));
                &mut self.panels.last_mut().unwrap().1
            }
        };
        vals.push(value);
        if vals.len() > cap {
            vals.remove(0);
        }
    }
}

/// One dashboard frame from a live metrics exposition: sparkline panels
/// over the science gauges (fed through `history` across polls) plus
/// the watchdog firing state.
fn metrics_frame(body: &str, history: &mut WatchHistory, width: usize) -> String {
    let samples = parse_exposition(body);
    if samples.is_empty() {
        return "endpoint has published nothing yet".to_string();
    }
    for (name, value) in &samples {
        let key = if name.starts_with("yy_energy{") {
            label_value(name).map(|c| format!("energy {c}"))
        } else {
            match name.as_str() {
                "yy_dt" => Some("dt".to_string()),
                "yy_max_speed" => Some("max speed".to_string()),
                "yy_max_b" => Some("max |B|".to_string()),
                "yy_dominant_m" => Some("dominant m".to_string()),
                _ => None,
            }
        };
        if let Some(key) = key {
            history.push(&key, *value, width);
        }
    }
    let mut out = String::new();
    let value_of = |want: &str| samples.iter().find(|(n, _)| n == want).map(|&(_, v)| v);
    if let Some(step) = value_of("yy_step") {
        out.push_str(&format!("step {step:.0}\n"));
    }
    for (key, vals) in &history.panels {
        let latest = vals.last().copied().unwrap_or(f64::NAN);
        out.push_str(&format!("{key:<12} {:<w$} {latest:.4e}\n", sparkline(vals, width), w = width));
    }
    for (name, value) in &samples {
        if !name.starts_with("yy_alert_active{") {
            continue;
        }
        let rule = label_value(name).unwrap_or("?");
        let fired = value_of(&format!("yy_alert_fired_total{{rule=\"{rule}\"}}")).unwrap_or(0.0);
        out.push_str(&format!(
            "alert {rule:<16} {} (fired {fired:.0}x)\n",
            if *value != 0.0 { "FIRING" } else { "quiet" }
        ));
    }
    if !out.contains("alert ") && !history.panels.is_empty() {
        out.push_str("alerts: none armed on this endpoint\n");
    }
    out
}

/// One dashboard frame from a v6 report artifact: sparklines over every
/// telemetry channel's raw tail plus the recorded alert edges.
fn report_frame(text: &str, width: usize) -> Result<String, String> {
    let doc = yy_obs::Json::parse(text).map_err(|e| format!("parsing report: {e}"))?;
    let tel = doc
        .get("telemetry")
        .ok_or("report has no telemetry section (pre-v6 artifact?)")?;
    let channels = tel.get("channels").and_then(|c| c.as_arr()).ok_or(
        "report's telemetry was not armed — rerun with telemetry=1 to record the series store",
    )?;
    let mut out = String::new();
    if let Some(steps) = doc.get("steps").and_then(|v| v.as_f64()) {
        out.push_str(&format!("run: {steps:.0} steps"));
        if let Some(t) = doc.get("time").and_then(|v| v.as_f64()) {
            out.push_str(&format!(", t = {t:.5}"));
        }
        out.push('\n');
    }
    for ch in channels {
        let name = ch.get("name").and_then(|v| v.as_str()).unwrap_or("?");
        let vals: Vec<f64> = ch
            .get("raw")
            .and_then(|r| r.as_arr())
            .map(|pairs| {
                pairs
                    .iter()
                    .filter_map(|p| p.as_f64_array())
                    .filter_map(|p| p.get(1).copied())
                    .collect()
            })
            .unwrap_or_default();
        let latest = vals.last().copied().unwrap_or(f64::NAN);
        out.push_str(&format!(
            "{name:<12} {:<w$} {latest:.4e}\n",
            sparkline(&vals, width),
            w = width
        ));
    }
    match doc.get("alerts").and_then(|a| a.as_arr()) {
        Some(edges) if !edges.is_empty() => {
            for e in edges {
                out.push_str(&format!(
                    "alert {} ({}): {} at step {}\n",
                    e.get("rule").and_then(|v| v.as_str()).unwrap_or("?"),
                    e.get("kind").and_then(|v| v.as_str()).unwrap_or("?"),
                    if e.get("firing").and_then(|v| v.as_bool()) == Some(true) {
                        "FIRED"
                    } else {
                        "cleared"
                    },
                    e.get("step").and_then(|v| v.as_f64()).unwrap_or(-1.0)
                ));
            }
        }
        _ => out.push_str("alerts: none recorded\n"),
    }
    Ok(out)
}

/// Live terminal dashboard over the science telemetry: poll a metrics
/// endpoint (`http://host:port`) or render a v6 report artifact.
fn cmd_watch(args: &[String]) -> Result<(), String> {
    let Some(source) = args.first() else {
        return Err("watch needs a metrics URL (http://host:port) or a report JSON path".into());
    };
    // Anything scheme-qualified is a URL attempt (so an `https://`
    // typo gets the clear unsupported-scheme error, not a file error).
    let is_url = source.contains("://");
    let mut interval_ms: u64 = 1000;
    // A report artifact is a finished run — one frame unless asked
    // otherwise; an endpoint is live — poll until interrupted.
    let mut frames: u64 = if is_url { 0 } else { 1 };
    let mut width: usize = 48;
    let mut retries: u64 = 20;
    for arg in &args[1..] {
        let Some((k, v)) = arg.split_once('=') else {
            return Err(format!("expected key=value, got '{arg}'"));
        };
        match k {
            "once" => {
                if matches!(v, "1" | "true") {
                    frames = 1;
                }
            }
            "interval_ms" => interval_ms = v.parse().map_err(|e| format!("interval_ms: {e}"))?,
            "frames" => frames = v.parse().map_err(|e| format!("frames: {e}"))?,
            "width" => width = v.parse().map_err(|e| format!("width: {e}"))?,
            "retries" => retries = v.parse().map_err(|e| format!("retries: {e}"))?,
            other => return Err(format!("watch: unknown key '{other}'")),
        }
    }
    let mut history = WatchHistory::default();
    let mut shown: u64 = 0;
    loop {
        let frame = if is_url {
            // Retry the connection: in CI the watcher often races the
            // run that serves the endpoint.
            let mut attempt = 0;
            loop {
                match http_get(source) {
                    Ok(body) => break metrics_frame(&body, &mut history, width),
                    Err(_) if attempt < retries => {
                        attempt += 1;
                        std::thread::sleep(Duration::from_millis(250));
                    }
                    Err(e) => return Err(e),
                }
            }
        } else {
            let text = std::fs::read_to_string(source)
                .map_err(|e| format!("reading {source}: {e}"))?;
            report_frame(&text, width)?
        };
        if frames != 1 {
            // Live mode: redraw in place.
            print!("\x1b[2J\x1b[H");
        }
        print!("{frame}");
        use std::io::Write as _;
        std::io::stdout().flush().ok();
        shown += 1;
        if frames > 0 && shown >= frames {
            break;
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Opts, String> {
        parse_opts(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn parse_err(args: &[&str]) -> String {
        parse(args).map(|_| ()).unwrap_err()
    }

    #[test]
    fn output_keys_parse_and_validate() {
        let o = parse(&[
            "ckpt_dir=shards",
            "ckpt_async=0",
            "ckpt_compress=delta",
            "snapshot_every=5",
            "snap_dir=prod",
        ])
        .unwrap();
        assert_eq!(o.ckpt_dir.as_deref(), Some(Path::new("shards")));
        assert!(!o.ckpt_async);
        assert_eq!(o.ckpt_compress, CkptCodec::Delta);
        assert_eq!(o.snapshot_every, 5);
        assert_eq!(o.snap_dir, Path::new("prod"));
        // Defaults: writer overlapped, raw payloads, no streaming.
        let d = parse(&[]).unwrap();
        assert!(d.ckpt_async && d.ckpt_dir.is_none() && d.snapshot_every == 0);
        assert_eq!(d.ckpt_compress, CkptCodec::Raw);

        let err = parse_err(&["ckpt_async=maybe"]);
        assert_eq!(err, "ckpt_async: expected 0|1, got 'maybe'");
        let err = parse_err(&["ckpt_compress=zip"]);
        assert_eq!(err, "ckpt_compress: expected none|rle|delta, got 'zip'");
        let err = parse_err(&["snapshot_every=often"]);
        assert!(err.starts_with("snapshot_every: "), "{err}");
        // There is one sync pipeline; the old selector key must be
        // rejected, not silently ignored.
        assert_eq!(parse_err(&["mode=blocking"]), "unknown config key 'mode'");
    }

    #[test]
    fn delay_src_parses_and_targets_the_fault_spec() {
        let o = parse(&["delay=1.0", "delay_us=400", "delay_src=2"]).unwrap();
        assert_eq!(o.delay_src, Some(2));
        let spec = o.fault_spec();
        assert!(spec.is_active());
        assert_eq!(spec.delay_src, Some(2));
        // Default: delays (if any) afflict every sender.
        assert_eq!(parse(&[]).unwrap().fault_spec().delay_src, None);
        let err = parse_err(&["delay_src=first"]);
        assert!(err.starts_with("delay_src: "), "{err}");
    }

    #[test]
    fn doctor_rejects_bad_usage_with_clear_messages() {
        let run = |args: &[&str]| {
            cmd_doctor(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap_err()
        };
        assert!(run(&[]).contains("doctor needs"), "{}", run(&[]));
        assert!(run(&["verbose"]).contains("expected key=value"));
        assert!(run(&["color=loud"]).contains("unknown key"));
        assert_eq!(run(&["ingest=r.json"]), "ingest= needs ledger=PATH to append to");
        let err = run(&["trace=/nonexistent-yy-doctor.json"]);
        assert!(err.contains("reading"), "{err}");
        let err = run(&["ledger=/nonexistent-dir-yy/runs.jsonl", "tol=0.2"]);
        assert!(err.contains("reading") || err.contains("empty"), "{err}");
    }

    #[test]
    fn doctor_ledger_roundtrip_through_files() {
        let dir = std::env::temp_dir().join(format!("yy_cli_doctor_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ledger = dir.join("runs.jsonl");
        let e = yy_obs::LedgerEntry {
            label: "t".into(),
            seq: 0,
            steps: 4,
            grid_points: 1000,
            layout: (1, 2),
            codec: "none".into(),
            ns_per_point: 500.0,
            kernel_mflops: vec![("rhs".into(), 4000.0)],
            hidden_comm_fraction: 0.5,
            es_tflops: 14.7,
        };
        std::fs::write(&ledger, format!("{}\n", e.to_json_line())).unwrap();
        let args = vec![format!("ledger={}", ledger.display())];
        cmd_doctor(&args).expect("single-entry ledger compares against empty history");
        // A report artifact ingests and appends a second line.
        let report = dir.join("report.json");
        std::fs::write(&report, yycore::RunReport::default().to_json()).unwrap();
        let args = vec![
            format!("ledger={}", ledger.display()),
            format!("ingest={}", report.display()),
            "label=test".to_string(),
        ];
        cmd_doctor(&args).expect("ingest must append and compare");
        let text = std::fs::read_to_string(&ledger).unwrap();
        let entries = yy_obs::LedgerEntry::parse_ledger(&text).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!((entries[1].label.as_str(), entries[1].seq), ("test", 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ledger_ingest_accepts_bench_step_and_profile_shapes() {
        let dir = std::env::temp_dir().join(format!("yy_cli_bench_ingest_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // scripts/bench.sh ingests the bench JSONs directly; both the
        // step shape (overlapped.*) and the profile shape (kernels +
        // es_flagship_tflops) must map onto ledger metrics.
        let step = dir.join("BENCH_step.json");
        std::fs::write(
            &step,
            r#"{"bench":"step","grid_points":1000,"steps":4,
               "overlapped":{"median_ns_per_step":500000,"hidden_comm_fraction":0.54}}"#,
        )
        .unwrap();
        let e = ledger_entry_from_report(&step, "bench-step", 0).unwrap();
        assert_eq!(e.ns_per_point, 500.0);
        assert_eq!(e.hidden_comm_fraction, 0.54);
        assert!(e.es_tflops > 0.0, "hidden fraction implies a projection");
        let profile = dir.join("BENCH_profile.json");
        std::fs::write(
            &profile,
            r#"{"bench":"profile","es_flagship_tflops":14.7,
               "kernels":[{"name":"rhs","mflops":4100.0}]}"#,
        )
        .unwrap();
        let e = ledger_entry_from_report(&profile, "bench-profile", 1).unwrap();
        assert_eq!(e.es_tflops, 14.7, "explicit projection wins");
        assert_eq!(e.kernel_mflops, vec![("rhs".to_string(), 4100.0)]);
        assert_eq!(e.ns_per_point, 0.0, "no wall clock in the profile shape");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_rejects_bad_usage_with_clear_messages() {
        assert_eq!(cmd_merge(&[]).unwrap_err(), "merge needs <shard_dir> <out.ck>");
        let err =
            cmd_merge(&["/nonexistent-yy".into(), "out.ck".into()]).unwrap_err();
        assert!(err.contains("not a shard directory"), "{err}");
        let dir = std::env::temp_dir().join(format!("yy_cli_merge_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let args: Vec<String> = vec![
            dir.to_string_lossy().into_owned(),
            "out.ck".into(),
            "step=soon".into(),
        ];
        let err = cmd_merge(&args).unwrap_err();
        assert!(err.starts_with("step: "), "{err}");
        // An empty (shardless) directory is reported, not merged.
        let args: Vec<String> =
            vec![dir.to_string_lossy().into_owned(), "out.ck".into()];
        assert!(cmd_merge(&args).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The usage line, the dispatch table, and the doc-comment synopsis
    /// must agree on the command set — the drift this PR fixes (the old
    /// hand-written usage string omitted profile/tracecheck/doctor).
    #[test]
    fn usage_names_every_dispatch_arm_and_nothing_else() {
        let line = usage();
        for (name, _) in COMMANDS {
            assert!(line.contains(name), "usage line omits '{name}': {line}");
        }
        let inner = line
            .strip_prefix("usage: yycore <")
            .and_then(|s| s.strip_suffix("> [args]"))
            .expect("usage shape");
        for name in inner.split('|') {
            assert!(
                COMMANDS.iter().any(|&(n, _)| n == name),
                "usage names '{name}' but the dispatcher has no such arm"
            );
        }
        // The doc-comment synopsis at the top of this file must mention
        // every subcommand too.
        let src = include_str!("yycore.rs");
        let synopsis: String = src.lines().take_while(|l| l.starts_with("//!")).collect();
        for (name, _) in COMMANDS {
            assert!(
                synopsis.contains(&format!("yycore {name}")),
                "doc-comment synopsis omits 'yycore {name}'"
            );
        }
    }

    #[test]
    fn telemetry_keys_parse_and_reject_garbage() {
        let o = parse(&[
            "telemetry=1",
            "rules=watch.rules",
            "dt_collapse_at=10",
            "dt_collapse_factor=0.25",
            "metrics_hold_ms=1500",
        ])
        .unwrap();
        assert!(o.telemetry);
        assert_eq!(o.rules.as_deref(), Some(Path::new("watch.rules")));
        let inj = o.dt_inject().expect("injector armed");
        assert_eq!((inj.at_step, inj.factor), (10, 0.25));
        assert_eq!(o.metrics_hold_ms, 1500);
        assert!(parse(&["telemetry=0"]).unwrap().dt_inject().is_none());
        assert!(parse_err(&["telemetry=yes"]).contains("telemetry"));
        assert!(parse_err(&["dt_collapse_at=soon"]).starts_with("dt_collapse_at:"));
    }

    #[test]
    fn sparkline_scales_and_survives_nans() {
        let line = sparkline(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], 48);
        assert_eq!(line, "▁▂▃▄▅▆▇█");
        // Truncated to the newest `width` samples.
        assert_eq!(sparkline(&[9.0, 0.0, 7.0], 2).chars().count(), 2);
        assert_eq!(sparkline(&[], 8), "·");
        assert_eq!(sparkline(&[f64::NAN, 1.0, f64::NAN], 8).chars().next(), Some('·'));
        // Flat series renders, all at one level.
        let flat = sparkline(&[2.0; 5], 8);
        assert_eq!(flat.chars().count(), 5);
        assert!(flat.chars().all(|c| c == '▁'));
    }

    #[test]
    fn exposition_parses_into_samples_with_labels() {
        let body = "# HELP yy_dt Latest CFL time step.\n# TYPE yy_dt gauge\n\
                    yy_dt 0.00125\nyy_energy{component=\"kinetic\"} 1.5e-3\n";
        let samples = parse_exposition(body);
        assert_eq!(samples.len(), 2, "comment lines skipped");
        assert_eq!(samples[0], ("yy_dt".to_string(), 0.00125));
        assert_eq!(label_value(&samples[1].0), Some("kinetic"));
    }

    /// The metrics frame renders the science gauges as sparkline panels
    /// and the watchdog state as alert lines, accumulating history
    /// across polls.
    #[test]
    fn metrics_frame_renders_science_gauges_and_alerts() {
        let g = yy_obs::ScienceGauges {
            energy: vec![("kinetic".into(), 1.5), ("magnetic".into(), 0.5)],
            dt: 1.25e-3,
            max_speed: 3.0,
            max_b: 0.25,
            dominant_m: 4,
            alerts: vec![("energy_blowup".into(), true, 2)],
        };
        let body = yy_obs::science_gauges_text(&g);
        let mut history = WatchHistory::default();
        let frame = metrics_frame(&body, &mut history, 16);
        assert!(frame.contains("energy kinetic"), "{frame}");
        assert!(frame.contains("dominant m"), "{frame}");
        assert!(frame.contains("alert energy_blowup"), "{frame}");
        assert!(frame.contains("FIRING"), "{frame}");
        assert!(frame.contains("fired 2x"), "{frame}");
        // A second poll extends the sparkline history.
        metrics_frame(&body, &mut history, 16);
        let dt = history.panels.iter().find(|(k, _)| k == "dt").expect("dt panel");
        assert_eq!(dt.1.len(), 2);
        assert_eq!(
            metrics_frame("", &mut WatchHistory::default(), 16),
            "endpoint has published nothing yet"
        );
    }

    /// File mode: a real armed serial run's report renders channel
    /// sparklines and the recorded alert edges; an unarmed report is
    /// rejected with a pointer at `telemetry=1`.
    #[test]
    fn report_frame_renders_an_armed_run_and_rejects_unarmed() {
        let mut cfg = RunConfig::small();
        cfg.init.perturb_amplitude = 1e-2;
        let mut sim = SerialSim::new(cfg.clone());
        sim.arm_telemetry(&ObsOpts { series: true, ..ObsOpts::default() }).unwrap();
        sim.dt_inject = Some(yycore::DtInject { at_step: 10, factor: 0.5 });
        let report = sim.run(16, 1);
        let frame = report_frame(&report.to_json(), 32).expect("frame renders");
        assert!(frame.contains("kinetic"), "{frame}");
        assert!(frame.contains("dt"), "{frame}");
        assert!(frame.contains("alert energy_blowup (dt-collapse): FIRED"), "{frame}");

        let mut unarmed = SerialSim::new(cfg);
        let bare = unarmed.run(2, 0);
        let err = report_frame(&bare.to_json(), 32).unwrap_err();
        assert!(err.contains("telemetry=1"), "{err}");
        assert!(report_frame("{}", 32).is_err(), "schema-less JSON rejected");
    }

    #[test]
    fn watch_rejects_bad_usage_with_clear_messages() {
        assert!(cmd_watch(&[]).unwrap_err().contains("watch needs"));
        let err = cmd_watch(&["https://example.com".into(), "once=1".into(), "retries=0".into()])
            .unwrap_err();
        assert!(err.contains("only http://"), "{err}");
        let args: Vec<String> = vec!["report.json".into(), "cadence=5".into()];
        assert!(cmd_watch(&args).unwrap_err().contains("unknown key"));
    }
}
