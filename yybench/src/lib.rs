//! The repository benchmark: three named workloads of the Yin-Yang
//! geodynamo code, each timed from outside the program through its
//! public API, checked for correct output, and reported as one JSON line
//! of end-to-end metrics (`--trace 0`) or per-layer metrics
//! (`--trace 1`). See `README.md` in this directory for why each
//! workload exists and what each metric should move.

pub mod host;
pub mod replay;
pub mod stats;
pub mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use yycore::RunConfig;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Serial solver at a deep radial extent: kernel-bound.
    SerialDeep,
    /// Supervised parallel solver, one rank per panel, wide shallow grid.
    Panels1x1,
    /// Supervised parallel solver writing sharded checkpoints every
    /// step, then merging and restarting from them.
    CheckpointRestart,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SerialDeep,
        Workload::Panels1x1,
        Workload::CheckpointRestart,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SerialDeep => "serial_deep",
            Workload::Panels1x1 => "panels_1x1",
            Workload::CheckpointRestart => "checkpoint_restart",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload '{s}'"))
    }

    /// The generated run configuration. The seed reaches the program
    /// only here, as the initial-condition RNG seed.
    pub fn config(self, seed: u64) -> RunConfig {
        let mut cfg = match self {
            Workload::SerialDeep => RunConfig {
                nr: 128,
                nth_nominal: 13,
                ..RunConfig::small()
            },
            Workload::Panels1x1 => RunConfig::medium(),
            Workload::CheckpointRestart => RunConfig::small(),
        };
        cfg.init.seed = seed;
        cfg
    }

    /// Steps per timed operation: one serial health/mass check, one
    /// supervised run, or one checkpointed run before its restart.
    pub fn steps_per_op(self) -> u64 {
        match self {
            Workload::SerialDeep => 5,
            Workload::Panels1x1 => 4,
            Workload::CheckpointRestart => 8,
        }
    }

    /// Rank threads the workload runs on.
    pub fn rank_threads(self) -> usize {
        match self {
            Workload::SerialDeep => 1,
            Workload::Panels1x1 | Workload::CheckpointRestart => 2,
        }
    }
}

/// End-to-end metrics (`--trace 0`), with units, in `BENCHMARK.json`
/// order. Times are CPU time summed over the process's threads.
pub const END_TO_END: [(&str, &str); 6] = [
    ("step_cpu_ms_p50", "ms"),
    ("step_cpu_ms_tail", "ms"),
    ("cpu_ns_per_point_step", "ns"),
    ("setup_s", "s"),
    ("restart_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// The kernels of the counter model, by their report names.
pub const KERNELS: [&str; 8] = [
    "rhs",
    "rk4_combine",
    "halo_pack",
    "halo_unpack",
    "overset_donate",
    "overset_fill",
    "health_scan",
    "output",
];

/// Per-layer metrics (`--trace 1`), with units, named by crate.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &str); 37] = [
        ("mhd.rhs.ms_per_step", "ms"),
        ("mhd.rhs.mflops", "Mflop/s"),
        ("mhd.rhs.flops_per_byte", "flop/B"),
        ("mhd.rhs.calls_per_stage", "count"),
        ("mhd.rhs.avg_vector_length", "count"),
        ("mhd.cfl.ms_per_step", "ms"),
        ("mhd.diagnostics.ms_per_sample", "ms"),
        ("mhd.health.ms_per_step", "ms"),
        ("field.combine.ms_per_step", "ms"),
        ("field.combine.gib_s", "GiB/s"),
        ("core.fill_pair.ms_per_step", "ms"),
        ("mesh.overset.ms_per_step", "ms"),
        ("mesh.overset.columns", "count"),
        ("parcomm.wait_ms_per_step", "ms"),
        ("parcomm.recv_wait_us_p50", "us"),
        ("parcomm.recv_wait_us_tail", "us"),
        ("parcomm.overset_bytes_per_step", "B"),
        ("parcomm.halo_bytes_per_step", "B"),
        ("parcomm.max_queue_depth", "count"),
        ("core.hidden_comm_fraction", "ratio"),
        ("core.imbalance", "ratio"),
        ("core.phase_coverage", "ratio"),
        ("core.kernel_coverage", "ratio"),
        ("output.write_ms_per_step", "ms"),
        ("output.writer_wait_ms_per_step", "ms"),
        ("output.bytes_written_per_step", "B"),
        ("output.compression_ratio", "ratio"),
        ("output.write_mib_s", "MiB/s"),
        ("checkpoint.merge_ms", "ms"),
        ("checkpoint.restore_ms", "ms"),
        ("setup.metric_ms", "ms"),
        ("setup.overset_columns_ms", "ms"),
        ("setup.universe_ms", "ms"),
        ("core.unattributed_ms_per_step", "ms"),
        ("trace.overhead_ratio", "ratio"),
        ("host.calib_ns", "ns"),
        ("memory.state_working_set_mib", "MiB"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for k in KERNELS {
        out.push((format!("roofline.{k}.flops_per_step"), "flop"));
        out.push((format!("roofline.{k}.bytes_per_step"), "B"));
        out.push((format!("roofline.{k}.flops_per_byte"), "flop/B"));
    }
    out
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

impl Args {
    /// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
        let mut kv: BTreeMap<String, String> = BTreeMap::new();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            kv.insert(key.to_string(), value);
        }
        let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
        if let Some(k) = kv
            .keys()
            .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
        {
            return Err(format!("unknown option --{k}"));
        }
        let seconds: f64 = get("seconds")?
            .parse()
            .map_err(|e| format!("bad --seconds: {e}"))?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds must lie in (0, 600], got {seconds}"));
        }
        Ok(Args {
            workload: Workload::parse(get("workload")?)?,
            seed: get("seed")?
                .parse()
                .map_err(|e| format!("bad --seed: {e}"))?,
            seconds,
            trace: match get("trace")?.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
            },
        })
    }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (timed operations plus output checks).
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// Measured values by metric name; a metric the run does not
    /// exercise is absent and reported as 0.
    pub values: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Count one operation and whether it failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// The metrics this run reports, with units, in table order.
    pub fn table(&self, trace: bool) -> Vec<(String, &'static str, f64)> {
        let names: Vec<(String, &'static str)> = if trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        names
            .into_iter()
            .map(|(n, u)| {
                let v = self.values.get(&n).copied().unwrap_or(0.0);
                (n, u, if v.is_finite() { v } else { 0.0 })
            })
            .collect()
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json(&self, trace: bool) -> String {
        let metrics: Vec<String> = self
            .table(trace)
            .into_iter()
            .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// FNV-1a 64 digest of a byte string (checkpoint bytes).
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Scratch directory for one run's files, inside the working directory
/// (the checkout), removed when the run ends.
fn work_dir(w: Workload) -> PathBuf {
    PathBuf::from(".bench_build").join(format!("yybench-{}-{}", w.name(), std::process::id()))
}

/// Run one workload on `cfg` (normally `args.workload.config(args.seed)`)
/// and report.
pub fn run(args: &Args, cfg: &RunConfig) -> Result<Outcome, String> {
    let dir = work_dir(args.workload);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let result = workloads::run(args.workload, cfg, args.seconds, args.trace, &dir);
    let cleanup =
        std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()));
    let mut out = result?;
    cleanup?;
    let host = host::Host::probe();
    let calib = host::calib_ns();
    out.notes
        .insert(0, host.line(args.workload.rank_threads(), calib));
    out.set("host.calib_ns", calib);
    out.set("peak_rss_mib", host::peak_rss_mib());
    Ok(out)
}
