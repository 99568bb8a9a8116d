//! Output-pipeline cost guard: a multi-rank supervised run in three
//! output configurations, all checkpointing in memory every
//! `ckpt_every` steps (the recovery feature under test is the *file
//! output*, so the collective gather is in every baseline) —
//!
//! * `off`   — no shard directory: output off, the baseline step rate
//! * `sync`  — per-rank shards every checkpoint, written inline
//!   (`ckpt_async=0`): pack + encode + write all on the step path
//! * `async` — the same shards handed to the background writer thread
//!   (`ckpt_async=1`): only pack + encode + buffer handoff on the step
//!   path, the file write overlapped with the next steps' compute
//!
//! CI gates on `async / off`: the overlapped output pipeline must cost
//! < 5% of the step rate (tolerance overridable via `YY_CI_IO_TOL`).
//! The `sync` row is the motivation — it records what the overlap
//! hides. Write bandwidth and the payload compression ratio ride along.
//!
//! The JSON records `cores` (the host's available parallelism): on a
//! single-core host the writer thread has no spare core to overlap
//! onto, so `async` and `sync` both pay the full encode+write cost and
//! the `async/off` ratio measures total output CPU, not overlap. CI
//! gates `async` against `sync` instead in that case.
//!
//! With `BENCH_IO_JSON=<path>` set, writes a machine-readable summary.
//!
//! Knobs: `YY_BENCH_IO_GRID` (small|medium), `YY_BENCH_IO_STEPS`,
//! `YY_BENCH_IO_REPS`, `YY_BENCH_IO_EVERY`, `YY_BENCH_IO_CODEC`,
//! `YY_BENCH_IO_PTH`/`YY_BENCH_IO_PPH`.
//!
//! Run with: `cargo bench -p yy-bench --bench io`

use std::time::Duration;
use yycore::parallel::{run_parallel_supervised, RecoveryOpts};
use yycore::report::IoStats;
use yycore::{CkptCodec, RunConfig};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn decomp() -> (usize, usize) {
    (env_u64("YY_BENCH_IO_PTH", 1) as usize, env_u64("YY_BENCH_IO_PPH", 2) as usize)
}

fn cfg() -> RunConfig {
    let mut cfg = match std::env::var("YY_BENCH_IO_GRID").as_deref() {
        Ok("medium") => RunConfig::medium(),
        _ => RunConfig::small(),
    };
    cfg.init.perturb_amplitude = 1e-2;
    cfg
}

/// Seconds per step (and the io section) of one supervised run. Each
/// sharded run writes into a fresh scratch directory, removed after.
fn measure(
    cfg: &RunConfig,
    steps: u64,
    every: u64,
    shards: Option<(bool, CkptCodec)>,
) -> (f64, IoStats) {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let (pth, pph) = decomp();
    let dir = shards.map(|_| {
        std::env::temp_dir().join(format!(
            "yy_bench_io_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ))
    });
    let opts = RecoveryOpts {
        deadline: Duration::from_secs(120),
        checkpoint_every: every,
        ckpt_dir: dir.clone(),
        ckpt_async: shards.map(|(a, _)| a).unwrap_or(true),
        ckpt_compress: shards.map(|(_, c)| c).unwrap_or_default(),
        ..RecoveryOpts::default()
    };
    let rep = run_parallel_supervised(cfg, pth, pph, steps, 0, &opts)
        .expect("io bench run completes");
    if let Some(dir) = dir {
        std::fs::remove_dir_all(&dir).ok();
    }
    (rep.report.wall_seconds / steps as f64, rep.report.io)
}

fn mib_s(io: &IoStats) -> f64 {
    if io.write_wall_s <= 0.0 {
        return 0.0;
    }
    io.bytes_written as f64 / (1024.0 * 1024.0) / io.write_wall_s
}

fn main() {
    let cfg = cfg();
    let steps = env_u64("YY_BENCH_IO_STEPS", 12);
    let reps = env_u64("YY_BENCH_IO_REPS", 5) as usize;
    let every = env_u64("YY_BENCH_IO_EVERY", 2);
    let codec = CkptCodec::parse(
        &std::env::var("YY_BENCH_IO_CODEC").unwrap_or_else(|_| "delta".into()),
    )
    .expect("YY_BENCH_IO_CODEC");
    let (pth, pph) = decomp();

    // Interleave the modes rep by rep so host drift lands on all three
    // sides; gate on per-mode minima (the least noisy estimator).
    let (mut off, mut sync, mut asy) =
        (Vec::with_capacity(reps), Vec::with_capacity(reps), Vec::with_capacity(reps));
    let (mut sync_io, mut async_io) = (IoStats::default(), IoStats::default());
    for _ in 0..reps {
        off.push(measure(&cfg, steps, every, None).0);
        let (t, io) = measure(&cfg, steps, every, Some((false, codec)));
        sync.push(t);
        sync_io = io;
        let (t, io) = measure(&cfg, steps, every, Some((true, codec)));
        asy.push(t);
        async_io = io;
    }
    let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let (t_off, t_sync, t_async) = (min(&off), min(&sync), min(&asy));
    let (r_sync, r_async) = (t_sync / t_off, t_async / t_off);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    println!("io_cost/off_{pth}x{pph}        {:>12.2} µs/step  ({cores} core(s))", t_off * 1e6);
    println!(
        "io_cost/sync_{pth}x{pph}       {:>12.2} µs/step  x{r_sync:.4} vs off  \
         {:.1} MiB/s  x{:.2} compression ({})",
        t_sync * 1e6,
        mib_s(&sync_io),
        sync_io.compression_ratio(),
        codec.name()
    );
    println!(
        "io_cost/async_{pth}x{pph}      {:>12.2} µs/step  x{r_async:.4} vs off  \
         {:.1} MiB/s  x{:.2} compression ({})",
        t_async * 1e6,
        mib_s(&async_io),
        async_io.compression_ratio(),
        codec.name()
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"io\",\n",
            "  \"cores\": {},\n",
            "  \"steps\": {},\n",
            "  \"reps\": {},\n",
            "  \"decomp\": [{}, {}],\n",
            "  \"ckpt_every\": {},\n",
            "  \"codec\": \"{}\",\n",
            "  \"off\": {{ \"min_ns_per_step\": {:.0} }},\n",
            "  \"sync\": {{ \"min_ns_per_step\": {:.0}, \"ratio_vs_off\": {:.4}, ",
            "\"write_mib_s\": {:.1}, \"compression_ratio\": {:.4} }},\n",
            "  \"async\": {{ \"min_ns_per_step\": {:.0}, \"ratio_vs_off\": {:.4}, ",
            "\"write_mib_s\": {:.1}, \"compression_ratio\": {:.4} }}\n",
            "}}\n"
        ),
        cores,
        steps,
        reps,
        pth,
        pph,
        every,
        codec.name(),
        t_off * 1e9,
        t_sync * 1e9,
        r_sync,
        mib_s(&sync_io),
        sync_io.compression_ratio(),
        t_async * 1e9,
        r_async,
        mib_s(&async_io),
        async_io.compression_ratio(),
    );
    if let Ok(path) = std::env::var("BENCH_IO_JSON") {
        std::fs::write(&path, &json).expect("write BENCH_io.json");
        println!("wrote {path}");
    }
}
