//! The paper's parallelization in action: run the geodynamo on a
//! flat-MPI-style rank team (threads standing in for MPI processes) and
//! report the communication structure.
//!
//! ```text
//! cargo run --release --example parallel_run [pth=1] [pph=2] [steps=20]
//! ```
//!
//! The rank layout mirrors §IV exactly: the world splits into Yin and
//! Yang panels, each panel forms a 2-D (θ, φ) Cartesian process grid,
//! halos move between nearest neighbours, and overset interpolation data
//! crosses between the panels under the world communicator.

use yycore::{run_parallel_supervised, RecoveryOpts, RunConfig};

fn main() {
    let (mut pth, mut pph, mut steps) = (1usize, 2usize, 20u64);
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("pth=") {
            pth = v.parse().expect("pth integer");
        } else if let Some(v) = arg.strip_prefix("pph=") {
            pph = v.parse().expect("pph integer");
        } else if let Some(v) = arg.strip_prefix("steps=") {
            steps = v.parse().expect("steps integer");
        }
    }
    let mut cfg = RunConfig::small();
    cfg.init.perturb_amplitude = 2e-2;

    let nprocs = 2 * pth * pph;
    println!(
        "# {} ranks: 2 panels (MPI_COMM_SPLIT) x {}x{} process grid (MPI_CART_CREATE)",
        nprocs, pth, pph
    );
    let sample = (steps / 5).max(1);
    let sup = run_parallel_supervised(&cfg, pth, pph, steps, sample, &RecoveryOpts::default())
        .expect("parallel run completes");
    let r = &sup.report;
    println!(
        "# {} steps to t = {:.4} in {:.2}s  ({:.1} MFLOPS aggregate)",
        r.steps,
        r.time,
        r.wall_seconds,
        r.mflops()
    );
    println!(
        "# traffic: halo {} KiB, overset {} KiB ({:.1}% overset)",
        r.halo_bytes / 1024,
        r.overset_bytes / 1024,
        100.0 * r.overset_bytes as f64 / (r.halo_bytes + r.overset_bytes).max(1) as f64
    );
    print!("{}", r.series_csv());
}
