//! Properties of the per-kernel performance counters.
//!
//! Two invariants make the counter subsystem trustworthy as the
//! repo's software `MPIPROGINF`:
//!
//! 1. **Conservation** — the per-kernel FLOP cells sum exactly to the
//!    aggregate `RunReport.flops`. Both views are fed from the same
//!    `Meters::kernel` call, so any drift means a kernel site reports
//!    to one view and not the other.
//! 2. **Decomposition invariance** — FLOP tallies follow the
//!    owned-node convention, so the global per-kernel totals of a
//!    serial run and of parallel runs at different process grids are
//!    *bit-exactly* equal. (Byte counts for the halo kernels are the
//!    documented exception: ghost traffic genuinely depends on the
//!    decomposition.)

use yy_obs::counters::kernel;
use yycore::parallel::{run_parallel_supervised, RecoveryOpts};
use yycore::{RunConfig, SerialSim};

fn quick_cfg() -> RunConfig {
    let mut cfg = RunConfig::small();
    cfg.init.perturb_amplitude = 1e-2;
    cfg
}

const STEPS: u64 = 3;

#[test]
fn per_kernel_flops_sum_exactly_to_the_aggregate() {
    let mut sim = SerialSim::new(quick_cfg());
    let report = sim.run(STEPS, 0);
    assert!(report.flops > 0, "serial run must count flops");
    assert_eq!(
        report.kernels.total_flops(),
        report.flops,
        "per-kernel cells must sum exactly to the aggregate meter"
    );
    // Every compute kernel was exercised; halo kernels carry no flops
    // anywhere (serial has no halos at all).
    for id in [kernel::RHS, kernel::RK4_COMBINE, kernel::OVERSET_DONATE, kernel::HEALTH_SCAN] {
        let k = &report.kernels.kernels[id as usize];
        assert!(k.calls > 0 && k.flops > 0, "{} must be exercised", kernel::name(id));
    }
    for id in [kernel::HALO_PACK, kernel::HALO_UNPACK] {
        assert_eq!(report.kernels.kernels[id as usize].calls, 0);
    }
}

#[test]
fn per_kernel_totals_are_decomposition_invariant() {
    let cfg = quick_cfg();
    let mut sim = SerialSim::new(cfg.clone());
    let serial = sim.run(STEPS, 0);
    let run = |pth, pph| {
        run_parallel_supervised(&cfg, pth, pph, STEPS, 0, &RecoveryOpts::default())
            .expect("supervised run completes")
    };
    let (p12, p22) = (run(1, 2), run(2, 2));

    for (tag, par) in [("1x2", &p12.report), ("2x2", &p22.report)] {
        // The parallel conservation law holds per decomposition too.
        assert_eq!(
            par.kernels.total_flops(),
            par.flops,
            "{tag}: per-kernel cells must sum to the aggregate"
        );
        for id in 0..kernel::COUNT {
            let s = &serial.kernels.kernels[id];
            let p = &par.kernels.kernels[id];
            assert_eq!(
                s.flops,
                p.flops,
                "{tag}: {} global FLOP total must match serial exactly",
                kernel::name(id as u8)
            );
        }
        // Owned-node point tallies are decomposition-invariant as well —
        // overset included, since its counters tally owned-target jobs
        // only (halo tallies depend on how the boundary is cut).
        for id in [
            kernel::RHS,
            kernel::RK4_COMBINE,
            kernel::OVERSET_DONATE,
            kernel::OVERSET_FILL,
            kernel::HEALTH_SCAN,
        ] {
            let s = &serial.kernels.kernels[id as usize];
            let p = &par.kernels.kernels[id as usize];
            assert_eq!(s.points, p.points, "{tag}: {} points", kernel::name(id));
            // Vector-element tallies are per-point models (a P-pass fused
            // sweep counts P·points), so they are decomposition-invariant
            // everywhere — including the fused RHS and the fused RK4
            // combine, whose pass structure must not leak into the model.
            assert_eq!(
                s.vector_elements,
                p.vector_elements,
                "{tag}: {} vector_elements",
                kernel::name(id)
            );
            // Loop counts (and hence equivalent vector length) are a
            // property of the sweep structure, which the overlapped
            // pipeline legitimately changes for the RHS: the six-box
            // shell decomposition chops the radial inner loop. Every
            // other kernel keeps serial-identical loop structure.
            if id != kernel::RHS {
                assert_eq!(s.loops, p.loops, "{tag}: {} loops", kernel::name(id));
            }
        }
    }

    // And the two decompositions agree with each other on everything
    // global, including the overset interpolation volume.
    for id in 0..kernel::COUNT {
        let a = &p12.report.kernels.kernels[id];
        let b = &p22.report.kernels.kernels[id];
        assert_eq!(a.flops, b.flops, "{} flops 1x2 vs 2x2", kernel::name(id as u8));
    }
    for id in [kernel::OVERSET_DONATE, kernel::OVERSET_FILL] {
        let a = &p12.report.kernels.kernels[id as usize];
        let b = &p22.report.kernels.kernels[id as usize];
        assert_eq!(a.points, b.points, "{} points 1x2 vs 2x2", kernel::name(id));
    }
}
