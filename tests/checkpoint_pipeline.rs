//! Cross-crate checkpoint pipeline: a serial checkpoint written to disk
//! restarts a run whose continuation matches both the uninterrupted
//! serial trajectory and the parallel driver's trajectory.

use yycore::checkpoint::Checkpoint;
use yycore::{run_parallel_supervised, RecoveryOpts, RunConfig, SerialSim};

fn cfg() -> RunConfig {
    let mut cfg = RunConfig::small();
    cfg.init.perturb_amplitude = 2e-2;
    cfg.init.seed_amplitude = 1e-4;
    cfg
}

#[test]
fn disk_round_trip_resumes_exactly() {
    let dir = std::env::temp_dir().join("yycore_ck_integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("resume.ck");

    // Continuous reference.
    let mut reference = SerialSim::new(cfg());
    reference.run(5, 0);

    // Interrupted run: 2 steps, checkpoint to disk, fresh process-like
    // restore, 3 more steps.
    let mut first = SerialSim::new(cfg());
    first.run(2, 0);
    Checkpoint::capture(&first).save(&path).unwrap();
    drop(first);

    let loaded = Checkpoint::load(&path).unwrap();
    let mut resumed = SerialSim::new(cfg());
    loaded.restore(&mut resumed);
    resumed.run(3, 0);

    assert_eq!(reference.step, resumed.step);
    assert_eq!(reference.time, resumed.time);
    assert_eq!(reference.yin, resumed.yin);
    assert_eq!(reference.yang, resumed.yang);
    std::fs::remove_file(&path).ok();
}

/// A restored serial state agrees with a parallel run of the same length:
/// ties the checkpoint path and the parallel path to the same trajectory.
#[test]
fn checkpoint_trajectory_matches_parallel_run() {
    let cfg = cfg();
    // Serial through checkpoint machinery.
    let mut serial = SerialSim::new(cfg.clone());
    serial.run(2, 0);
    let ck = Checkpoint::capture(&serial);
    let mut resumed = SerialSim::new(cfg.clone());
    ck.restore(&mut resumed);
    resumed.run(2, 0);

    // Parallel from scratch, same total steps.
    let yin = run_parallel_supervised(&cfg, 2, 1, 4, 0, &RecoveryOpts::default())
        .expect("parallel run completes")
        .final_checkpoint
        .yin;
    let (_, nth, nph) = resumed.grid.dims();
    for k in 0..nph as isize {
        for j in 0..nth as isize {
            for i in 0..cfg.nr {
                assert_eq!(
                    resumed.yin.rho.at(i, j, k),
                    yin.rho.at(i, j, k),
                    "rho mismatch at ({i},{j},{k})"
                );
                assert_eq!(resumed.yin.a.p.at(i, j, k), yin.a.p.at(i, j, k));
            }
        }
    }
}
