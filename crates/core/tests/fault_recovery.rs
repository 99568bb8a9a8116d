//! Fault-tolerant runtime, end to end: a supervised parallel run under
//! injected message faults (and an injected rank kill) must recover from
//! the last checkpoint and reproduce the fault-free trajectory bitwise.

use std::time::Duration;
use yy_mhd::State;
use yy_parcomm::FaultSpec;
use yycore::checkpoint::Checkpoint;
use yycore::parallel::{run_parallel_supervised, FailurePolicy, RecoveryOpts};
use yycore::{HealthLimits, RunConfig, SerialSim};

fn quick_cfg() -> RunConfig {
    let mut cfg = RunConfig::small();
    cfg.init.perturb_amplitude = 1e-2;
    cfg
}

/// The fault-free run's final checkpoint.
fn clean_run(cfg: &RunConfig, steps: u64) -> Checkpoint {
    run_parallel_supervised(cfg, 1, 2, steps, 0, &RecoveryOpts::default())
        .expect("fault-free run completes")
        .final_checkpoint
}

/// Compare the owned (non-ghost) region of two panel states bitwise.
fn assert_owned_equal(cfg: &RunConfig, a: &State, b: &State, what: &str) {
    let grid = cfg.grid();
    let (nr, nth, nph) = grid.dims();
    let mut checked = 0usize;
    for (aa, ba) in a.arrays().into_iter().zip(b.arrays()) {
        for k in 0..nph as isize {
            for j in 0..nth as isize {
                for i in 0..nr {
                    assert_eq!(
                        aa.at(i, j, k),
                        ba.at(i, j, k),
                        "{what}: mismatch at node ({i},{j},{k})"
                    );
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 50_000, "{what}: comparison actually covered the grid");
}

/// A rank killed mid-run is recovered from the last checkpoint, and the
/// final state matches the uninterrupted run bit for bit — even with
/// message drops and delays active the whole time.
#[test]
fn injected_kill_recovers_bit_exact() {
    let cfg = quick_cfg();
    let baseline = clean_run(&cfg, 6);
    let opts = RecoveryOpts {
        fault: FaultSpec::seeded(42)
            .with_drop(0.05)
            .with_delay(0.10, Duration::from_micros(200))
            .with_kill(1, 4),
        checkpoint_every: 2,
        deadline: Duration::from_secs(20),
        ..RecoveryOpts::default()
    };
    let sup = run_parallel_supervised(&cfg, 1, 2, 6, 0, &opts).expect("supervised run recovers");
    assert!(!sup.recoveries.is_empty(), "the injected kill must be recovered from");
    assert!(
        sup.recoveries[0].cause.contains("injected kill at step 4"),
        "unexpected cause: {}",
        sup.recoveries[0].cause
    );
    assert!(sup.recoveries[0].resume_step >= 2, "a periodic checkpoint existed before the kill");
    assert_eq!(sup.dt_scale, 1.0, "no health violation, so no dt reduction");
    assert_eq!(sup.final_checkpoint.step, 6);
    assert_owned_equal(&cfg, &sup.final_checkpoint.yin, &baseline.yin, "yin");
    assert_owned_equal(&cfg, &sup.final_checkpoint.yang, &baseline.yang, "yang");
}

/// Heavy drop/delay/duplicate rates (no kill) complete via bounded
/// retransmission with no hang, zero recoveries, and a bit-exact state.
#[test]
fn message_faults_complete_without_hang() {
    let cfg = quick_cfg();
    let baseline = clean_run(&cfg, 4);
    let opts = RecoveryOpts {
        fault: FaultSpec::seeded(7)
            .with_drop(0.25)
            .with_delay(0.25, Duration::from_micros(500))
            .with_duplicate(0.20),
        checkpoint_every: 0,
        deadline: Duration::from_secs(20),
        ..RecoveryOpts::default()
    };
    let sup = run_parallel_supervised(&cfg, 1, 2, 4, 0, &opts).expect("faulty run completes");
    assert!(sup.recoveries.is_empty(), "message faults alone must not need recovery");
    assert_owned_equal(&cfg, &sup.final_checkpoint.yin, &baseline.yin, "yin");
    assert_owned_equal(&cfg, &sup.final_checkpoint.yang, &baseline.yang, "yang");
}

/// The overlapped exchange posts sends early and computes deep-interior
/// work while messages are in flight; aggressive injected delivery
/// delays shuffle message *arrival* into that window and past it. The
/// drain points still impose the data dependencies, so the result must
/// match the serial reference bit for bit on every decomposition.
#[test]
fn overlap_under_injected_delays_matches_serial_bitwise() {
    let cfg = quick_cfg();
    let mut serial = SerialSim::new(cfg.clone());
    serial.run(4, 0);
    let opts = RecoveryOpts {
        fault: FaultSpec::seeded(99).with_delay(0.5, Duration::from_millis(1)),
        checkpoint_every: 0,
        deadline: Duration::from_secs(20),
        ..RecoveryOpts::default()
    };
    for (pth, pph) in [(1, 2), (2, 2)] {
        let sup = run_parallel_supervised(&cfg, pth, pph, 4, 0, &opts)
            .expect("delayed run completes");
        assert!(sup.recoveries.is_empty(), "delays alone must not trigger recovery");
        let tag = format!("{pth}x{pph}");
        assert_owned_equal(&cfg, &sup.final_checkpoint.yin, &serial.yin, &format!("yin {tag}"));
        assert_owned_equal(&cfg, &sup.final_checkpoint.yang, &serial.yang, &format!("yang {tag}"));
    }
}

/// An unsatisfiable health limit exercises graceful degradation: the
/// supervisor reduces dt and rolls back until its budget is exhausted,
/// then reports a descriptive error instead of panicking.
#[test]
fn persistent_health_violation_degrades_then_reports() {
    let cfg = quick_cfg();
    let opts = RecoveryOpts {
        // The initial density is O(1): a floor of 1e9 can never be met.
        health: HealthLimits { rho_floor: 1e9, ..HealthLimits::default() },
        max_dt_reductions: 1,
        deadline: Duration::from_secs(20),
        ..RecoveryOpts::default()
    };
    let err = run_parallel_supervised(&cfg, 1, 2, 3, 0, &opts)
        .expect_err("impossible health limit must fail gracefully");
    assert!(err.contains("density floor"), "unexpected error: {err}");
    assert!(err.contains("dt reductions"), "unexpected error: {err}");
}

fn checkpoint_bytes(ck: &Checkpoint) -> Vec<u8> {
    let mut v = Vec::new();
    ck.write_to(&mut v).expect("serialize checkpoint");
    v
}

/// A node that dies the same way on every retry is a *persistent* fault.
/// Under `on_failure=retile` the supervisor excludes it, shrinks the
/// layout 2×2 → 1×2, finishes in degraded mode — and the final
/// checkpoint is byte-identical to an uninterrupted serial run.
#[test]
fn persistent_kill_retiles_and_matches_serial_bytewise() {
    let cfg = quick_cfg();
    let mut serial = SerialSim::new(cfg.clone());
    serial.run(6, 0);
    let serial_ck = checkpoint_bytes(&Checkpoint::capture(&serial));

    let opts = RecoveryOpts {
        fault: FaultSpec::seeded(42).with_persistent_kill(1, 4),
        checkpoint_every: 2,
        deadline: Duration::from_secs(30),
        on_failure: FailurePolicy::Retile,
        max_retiles: 2,
        retile_backoff: Duration::from_millis(1),
        ..RecoveryOpts::default()
    };
    let sup = run_parallel_supervised(&cfg, 2, 2, 6, 0, &opts)
        .expect("persistent kill must be survived by re-tiling");
    assert_eq!(sup.retiles.len(), 1, "exactly one shrink: {:?}", sup.retiles);
    let rt = &sup.retiles[0];
    assert_eq!(rt.from, (2, 2));
    assert_eq!(rt.to, (1, 2));
    assert_eq!(rt.excluded_node, 1);
    assert_eq!(sup.final_layout, (1, 2));
    assert_eq!(sup.excluded_nodes, vec![1]);
    assert!(sup.degraded, "a shrunk run finishes in degraded mode");
    assert!(
        sup.recoveries.iter().any(|ev| ev.cause.contains("persistent fault")),
        "the classifier's verdict is recorded: {:?}",
        sup.recoveries
    );
    assert!(sup.passes.len() >= 2, "per-pass stats cover kill and resume passes");
    assert_eq!(sup.final_checkpoint.step, 6);
    assert_eq!(
        checkpoint_bytes(&sup.final_checkpoint),
        serial_ck,
        "re-tiled trajectory must stay byte-identical to serial"
    );
}

/// The same persistent fault under `on_failure=retry` must not burn the
/// whole retry budget: two identical deaths classify it, and the run
/// fails fast with an error that names the fix.
#[test]
fn persistent_kill_under_retry_fails_fast_with_structured_error() {
    let cfg = quick_cfg();
    let opts = RecoveryOpts {
        fault: FaultSpec::seeded(42).with_persistent_kill(1, 4),
        checkpoint_every: 2,
        deadline: Duration::from_secs(30),
        max_recoveries: 20,
        ..RecoveryOpts::default()
    };
    let err = run_parallel_supervised(&cfg, 2, 2, 6, 0, &opts)
        .expect_err("retry cannot outlast a deterministic fault");
    assert!(err.contains("persistent fault"), "unexpected error: {err}");
    assert!(err.contains("node 1"), "names the faulty node: {err}");
    assert!(err.contains("failed identically 2 times"), "counts the deaths: {err}");
    assert!(err.contains("on_failure=retile"), "points at the remedy: {err}");
}

/// `on_failure=abort` surfaces the very first failure as an error
/// without any rollback.
#[test]
fn abort_policy_fails_on_first_fault() {
    let cfg = quick_cfg();
    let opts = RecoveryOpts {
        fault: FaultSpec::seeded(42).with_kill(1, 2),
        checkpoint_every: 2,
        deadline: Duration::from_secs(30),
        on_failure: FailurePolicy::Abort,
        ..RecoveryOpts::default()
    };
    let err = run_parallel_supervised(&cfg, 1, 2, 4, 0, &opts)
        .expect_err("abort policy must not retry");
    assert!(err.contains("on_failure=abort"), "unexpected error: {err}");
    assert!(err.contains("injected kill"), "carries the cause: {err}");
}

/// Exhausting the retile budget is reported, not retried forever: with
/// `max_retiles=1` a second persistent fault (on the shrunk layout) must
/// surface the budget error. A single persistent node only triggers one
/// shrink, so this drives the ladder with two.
#[test]
fn retile_budget_exhaustion_reports() {
    let cfg = quick_cfg();
    let opts = RecoveryOpts {
        // Node 1 dies at step 4 forever; after exclusion and the 2×2→1×2
        // shrink, node 0 starts dying at step 2 forever.
        fault: FaultSpec::seeded(42)
            .with_persistent_kill(1, 4)
            .with_persistent_kill(0, 2),
        checkpoint_every: 2,
        deadline: Duration::from_secs(30),
        on_failure: FailurePolicy::Retile,
        max_retiles: 1,
        retile_backoff: Duration::from_millis(1),
        ..RecoveryOpts::default()
    };
    let err = run_parallel_supervised(&cfg, 2, 2, 6, 0, &opts)
        .expect_err("a second persistent fault must exhaust max_retiles=1");
    assert!(err.contains("giving up after 1 re-tiles"), "unexpected error: {err}");
}
