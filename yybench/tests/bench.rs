//! The benchmark's own tests: the traced replay is exact, every metric
//! of `BENCHMARK.json` is printed with its unit, and the seed reaches
//! the program.

use yy_obs::Json;
use yybench::replay::{timed_step, Replay};
use yybench::workloads::{ck_bytes, initial_digest};
use yybench::{per_layer, Args, Workload, END_TO_END};
use yycore::checkpoint::Checkpoint;
use yycore::{RunConfig, SerialSim};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn replay_is_bit_identical_to_advance_on_a_tiny_grid() {
    let cfg = RunConfig::small();
    let mut sim = SerialSim::new(cfg.clone());
    let mut replay = Replay::new(cfg);
    // Past the dt_every = 5 cadence, so a cached and a fresh CFL step
    // are both replayed.
    for step in 0..7 {
        timed_step(&mut sim);
        replay.step();
        assert!(replay.health());
        assert_eq!(
            ck_bytes(&Checkpoint::capture(&sim)),
            ck_bytes(&Checkpoint::capture(&replay.sim)),
            "replay diverged from SerialSim::advance at step {step}"
        );
    }
}

#[test]
fn metric_tables_match_benchmark_json() {
    let doc = benchmark_json();
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.into(), u.into()))
        .collect();
    assert_eq!(listed(&doc, "end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.into()))
        .collect();
    assert_eq!(listed(&doc, "per_layer"), layers);
    let names: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("workload name")
                .to_string()
        })
        .collect();
    assert_eq!(names, Workload::ALL.map(|w| w.name().to_string()));
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let doc = benchmark_json();
    for w in Workload::ALL {
        for trace in [false, true] {
            // The workload's code path on the small grid, briefly.
            let args = Args {
                workload: w,
                seed: 7,
                seconds: 0.05,
                trace,
            };
            let cfg = RunConfig {
                init: w.config(args.seed).init,
                ..RunConfig::small()
            };
            let out = yybench::run(&args, &cfg).expect("workload runs");
            let result = Json::parse(&out.json(trace)).expect("result line is JSON");
            assert_eq!(
                result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{}: {:?}",
                w.name(),
                out.notes
            );
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            let metrics = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics object");
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(n, m)| {
                    assert!(
                        m.get("value").and_then(Json::as_f64).is_some(),
                        "{n} has no value"
                    );
                    (
                        n.clone(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .expect("unit")
                            .to_string(),
                    )
                })
                .collect();
            assert_eq!(
                printed,
                listed(&doc, if trace { "per_layer" } else { "end_to_end" })
            );
            if !trace {
                let v = |n: &str| {
                    metrics
                        .iter()
                        .find(|(k, _)| k == n)
                        .and_then(|(_, m)| m.get("value")?.as_f64())
                };
                for (name, _) in END_TO_END {
                    let x = v(name).unwrap();
                    assert!(x > 0.0 && x.is_finite(), "{}: {name} = {x}", w.name());
                }
            }
        }
    }
}

#[test]
fn the_seed_reaches_the_program() {
    for w in Workload::ALL {
        assert_eq!(w.config(11), w.config(11));
        assert_eq!(w.config(11).init.seed, 11);
        assert_eq!(
            RunConfig {
                init: w.config(11).init,
                ..w.config(12)
            },
            w.config(11)
        );
    }
    let small = |seed| RunConfig {
        init: Workload::SerialDeep.config(seed).init,
        ..RunConfig::small()
    };
    assert_eq!(initial_digest(&small(11)), initial_digest(&small(11)));
    assert_ne!(initial_digest(&small(11)), initial_digest(&small(12)));
}

#[test]
fn arguments_are_checked() {
    let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
    let a = parse("--workload panels_1x1 --seed 3 --seconds 10 --trace 1").unwrap();
    assert_eq!(
        (a.workload, a.seed, a.seconds, a.trace),
        (Workload::Panels1x1, 3, 10.0, true)
    );
    assert!(parse("--workload nope --seed 3 --seconds 10 --trace 0").is_err());
    assert!(parse("--workload serial_deep --seed 3 --seconds 10").is_err());
    assert!(parse("--workload serial_deep --seed 3 --seconds 10 --trace 2").is_err());
    assert!(parse("--workload serial_deep --seed x --seconds 10 --trace 0").is_err());
    assert!(parse("--workload serial_deep --seed 3 --seconds 10 --trace 0 --extra 1").is_err());
}
