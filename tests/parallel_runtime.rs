//! The shared parallel runtime, end to end: datagen and training are
//! byte-identical at any worker count, and `exec`'s fault policy (fail-fast
//! by default, quarantine on request) holds on real threads.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex, OnceLock};
use std::time::Duration;

use gpu_sim::{GpuConfig, Time};
use ssmdvfs::exec::{parallel_map_indexed, parallel_map_quarantine, FaultPolicy};
use ssmdvfs::{
    generate_suite, train_combined_jobs, DataGenConfig, DvfsDataset, FeatureSet, ModelArch,
};
use tinynn::TrainConfig;

fn tiny_suite(jobs: usize) -> Vec<DvfsDataset> {
    let cfg = GpuConfig::small_test();
    let dg = DataGenConfig {
        breakpoint_interval_epochs: 2,
        max_time: Time::from_micros(300.0),
        ..DataGenConfig::default()
    };
    let benches: Vec<_> = ["sgemm", "lbm"]
        .iter()
        .map(|n| gpu_workloads::by_name(n).expect("suite benchmark").scaled(0.03))
        .collect();
    generate_suite(&benches, &cfg, &dg, jobs)
}

/// The two-job suite, generated once for both tests that need it.
fn parallel_suite() -> &'static [DvfsDataset] {
    static SUITE: OnceLock<Vec<DvfsDataset>> = OnceLock::new();
    SUITE.get_or_init(|| tiny_suite(2))
}

#[test]
fn suite_datagen_is_byte_identical_at_one_and_two_jobs() {
    let serial = tiny_suite(1);
    assert!(serial.iter().all(|d| !d.is_empty()), "both benchmarks must produce samples");
    let json = |sets: &[DvfsDataset]| -> Vec<String> {
        sets.iter().map(|d| serde_json::to_string(d).expect("dataset serializes")).collect()
    };
    assert_eq!(json(&serial), json(parallel_suite()), "datagen bytes changed with --jobs");
}

#[test]
fn trained_model_is_byte_identical_at_one_and_two_jobs() {
    let mut dataset = DvfsDataset::default();
    for part in parallel_suite() {
        dataset.extend(part.clone());
    }
    // Several full minibatches, so every batch fans out over many shards.
    assert!(dataset.len() > 4 * TrainConfig::default().batch_size, "{} samples", dataset.len());
    let num_ops = GpuConfig::small_test().vf_table.len();
    let config = TrainConfig { epochs: 3, ..TrainConfig::default() };
    let model_json = |jobs: usize| {
        let (model, _) = train_combined_jobs(
            &dataset,
            &FeatureSet::refined(),
            &ModelArch::paper_compressed(),
            num_ops,
            &config,
            0.25,
            jobs,
        );
        serde_json::to_string(&model).expect("model serializes")
    };
    assert_eq!(model_json(1), model_json(2), "model bytes changed with --jobs");
}

#[test]
fn a_panicking_item_fails_fast_with_its_payload() {
    // Two workers. Whoever takes item 0 holds it until an item past the
    // panicking one starts (or a timeout passes), so the other worker runs
    // items 1..=5 alone and, without fail-fast, would start item 6 right
    // after the panic.
    let (late_tx, late_rx) = mpsc::channel::<()>();
    let late_rx = Mutex::new(late_rx);
    let started = Mutex::new(Vec::new());
    let result = catch_unwind(AssertUnwindSafe(|| {
        parallel_map_indexed(2, (0..64).collect::<Vec<u32>>(), |_, x| {
            started.lock().unwrap().push(x);
            match x {
                0 => {
                    let _ = late_rx.lock().unwrap().recv_timeout(Duration::from_millis(500));
                }
                5 => panic!("job {x} exploded"),
                x if x > 5 => late_tx.send(()).unwrap(),
                _ => {}
            }
            x
        })
    }));
    let payload = result.expect_err("the item's panic must reach the caller");
    assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("job 5 exploded"));
    let mut started = started.into_inner().unwrap();
    started.sort_unstable();
    assert_eq!(started, (0..=5).collect::<Vec<_>>(), "an item started after the panic");
}

#[test]
fn quarantine_drops_a_persistent_panicker_after_its_retry_budget() {
    let policy = FaultPolicy { max_retries: 2 };
    let items: Vec<u32> = (0..32).collect();
    let (out, report) = parallel_map_quarantine(2, &items, policy, |_, &x| {
        if x == 5 {
            panic!("unit {x} always explodes");
        }
        x
    });
    assert_eq!(report.dropped.len(), 1, "{report}");
    let record = &report.dropped[0];
    assert_eq!(record.index, 5);
    assert_eq!(record.attempts, policy.max_retries + 1);
    assert!(out[5].is_none());
    assert_eq!(out.iter().flatten().count(), 31);
}
