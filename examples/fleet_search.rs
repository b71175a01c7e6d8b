//! Fleet search: one configuration sharded across three edge devices,
//! scheduled over a bounded thread budget with generation-granular
//! preemption, streaming live progress reports, and persisting artifacts
//! so a second invocation warm-starts instantly.
//!
//! ```sh
//! cargo run --release --example fleet_search
//! ```
//!
//! Run it twice: the first run trains one latency predictor per device and
//! persists everything under `target/fleet-artifacts/`; the second run
//! loads the artifacts back, trains **zero** predictor epochs, resumes
//! each shard's checkpoint at its final generation, and reports the
//! bit-identical outcome.

use hgnas::core::{SearchConfig, TaskConfig};
use hgnas::device::DeviceKind;
use hgnas::fleet::{
    event_channel, run_fleet_with_events, ArtifactStore, FleetConfig, FleetEvent, StreamingReporter,
};
use hgnas::predictor::PredictorConfig;

fn main() {
    let devices = vec![
        DeviceKind::Rtx3080,
        DeviceKind::JetsonTx2,
        DeviceKind::RaspberryPi3B,
    ];
    let task = TaskConfig::tiny(42);
    let mut base = SearchConfig::fast(devices[0]);
    // Reduced predictor so a cold start stays in example territory.
    base.predictor = PredictorConfig {
        train_samples: 150,
        val_samples: 50,
        epochs: 10,
        lr: 3e-3,
        gcn_dims: vec![24, 24],
        mlp_hidden: vec![16],
        seed: 1,
        global_node: true,
        batch: 4,
    };
    base.ea_stage2.iterations = 4;

    let store = ArtifactStore::open("target/fleet-artifacts").expect("artifact store");
    let mut fleet = FleetConfig::new(devices);
    // Engine shape: multiplex the three shards over a 2-thread kernel
    // budget, preempting every generation. Bit-identical to any other
    // shape — this just shows the slicing in the event stream.
    fleet.threads = 2;
    fleet.preemption_stride = 1;

    println!(
        "== HGNAS fleet search over {} devices (threads: {}, stride: {}) ==",
        fleet.devices.len(),
        fleet.threads,
        fleet.preemption_stride
    );
    println!("artifact store: {}\n", store.root().display());

    // Stream events into an incremental reporter on a consumer thread
    // while the engine runs the fleet.
    let (tx, rx) = event_channel();
    let shard_count = fleet.devices.len();
    let (report, final_snapshot) = std::thread::scope(|s| {
        let consumer = s.spawn(move || {
            let mut reporter = StreamingReporter::new(shard_count);
            for ev in rx.iter() {
                // Fold first so a ShardFinished snapshot includes the row.
                reporter.observe(&ev);
                match &ev {
                    FleetEvent::ShardStarted {
                        device,
                        resumed_from,
                        warm_predictor,
                        ..
                    } => {
                        let warm = if *warm_predictor {
                            "warm predictor"
                        } else {
                            "cold predictor"
                        };
                        match resumed_from {
                            Some(g) => {
                                println!(
                                    "[{:<14}] started ({warm}), resumed at generation {g}",
                                    device.name()
                                );
                            }
                            None => println!("[{:<14}] started ({warm})", device.name()),
                        }
                    }
                    FleetEvent::ShardPreempted {
                        device, generation, ..
                    } => println!(
                        "[{:<14}] preempted at generation {generation}, re-queued",
                        device.name()
                    ),
                    FleetEvent::ParetoUpdated { device, front, .. } => println!(
                        "[{:<14}] Pareto front now {} candidates",
                        device.name(),
                        front.len()
                    ),
                    FleetEvent::ShardFinished { device, .. } => {
                        println!("[{:<14}] finished\n", device.name());
                        println!("{}", reporter.snapshot());
                    }
                    _ => {}
                }
            }
            reporter.snapshot()
        });
        let report = run_fleet_with_events(&task, &base, &fleet, Some(&store), Some(tx));
        (report, consumer.join().expect("reporter thread"))
    });
    let report = report.expect("fleet run");

    println!("== final streaming snapshot ==\n{final_snapshot}");
    for shard in &report.reports {
        let start = if shard.warm_predictor {
            "warm start (0 predictor epochs)".to_string()
        } else {
            format!(
                "cold start ({} predictor epochs)",
                shard.predictor_epochs_run
            )
        };
        let resumed = match shard.resumed_from_generation {
            Some(g) => format!(", resumed from generation {g}"),
            None => String::new(),
        };
        println!(
            "{:<14} {}{resumed}; {} slices; Pareto front: {} candidates",
            shard.device.name(),
            start,
            shard.slices,
            shard.pareto.len()
        );
        for p in shard.pareto.iter().take(3) {
            println!(
                "    {:>8.2} ms @ {:.1}% one-shot accuracy",
                p.latency_ms,
                p.accuracy * 100.0
            );
        }
    }

    println!("\n{}", report.summary_table());
    println!("run this example again for the warm start.");
}
