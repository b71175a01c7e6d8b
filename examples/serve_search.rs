//! Search-as-a-service: start the daemon in-process, submit searches as
//! two tenants with different priorities, stream events over the wire
//! protocol, and demonstrate a TCP client against the same daemon.
//!
//! ```sh
//! cargo run --release --example serve_search
//! ```
//!
//! Run it twice: the daemon persists artifacts under
//! `target/serve-artifacts/`, so the second invocation warm-starts every
//! shard (watch the `warm predictor` markers in the event stream).

use hgnas::core::{SearchConfig, TaskConfig};
use hgnas::device::DeviceKind;
use hgnas::fleet::{ArtifactStore, FleetEvent};
use hgnas::predictor::PredictorConfig;
use hgnas::serve::{SearchClient, ServeConfig, Server};
use std::time::Duration;

const TICK: Duration = Duration::from_secs(10);
const SEARCH: Duration = Duration::from_secs(3600);

fn main() {
    let task = TaskConfig::tiny(42);
    let mut base = SearchConfig::fast(DeviceKind::Rtx3080);
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

    let store = ArtifactStore::open("target/serve-artifacts").expect("artifact store");
    println!("== hgnas-serve daemon over {} ==", store.root().display());
    let server = Server::start(
        store,
        ServeConfig {
            threads: 2,
            preemption_stride: 1,
            slices_per_round: 2,
            ..ServeConfig::default()
        },
    );

    // Two tenants share the daemon: alice (priority 3) shards over two
    // devices, bob (priority 1) over one. With a budget of 2 threads their
    // rounds run side by side, one thread each; the fair-share controller
    // weighs priorities (3:1 in slices) once more requests are runnable
    // than the budget runs at once.
    let mut alice = server.connect();
    alice.hello("alice", 3, TICK).expect("hello");
    let (alice_req, alice_shards) = alice
        .submit(
            &task,
            &base,
            &[DeviceKind::Rtx3080, DeviceKind::JetsonTx2],
            TICK,
        )
        .expect("submit");
    println!("alice: request {alice_req} accepted ({alice_shards} shards, priority 3)");

    let mut bob = server.connect();
    bob.hello("bob", 1, TICK).expect("hello");
    let (bob_req, bob_shards) = bob
        .submit(&task, &base, &[DeviceKind::RaspberryPi3B], TICK)
        .expect("submit");
    println!("bob:   request {bob_req} accepted ({bob_shards} shard, priority 1)\n");

    let narrate = |tenant: &str, _seq: u64, ev: &FleetEvent| match ev {
        FleetEvent::ShardStarted {
            device,
            warm_predictor,
            resumed_from,
            ..
        } => {
            let warm = if *warm_predictor { "warm" } else { "cold" };
            match resumed_from {
                Some(g) => println!(
                    "[{tenant}] {:<14} started ({warm} predictor), resumed at generation {g}",
                    device.name()
                ),
                None => println!(
                    "[{tenant}] {:<14} started ({warm} predictor)",
                    device.name()
                ),
            }
        }
        FleetEvent::ShardPreempted {
            device, generation, ..
        } => println!(
            "[{tenant}] {:<14} parked at generation {generation} (fair-share round over)",
            device.name()
        ),
        FleetEvent::ShardFinished {
            device, latency_ms, ..
        } => println!(
            "[{tenant}] {:<14} finished: {latency_ms:.2} ms model",
            device.name()
        ),
        _ => {}
    };

    let alice_report = alice
        .wait_report(alice_req, SEARCH, |seq, ev| narrate("alice", seq, ev))
        .expect("alice report");
    let bob_report = bob
        .wait_report(bob_req, SEARCH, |seq, ev| narrate("bob", seq, ev))
        .expect("bob report");

    println!("\n== reports ==");
    for (tenant, report) in [("alice", &alice_report), ("bob", &bob_report)] {
        println!(
            "{tenant}: {} rounds, {} slices charged",
            report.rounds, report.slices
        );
        for shard in &report.shards {
            println!(
                "  {:<14} {:>8.2} ms @ score {:.3} ({} slices, Pareto {} candidates)",
                shard.device.name(),
                shard.outcome.best.latency_ms,
                shard.outcome.best.score,
                shard.slices,
                shard.pareto.len()
            );
        }
    }

    // The same daemon serves remote clients over TCP — identical frames,
    // identical results. Carol re-runs bob's configuration and the
    // artifact store answers from checkpoints and caches.
    let addr = server
        .listen("127.0.0.1:0".parse().unwrap())
        .expect("listen");
    println!("\n== TCP client against {addr} ==");
    let mut carol = SearchClient::connect_tcp(addr).expect("connect");
    carol.hello("carol", 1, TICK).expect("hello");
    let (carol_req, _) = carol
        .submit(&task, &base, &[DeviceKind::RaspberryPi3B], TICK)
        .expect("submit");
    let carol_report = carol
        .wait_report(carol_req, SEARCH, |seq, ev| narrate("carol", seq, ev))
        .expect("carol report");
    let (b, c) = (
        &bob_report.shards[0].outcome.best,
        &carol_report.shards[0].outcome.best,
    );
    assert_eq!(b.genome, c.genome, "served results are reproducible");
    println!(
        "carol (TCP) reproduced bob's result: {:.2} ms, score {:.3}",
        c.latency_ms, c.score
    );

    let drain = server.shutdown();
    println!(
        "\ndaemon drained; {} request(s) parked, tenants served: {}",
        drain.parked.len(),
        drain
            .tenants
            .iter()
            .map(|t| format!("{} ({} slices)", t.tenant, t.slices))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("run this example again for the warm start.");
}
