//! Pins graph reuse in the supernet forward: a `Sample(Knn)` over the
//! same hidden features as the graph already in hand keeps that graph, in
//! frozen forwards and in training steps alike, while every
//! `Sample(Random)` still draws.
//!
//! The assertions sample the process-global `knn_brute_calls` counter, so
//! the whole file is one test in its own integration-test binary (its own
//! process): tests in one binary run in parallel and would pollute the
//! count.

use hgnas_autograd::Tape;
use hgnas_core::Supernet;
use hgnas_graph::{knn_brute_calls, random_neighbors_segments};
use hgnas_nn::{Module, Optimizer};
use hgnas_ops::{ConnectFn, FunctionSet, OpType, SampleFn};
use hgnas_pointcloud::{Batch, DatasetConfig, SynthNet40};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn supernet(sample: SampleFn) -> Supernet {
    let fs = FunctionSet {
        sample,
        connect: ConnectFn::Identity,
        ..FunctionSet::dgcnn_like(16)
    };
    let mut rng = StdRng::seed_from_u64(3);
    Supernet::new(&mut rng, 8, 16, 8, 4, fs, fs, &[16])
}

fn batch() -> Batch {
    let ds = SynthNet40::generate(&DatasetConfig::tiny(11));
    SynthNet40::batches(&ds.train[..3], 3).remove(0)
}

#[test]
fn back_to_back_samples_build_each_graph_once() {
    use OpType::*;
    // Two graphs: one on the stem features, sampled twice in a row, and
    // one after a combine, sampled on either side of an identity connect.
    let genome = [
        Sample, Sample, Aggregate, Combine, Sample, Connect, Sample, Aggregate,
    ];
    let sn = supernet(SampleFn::Knn);
    let clouds = batch().segments.len();
    let mut rng = StdRng::seed_from_u64(4);

    let before = knn_brute_calls();
    let mut tape = Tape::new();
    sn.forward_frozen(&mut tape, &batch(), &genome, &mut rng);
    assert_eq!(
        knn_brute_calls() - before,
        2 * clouds,
        "a frozen forward rebuilt a graph on unchanged features"
    );

    let mut sn = sn;
    let b = batch();
    let before = knn_brute_calls();
    let mut tape = Tape::new();
    let logits = sn.forward(&mut tape, &b, &genome, &mut rng);
    let loss = tape.softmax_cross_entropy(logits, &b.labels);
    tape.backward(loss);
    sn.apply_updates(&tape, &mut Optimizer::adam(1e-3));
    assert_eq!(
        knn_brute_calls() - before,
        2 * clouds,
        "a training step rebuilt a graph on unchanged features"
    );

    // Random samples are never kept: both draw, exactly as two direct
    // draws from the same stream would.
    let sn = supernet(SampleFn::Random);
    let b = batch();
    let mut rng = StdRng::seed_from_u64(5);
    let mut expected = StdRng::seed_from_u64(5);
    let before = knn_brute_calls();
    let mut tape = Tape::new();
    sn.forward_frozen(&mut tape, &b, &genome, &mut rng);
    assert_eq!(
        knn_brute_calls(),
        before,
        "random samples built a KNN graph"
    );
    for _ in 0..genome.iter().filter(|&&op| op == Sample).count() {
        random_neighbors_segments(&mut expected, &b.segments, 8);
    }
    assert_eq!(rng.gen::<u64>(), expected.gen::<u64>());
}
