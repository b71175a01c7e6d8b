//! Criterion micro-benches plus a `BENCH_ops.json` record for the ops-level
//! hot path: the elementwise/activation kernels the autograd tape runs per
//! forward/backward, the gather/repeat message kernels, the fused edge
//! aggregation against the unfused chain it replaced, and the per-batch
//! KNN cache (a cold EdgeConv forward pays the O(n²) graph build, a warm
//! one reads it back).
//!
//! Like `benches/kernels.rs`, `HGNAS_BENCH_JSON=only` skips the criterion
//! sweep and emits just the record; `HGNAS_BENCH_OUT` overrides the output
//! path. `bench_diff` compares the record against the committed
//! `BENCH_ops.baseline.json`.

use criterion::{criterion_group, Criterion};
use hgnas_autograd::{EdgeMessage, Reduction, Tape, Var};
use hgnas_bench::record::{emit_bench_json, json_only, time_both};
use hgnas_ops::{DgcnnConfig, EdgeConvModel};
use hgnas_pointcloud::{Batch, DatasetConfig, PointCloud, SynthNet40};
use hgnas_tensor::kernels::{gather_rows, repeat_rows};
use hgnas_tensor::simd;
use hgnas_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;

/// Clouds for the EdgeConv forward records: 8 × 128-point clouds, the
/// `small` dataset geometry the default harnesses train on.
fn clouds() -> Vec<PointCloud> {
    let ds = SynthNet40::generate(&DatasetConfig::small(3));
    ds.train[..8].to_vec()
}

fn stacked(clouds: &[PointCloud]) -> Batch {
    SynthNet40::batches(clouds, clouds.len()).remove(0)
}

fn bench_edgeconv_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("edgeconv_forward");
    let clouds = clouds();
    let mut rng = StdRng::seed_from_u64(4);
    let model = EdgeConvModel::new(&mut rng, DgcnnConfig::small(10));
    group.bench_function("cold/8x128", |bch| {
        bch.iter(|| {
            // A fresh batch per iteration: its neighbor cache is empty, so
            // the forward pays the layer-0 KNN build.
            let batch = stacked(black_box(&clouds));
            let mut tape = Tape::new();
            black_box(model.forward(&mut tape, &batch, &mut rng));
        })
    });
    let warm = stacked(&clouds);
    group.bench_function("warm/8x128", |bch| {
        bch.iter(|| {
            let mut tape = Tape::new();
            black_box(model.forward(&mut tape, black_box(&warm), &mut rng));
        })
    });
    group.finish();
}

/// Neighbour lists over `points` stacked points in clouds of `cloud`
/// points: `k` sources per point from the point's own cloud (a fixed
/// stride pattern, not a KNN).
fn cloud_neighbors(points: usize, cloud: usize, k: usize) -> Vec<usize> {
    (0..points * k)
        .map(|e| {
            let (i, kk) = (e / k, e % k);
            i / cloud * cloud + (i * 31 + kk * 17 + 1) % cloud
        })
        .collect()
}

/// One forward + backward of a `Full`/max aggregation into a scalar loss,
/// fused (`fused`) or through the unfused chain.
fn edge_aggregate_step(x: &Tensor, idx: &Arc<Vec<usize>>, k: usize, fused: bool) {
    let mut tape = Tape::new();
    let v = tape.param(x.clone());
    let agg: Var = if fused {
        tape.edge_aggregate(v, Arc::clone(idx), k, EdgeMessage::Full, Reduction::Max)
    } else {
        let nbr = tape.gather_rows(v, idx);
        let ctr = tape.repeat_rows(v, k);
        let rel = tape.sub(nbr, ctr);
        let msg = tape.concat_cols(&[ctr, nbr, rel]);
        tape.reduce_mid(msg, k, Reduction::Max)
    };
    let loss = tape.sum_all(agg);
    tape.backward(loss);
    black_box(tape.grad(v));
}

// ---------------------------------------------------------------------------
// scalar-vs-lane JSON record
// ---------------------------------------------------------------------------

fn emit_ops_json() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut entries: Vec<String> = Vec::new();

    // Elementwise/activation kernels at a lane-aligned and a ragged shape
    // (remainder schedule). The copy_from_slice reset is part of the timed
    // region on both paths, so ratios stay comparable.
    for &(r, cc) in &[(1024usize, 64usize), (999, 37)] {
        let shape = format!("{r}x{cc}");
        let n = r * cc;
        let x = Tensor::rand_uniform(&mut rng, &[r, cc], -2.0, 2.0);
        let y = Tensor::rand_uniform(&mut rng, &[r, cc], -2.0, 2.0);
        let mut buf = vec![0.0f32; n];
        entries.push(time_both("sub_assign", &shape, 9, || {
            buf.copy_from_slice(x.data());
            simd::sub_assign(black_box(&mut buf), black_box(y.data()));
        }));
        entries.push(time_both("mul_assign", &shape, 9, || {
            buf.copy_from_slice(x.data());
            simd::mul_assign(black_box(&mut buf), black_box(y.data()));
        }));
        entries.push(time_both("relu", &shape, 9, || {
            buf.copy_from_slice(x.data());
            simd::relu(black_box(&mut buf));
        }));
        entries.push(time_both("leaky_relu", &shape, 9, || {
            buf.copy_from_slice(x.data());
            simd::leaky_relu(black_box(&mut buf), 0.2);
        }));
        entries.push(time_both("relu_grad", &shape, 9, || {
            buf.copy_from_slice(y.data());
            simd::relu_grad(black_box(&mut buf), black_box(x.data()));
        }));
        entries.push(time_both("leaky_relu_grad", &shape, 9, || {
            buf.copy_from_slice(y.data());
            simd::leaky_relu_grad(black_box(&mut buf), black_box(x.data()), 0.2);
        }));
    }

    // Message-passing copy kernels (EdgeConv-style fanout: 1024 points,
    // k=20 neighbours, 64 channels). Pure copies — no lane leg, recorded
    // for the wall-clock trajectory.
    let t = Tensor::rand_uniform(&mut rng, &[1024, 64], -1.0, 1.0);
    let idx: Vec<usize> = (0..1024 * 20).map(|i| (i * 7) % 1024).collect();
    entries.push(time_both("gather_rows", "1024x64 k=20", 9, || {
        black_box(gather_rows(black_box(&t), black_box(&idx)));
    }));
    entries.push(time_both("repeat_rows", "1024x64 k=20", 9, || {
        black_box(repeat_rows(black_box(&t), 20));
    }));

    // Neighbour aggregation, forward + backward: the fused op against the
    // unfused chain it replaced, at the `solo-small` training shape (8
    // clouds × 128 points, k=10, hidden 24) and the `tenants` one (8 clouds
    // × 48 points, k=8, hidden 16), both with the `Full` message and max.
    for &(points, cloud, k, c) in &[(1024usize, 128usize, 10usize, 24usize), (384, 48, 8, 16)] {
        let shape = format!("{points}x{c} k={k} full/max");
        let x = Tensor::rand_uniform(&mut rng, &[points, c], -1.0, 1.0);
        let idx = Arc::new(cloud_neighbors(points, cloud, k));
        entries.push(time_both("edge_aggregate_fused", &shape, 9, || {
            edge_aggregate_step(black_box(&x), &idx, k, true);
        }));
        entries.push(time_both("edge_aggregate_chain", &shape, 9, || {
            edge_aggregate_step(black_box(&x), &idx, k, false);
        }));
    }

    // The per-batch KNN cache: a cold forward builds the layer-0 graph, a
    // warm forward reads it back from the batch. The cold/warm lane-path
    // gap is the once-per-batch O(n²) KNN cost the cache amortises.
    let clouds = clouds();
    let mut rng = StdRng::seed_from_u64(4);
    let model = EdgeConvModel::new(&mut rng, DgcnnConfig::small(10));
    entries.push(time_both("edgeconv_forward_cold", "8x128", 5, || {
        let batch = stacked(black_box(&clouds));
        let mut tape = Tape::new();
        black_box(model.forward(&mut tape, &batch, &mut rng));
    }));
    let warm = stacked(&clouds);
    entries.push(time_both("edgeconv_forward_warm", "8x128", 5, || {
        let mut tape = Tape::new();
        black_box(model.forward(&mut tape, black_box(&warm), &mut rng));
    }));

    emit_bench_json("ops/scalar-vs-lane", "BENCH_ops.json", &entries);
}

criterion_group!(benches, bench_edgeconv_forward);

fn main() {
    // HGNAS_BENCH_JSON=only skips the criterion sweep (CI's quick path);
    // the JSON record is emitted either way.
    if !json_only() {
        benches();
    }
    emit_ops_json();
}
