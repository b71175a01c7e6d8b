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
use hgnas_core::{Supernet, TaskConfig};
use hgnas_nn::Module;
use hgnas_ops::{DgcnnConfig, EdgeConvModel, FunctionSet};
use hgnas_pointcloud::{Batch, DatasetConfig, PointCloud, SynthNet40};
use hgnas_predictor::PredictorModel;
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

/// Runs `kernel(row, other)` once per `w`-float row: each row of `x` is
/// copied into `buf` first, and `other` is the matching row of `y`.
fn per_row(buf: &mut [f32], x: &Tensor, y: &Tensor, w: usize, kernel: impl Fn(&mut [f32], &[f32])) {
    for ((b, xr), yr) in buf
        .chunks_exact_mut(w)
        .zip(x.data().chunks_exact(w))
        .zip(y.data().chunks_exact(w))
    {
        b.copy_from_slice(xr);
        kernel(black_box(b), black_box(yr));
    }
}

// ---------------------------------------------------------------------------
// scalar-vs-lane JSON record
// ---------------------------------------------------------------------------

fn emit_ops_json() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut entries: Vec<String> = Vec::new();

    // Elementwise/activation kernels over a whole tensor: a lane-aligned
    // and a ragged shape (remainder schedule), then the activation shapes
    // of a `solo-small` (8 clouds × 128 points, hidden 24) and a `tenants`
    // (8 × 48, hidden 16) training batch. The copy_from_slice reset is part
    // of the timed region on both paths, as the tensor ops copy their input
    // before running the kernel in place. The workload shapes draw from
    // their own generator, so the rows that came before them keep their
    // inputs.
    let mut wrng = StdRng::seed_from_u64(11);
    for &(r, cc) in &[(1024usize, 64usize), (999, 37), (1024, 24), (384, 16)] {
        let shape = format!("{r}x{cc}");
        let n = r * cc;
        let g = if cc >= 37 { &mut rng } else { &mut wrng };
        let x = Tensor::rand_uniform(g, &[r, cc], -2.0, 2.0);
        let y = Tensor::rand_uniform(g, &[r, cc], -2.0, 2.0);
        let mut buf = vec![0.0f32; n];
        entries.push(time_both("add_assign", &shape, 9, || {
            buf.copy_from_slice(x.data());
            simd::add_assign(black_box(&mut buf), black_box(y.data()));
        }));
        entries.push(time_both("scale", &shape, 9, || {
            buf.copy_from_slice(x.data());
            simd::scale(black_box(&mut buf), 0.1);
        }));
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

    // The per-row calls of `Tape::edge_aggregate`: one call per `c`-float
    // row (copy the row, then run the kernel on it, as a message's `rel`
    // part and its backward's `−rel` and summed parts are built) over the
    // rows of a `solo-small` (1024 × 24) and a `tenants` (384 × 16) batch.
    for &(r, cc) in &[(1024usize, 24usize), (384, 16)] {
        let shape = format!("{r}x{cc} per row");
        let x = Tensor::rand_uniform(&mut wrng, &[r, cc], -2.0, 2.0);
        let y = Tensor::rand_uniform(&mut wrng, &[r, cc], -2.0, 2.0);
        let mut buf = vec![0.0f32; r * cc];
        entries.push(time_both("add_assign", &shape, 25, || {
            per_row(&mut buf, &x, &y, cc, simd::add_assign);
        }));
        entries.push(time_both("sub_assign", &shape, 25, || {
            per_row(&mut buf, &x, &y, cc, simd::sub_assign);
        }));
        entries.push(time_both("scale", &shape, 25, || {
            per_row(&mut buf, &x, &y, cc, |b, _| simd::scale(b, -1.0));
        }));
    }

    // The latency predictor's shapes (GCN widths 16, 16 and MLP hidden 12
    // in the workloads), one call per architecture graph: ReLU and its
    // gradient on a GCN layer's node features, `[11, 16]` for a `small`
    // genome (8 ops plus input, output and global nodes) and `[9, 16]` for
    // a `tiny` one, and LeakyReLU with its gradient on the MLP's hidden row.
    for &w in &[176usize, 144, 12] {
        let shape = format!("1024x{w} per row");
        let x = Tensor::rand_uniform(&mut wrng, &[1024, w], -2.0, 2.0);
        let y = Tensor::rand_uniform(&mut wrng, &[1024, w], -2.0, 2.0);
        let mut buf = vec![0.0f32; 1024 * w];
        if w == 12 {
            entries.push(time_both("leaky_relu", &shape, 25, || {
                per_row(&mut buf, &x, &y, w, |b, _| simd::leaky_relu(b, 0.01));
            }));
            entries.push(time_both("leaky_relu_grad", &shape, 25, || {
                per_row(&mut buf, &y, &x, w, |b, xr| {
                    simd::leaky_relu_grad(b, xr, 0.01)
                });
            }));
        } else {
            entries.push(time_both("relu", &shape, 25, || {
                per_row(&mut buf, &x, &y, w, |b, _| simd::relu(b));
            }));
            entries.push(time_both("relu_grad", &shape, 25, || {
                per_row(&mut buf, &y, &x, w, simd::relu_grad);
            }));
        }
    }

    // One Adam step over every parameter of a `small` and a `tiny`
    // supernet and of the workloads' latency predictor (one kernel call
    // per parameter tensor, as `Optimizer::step` makes them).
    let mut prng = StdRng::seed_from_u64(5);
    let supernet_sizes = |prng: &mut StdRng, task: TaskConfig| -> Vec<usize> {
        let fs = FunctionSet::dgcnn_like(task.supernet_hidden);
        let net = Supernet::new(
            prng,
            task.positions,
            task.supernet_hidden,
            task.k,
            task.dataset.classes,
            fs,
            fs,
            &task.head_hidden,
        );
        net.params().iter().map(|p| p.numel()).collect()
    };
    let models = [
        (
            "small supernet",
            supernet_sizes(&mut prng, TaskConfig::small(0)),
        ),
        (
            "tiny supernet",
            supernet_sizes(&mut prng, TaskConfig::tiny(0)),
        ),
        (
            "predictor",
            PredictorModel::new(&mut prng, &[16, 16], &[12])
                .params()
                .iter()
                .map(|p| p.numel())
                .collect(),
        ),
    ];
    for (name, sizes) in models {
        let total: usize = sizes.iter().sum();
        let mut state: Vec<[Vec<f32>; 4]> = sizes
            .iter()
            .map(|&n| {
                let t = Tensor::rand_uniform(&mut prng, &[n], -1.0, 1.0);
                let v = t.data().iter().map(|g| g * g).collect();
                [t.data().to_vec(), t.data().to_vec(), v, t.data().to_vec()]
            })
            .collect();
        let p = simd::AdamParams {
            lr: 3e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            inv_bc1: 1.0 / (1.0 - 0.9f32.powi(3)),
            inv_bc2: 1.0 / (1.0 - 0.999f32.powi(3)),
        };
        let shape = format!("{name}, {} params, {total} floats", sizes.len());
        entries.push(time_both("adam_step", &shape, 25, || {
            for [w, m, v, g] in state.iter_mut() {
                simd::adam_step(black_box(w), m, v, black_box(g), p);
            }
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
