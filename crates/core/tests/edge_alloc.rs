//! Allocation guard for the supernet's aggregate: at the `solo-small`
//! geometry (8 × 128-point training batches, 16-cloud eval batches, `k = 10`,
//! hidden width 24), no single allocation of a training step or of a
//! one-shot evaluation may be as large as one `[n·k, hidden]` f32 edge
//! tensor. The fused edge aggregation builds each node's `k` messages in
//! scratch, so what remains largest is an `[n, c]`-sized buffer such as the
//! max winner indices; the unfused chain allocated several edge tensors per
//! layer (the `Full` concat alone is three).
//!
//! The counting allocator is process-global, so this file holds exactly one
//! test in its own integration-test binary.

use hgnas_core::Supernet;
use hgnas_nn::Optimizer;
use hgnas_ops::{FunctionSet, MessageType, OpType};
use hgnas_pointcloud::{DatasetConfig, SynthNet40, TaskKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards to the system allocator and records the largest block asked for.
struct LargestBlock;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for LargestBlock {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LargestBlock = LargestBlock;

/// The largest single allocation made while running `f`.
fn largest_block(f: impl FnOnce()) -> usize {
    LARGEST.store(0, Ordering::Relaxed);
    f();
    LARGEST.load(Ordering::Relaxed)
}

const POINTS: usize = 128;
const K: usize = 10;
const HIDDEN: usize = 24;
const TRAIN_CLOUDS: usize = 8;
const EVAL_CLOUDS: usize = 16;

/// Bytes of one `[n·k, hidden]` f32 edge tensor over `clouds` clouds.
fn edge_tensor_bytes(clouds: usize) -> usize {
    clouds * POINTS * K * HIDDEN * std::mem::size_of::<f32>()
}

#[test]
fn aggregate_allocates_no_edge_tensor() {
    let mut config = DatasetConfig::small(1);
    config.train_per_class = 3;
    config.test_per_class = 2;
    let ds = SynthNet40::generate(&config);
    let train = SynthNet40::batches(&ds.train[..TRAIN_CLOUDS], TRAIN_CLOUDS);
    let eval = SynthNet40::batches(&ds.test[..EVAL_CLOUDS], EVAL_CLOUDS);
    let genome = [
        OpType::Sample,
        OpType::Aggregate,
        OpType::Combine,
        OpType::Connect,
        OpType::Aggregate,
        OpType::Combine,
        OpType::Connect,
        OpType::Combine,
    ];
    let (train_limit, eval_limit) = (
        edge_tensor_bytes(TRAIN_CLOUDS),
        edge_tensor_bytes(EVAL_CLOUDS),
    );
    assert_eq!((train_limit, eval_limit), (983_040, 1_966_080));

    let mut report = Vec::new();
    for message in [
        MessageType::Full,
        MessageType::SourceRel,
        MessageType::Distance,
        MessageType::SourcePos,
    ] {
        let fs = FunctionSet {
            message,
            ..FunctionSet::dgcnn_like(HIDDEN)
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mut sn = Supernet::for_task(
            &mut rng,
            TaskKind::Classification,
            genome.len(),
            HIDDEN,
            K,
            ds.classes,
            fs,
            fs,
            &[48],
        );
        let mut opt = Optimizer::adam(3e-3);
        let train_bytes = largest_block(|| {
            for _ in 0..3 {
                // `train_epoch` draws each batch's path first: skip ahead
                // to a path that contains an Aggregate.
                while !sn
                    .random_genome(&mut rng.clone())
                    .contains(&OpType::Aggregate)
                {
                    sn.random_genome(&mut rng);
                }
                sn.train_epoch(&train, &mut opt, &mut rng);
            }
        });
        let eval_bytes = largest_block(|| {
            sn.eval_genome_batched(&genome, &eval, 0);
        });
        report.push((message, train_bytes, eval_bytes));
    }
    for &(message, train_bytes, eval_bytes) in &report {
        assert!(
            train_bytes < train_limit && eval_bytes < eval_limit,
            "{message}: largest block {train_bytes} B in training (limit {train_limit} B), \
             {eval_bytes} B in evaluation (limit {eval_limit} B); all: {report:?}"
        );
    }
}
