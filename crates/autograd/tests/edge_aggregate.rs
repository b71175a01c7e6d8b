//! Bit-identity of the fused edge aggregation against the unfused chain it
//! replaced: `gather_rows` + `repeat_rows` + `sub` + (`row_norms` |
//! `concat_cols`) + `reduce_mid`, kept here as the oracle.
//!
//! Every message × reduction runs on the scalar and the AVX2 lane path
//! over widths {1, 3, 8, 13, 24} (below, at and across the 8-lane width)
//! and fanouts {1, 2, 10}, with duplicate neighbours, self-loops and
//! features mixing NaN, ±0.0, ±∞ and exact ties. The output bits and the
//! bits of `x`'s gradient after a backward through a downstream
//! `segment_pool` and loss must match the chain's. Each case also runs
//! with a second, later consumer of `x`, so `x` already holds a gradient
//! when the aggregation's backward runs; that pins the order in which the
//! target-side and source-side terms are added to it.
//!
//! `with_path` flips a process-global override, so this file holds exactly
//! one test in its own integration-test binary.

use hgnas_autograd::{EdgeMessage, Reduction, Tape, Var};
use hgnas_tensor::simd::{with_path, LanePath};
use hgnas_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Rows of `x` (targets and sources).
const N: usize = 6;

/// The unfused chain the supernet and `GnnModel` ran before the fused op.
fn chain(tape: &mut Tape, x: Var, idx: &[usize], k: usize, m: EdgeMessage, how: Reduction) -> Var {
    let nbr = tape.gather_rows(x, idx);
    let ctr = tape.repeat_rows(x, k);
    let message = match m {
        EdgeMessage::Source => nbr,
        EdgeMessage::Target => ctr,
        EdgeMessage::Rel => tape.sub(nbr, ctr),
        EdgeMessage::Distance => {
            let rel = tape.sub(nbr, ctr);
            tape.row_norms(rel)
        }
        EdgeMessage::SourceRel => {
            let rel = tape.sub(nbr, ctr);
            tape.concat_cols(&[nbr, rel])
        }
        EdgeMessage::TargetRel => {
            let rel = tape.sub(nbr, ctr);
            tape.concat_cols(&[ctr, rel])
        }
        EdgeMessage::Full => {
            let rel = tape.sub(nbr, ctr);
            tape.concat_cols(&[ctr, nbr, rel])
        }
    };
    tape.reduce_mid(message, k, how)
}

/// One feature value: mostly finite (uniform, or from a small dyadic set so
/// max/min see exact ties), sometimes NaN, ±0.0 or ±∞.
fn feature(rng: &mut StdRng) -> f32 {
    const SPECIALS: [f32; 5] = [f32::NAN, 0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY];
    const TIES: [f32; 5] = [-1.0, -0.5, 0.5, 1.0, 2.0];
    match rng.gen_range(0..20) {
        0 => SPECIALS[rng.gen_range(0..SPECIALS.len())],
        1..=7 => TIES[rng.gen_range(0..TIES.len())],
        _ => rng.gen_range(-3.0f32..3.0),
    }
}

/// A downstream weight: uniform, with some ±0.0 so zero gradients of both
/// signs reach the aggregation.
fn weight(rng: &mut StdRng) -> f32 {
    match rng.gen_range(0..8) {
        0 => 0.0,
        1 => -0.0,
        _ => rng.gen_range(-2.0f32..2.0),
    }
}

/// `k` sources per target: the first is a self-loop on even targets, the
/// rest come from a small range, so neighbours repeat.
fn neighbors(rng: &mut StdRng, k: usize) -> Vec<usize> {
    (0..N * k)
        .map(|e| {
            let (i, kk) = (e / k, e % k);
            if kk == 0 && i % 2 == 0 {
                i
            } else {
                rng.gen_range(0..N)
            }
        })
        .collect()
}

struct Case {
    x: Tensor,
    idx: Arc<Vec<usize>>,
    k: usize,
    /// Multiplies the aggregated output before pooling.
    w_out: Tensor,
    /// `Some` gives `x` a later consumer: `mul(x, w)` into its own loss term.
    w_skip: Option<Tensor>,
}

/// Runs the case through the fused op (`fused`) or the chain and returns
/// the output bits and `x`'s gradient bits.
fn run(case: &Case, m: EdgeMessage, how: Reduction, fused: bool) -> (Vec<u32>, Vec<u32>) {
    let mut tape = Tape::new();
    let x = tape.param(case.x.clone());
    let agg = if fused {
        tape.edge_aggregate(x, Arc::clone(&case.idx), case.k, m, how)
    } else {
        chain(&mut tape, x, &case.idx, case.k, m, how)
    };
    let out_bits = tape.value(agg).data().iter().map(|v| v.to_bits()).collect();
    let w_out = tape.input(case.w_out.clone());
    let y = tape.mul(agg, w_out);
    let pooled = tape.segment_pool(y, &[N / 2, N - N / 2], Reduction::Mean);
    let mut loss = tape.sum_all(pooled);
    if let Some(w_skip) = &case.w_skip {
        let w_skip = tape.input(w_skip.clone());
        let skip = tape.mul(x, w_skip);
        let pooled = tape.segment_pool(skip, &[N], Reduction::Max);
        let skip_loss = tape.sum_all(pooled);
        loss = tape.add(loss, skip_loss);
    }
    tape.backward(loss);
    let grad_bits = tape
        .grad(x)
        .unwrap()
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    (out_bits, grad_bits)
}

#[test]
fn fused_edge_aggregate_matches_the_chain_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(17);
    let mut cases = Vec::new();
    for c in [1usize, 3, 8, 13, 24] {
        for k in [1usize, 2, 10] {
            for later_consumer in [false, true] {
                let x = Tensor::from_vec((0..N * c).map(|_| feature(&mut rng)).collect(), &[N, c]);
                let idx = Arc::new(neighbors(&mut rng, k));
                let w_out = EdgeMessage::ALL.map(|m| {
                    let w = m.width(c);
                    Tensor::from_vec((0..N * w).map(|_| weight(&mut rng)).collect(), &[N, w])
                });
                let w_skip = later_consumer.then(|| {
                    Tensor::from_vec((0..N * c).map(|_| weight(&mut rng)).collect(), &[N, c])
                });
                cases.push((x, idx, k, w_out, w_skip));
            }
        }
    }

    let mut checked = 0usize;
    for path in [LanePath::Scalar, LanePath::Avx2] {
        with_path(path, || {
            for (x, idx, k, w_out, w_skip) in &cases {
                for (mi, m) in EdgeMessage::ALL.into_iter().enumerate() {
                    let case = Case {
                        x: x.clone(),
                        idx: Arc::clone(idx),
                        k: *k,
                        w_out: w_out[mi].clone(),
                        w_skip: w_skip.clone(),
                    };
                    for how in Reduction::ALL {
                        let (c, k) = (x.dims()[1], *k);
                        let ctx = format!(
                            "{path} {m:?} {how} c={c} k={k} later_consumer={}",
                            w_skip.is_some()
                        );
                        let (want_out, want_grad) = run(&case, m, how, false);
                        let (got_out, got_grad) = run(&case, m, how, true);
                        assert_eq!(got_out, want_out, "output bits differ: {ctx}");
                        assert_eq!(got_grad, want_grad, "x gradient bits differ: {ctx}");
                        checked += 1;
                    }
                }
            }
        });
    }
    assert_eq!(checked, 2 * 5 * 3 * 2 * 7 * 4);
}
