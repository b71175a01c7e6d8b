//! Property-based gradient checks: every differentiable op agrees with its
//! finite-difference estimate on random inputs.

use hgnas_autograd::{EdgeMessage, Reduction, Tape};
use hgnas_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn check(input: &Tensor, tol: f32, build: impl Fn(&mut Tape, &Tensor) -> hgnas_autograd::Var) {
    hgnas_autograd::assert_grad_close(input, 1e-2, tol, build);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matmul_tanh_mean_grad(seed in 0u64..500, m in 2usize..5, k in 2usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::randn(&mut rng, &[m, k], 1.0);
        let w = Tensor::randn(&mut rng, &[k, 3], 0.5);
        check(&x, 3e-2, move |tape, t| {
            let v = tape.param(t.clone());
            let wv = tape.input(w.clone());
            let y = tape.matmul(v, wv);
            let a = tape.tanh(y);
            tape.mean_all(a)
        });
    }

    #[test]
    fn leaky_relu_scale_grad(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Keep inputs away from the kink at 0 where central differences
        // straddle the nondifferentiable point.
        let x = Tensor::randn(&mut rng, &[3, 4], 1.0)
            .map(|v| if v.abs() < 0.05 { v + 0.1 } else { v });
        check(&x, 2e-2, |tape, t| {
            let v = tape.param(t.clone());
            let y = tape.leaky_relu(v, 0.1);
            let s = tape.scale(y, 1.7);
            tape.sum_all(s)
        });
    }

    #[test]
    fn message_passing_grad(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::randn(&mut rng, &[5, 3], 1.0);
        let idx: Vec<usize> = (0..10).map(|i| (i * 3 + seed as usize) % 5).collect();
        check(&x, 4e-2, move |tape, t| {
            let v = tape.param(t.clone());
            let nbr = tape.gather_rows(v, &idx);
            let ctr = tape.repeat_rows(v, 2);
            let rel = tape.sub(nbr, ctr);
            let msg = tape.concat_cols(&[ctr, rel]);
            let agg = tape.reduce_mid(msg, 2, Reduction::Mean);
            let pooled = tape.segment_pool(agg, &[5], Reduction::Sum);
            tape.mean_all(pooled)
        });

        // The fused op, for every message × {sum, mean, max}. Row `r` sits
        // near `0.7·r²` (±0.1 per feature), so a node's distinct neighbours
        // differ by more than the step in every message column (no max
        // kink between them), and no edge is a self-loop, so every distance
        // edge keeps its norm away from zero.
        let x = Tensor::rand_uniform(&mut rng, &[5, 3], -0.1, 0.1);
        let x = Tensor::from_vec(
            x.data().iter().enumerate().map(|(e, v)| v + 0.7 * (e / 3).pow(2) as f32).collect(),
            &[5, 3],
        );
        let idx: Arc<Vec<usize>> = Arc::new(
            (0..10)
                .map(|e| {
                    let j = (e * 3 + seed as usize) % 5;
                    if j == e / 2 { (j + 1) % 5 } else { j }
                })
                .collect(),
        );
        for m in EdgeMessage::ALL {
            for how in [Reduction::Sum, Reduction::Mean, Reduction::Max] {
                let idx = Arc::clone(&idx);
                check(&x, 4e-2, move |tape, t| {
                    let v = tape.param(t.clone());
                    let agg = tape.edge_aggregate(v, Arc::clone(&idx), 2, m, how);
                    let pooled = tape.segment_pool(agg, &[5], Reduction::Sum);
                    tape.mean_all(pooled)
                });
            }
        }
    }

    #[test]
    fn losses_grad(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Keep predictions away from targets so MAPE's |.| kink (where the
        // subgradient is ambiguous) is not sampled.
        let x = Tensor::rand_uniform(&mut rng, &[4, 1], 2.0, 5.0);
        check(&x, 2e-2, |tape, t| {
            let v = tape.param(t.clone());
            tape.mape_loss(v, &[1.0, 1.0, 1.0, 1.0])
        });
        let y = Tensor::rand_uniform(&mut rng, &[4, 1], -3.0, 3.0);
        check(&y, 2e-2, |tape, t| {
            let v = tape.param(t.clone());
            tape.mse_loss(v, &[0.5, -0.5, 0.0, 1.0])
        });
    }

    #[test]
    fn softmax_ce_grad(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::randn(&mut rng, &[3, 4], 1.0);
        let labels: Vec<usize> = (0..3).map(|i| (i + seed as usize) % 4).collect();
        check(&x, 2e-2, move |tape, t| {
            let v = tape.param(t.clone());
            tape.softmax_cross_entropy(v, &labels)
        });
    }

    #[test]
    fn segment_pool_max_grad(seed in 0u64..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::randn(&mut rng, &[6, 2], 1.0);
        check(&x, 3e-2, |tape, t| {
            let v = tape.param(t.clone());
            let p = tape.segment_pool(v, &[4, 2], Reduction::Max);
            tape.sum_all(p)
        });
    }
}
