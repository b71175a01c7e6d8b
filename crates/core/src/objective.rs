//! The multi-objective function, paper Eq. (1)–(3), generalised to a
//! composable multi-metric form.

/// Everything known about a candidate when it is scored. Latency and
/// accuracy are always available; the remaining axes are `Option`s because
/// not every scoring site computes them — an absent metric passes its gate
/// and contributes nothing, so objectives that never reference an axis are
/// bit-identical to the original scalar α·acc − β·lat form.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CandidateMetrics {
    /// One-shot validation accuracy, fraction.
    pub accuracy: f64,
    /// Latency on the target device, ms (predicted or measured).
    pub latency_ms: f64,
    /// Model size, MB.
    pub size_mb: Option<f64>,
    /// Inference energy on the target device, mJ (analytical:
    /// `board power × latency` from the roofline model).
    pub energy_mj: Option<f64>,
    /// Peak resident memory on the target device, MB.
    pub peak_mem_mb: Option<f64>,
}

/// Scores a candidate from its metrics:
///
/// ```text
/// F(C) = 0                                  if any hard gate fails
///      = α·acc − β·(lat / lat_ref)
///            − γ·(energy / energy_ref)      (γ ≠ 0 only)
///            − δ·(peak_mem / mem_ref)       (δ ≠ 0 only)
/// ```
///
/// Hard gates: `lat < constraint_ms`, `size < max_size_mb`,
/// `energy < max_energy_mj`, `peak_mem < max_peak_mem_mb` — each applied
/// only when the bound is set *and* the metric was supplied
/// ([`Objective::evaluate`] is the single scoring path).
///
/// Every soft term is normalised by a same-device reference (DGCNN latency
/// / energy / memory), so the α:β:γ:δ weights stay device-independent —
/// the Fig. 7 sweep property, extended to the new axes. The γ/δ terms are
/// arithmetically skipped when their weight is exactly 0, which keeps
/// latency-accuracy-only objectives bit-identical to the pre-multi-metric
/// implementation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objective {
    /// Accuracy weight (paper's α).
    pub alpha: f64,
    /// Latency weight (paper's β).
    pub beta: f64,
    /// Hard latency constraint `C` in ms; candidates at or above score 0.
    pub constraint_ms: f64,
    /// Latency normaliser in ms (DGCNN on the target device).
    pub reference_ms: f64,
    /// Optional hard model-size constraint in MB (the paper's "hardware
    /// constraints (i.e. inference latency, model size, etc.)").
    pub max_size_mb: Option<f64>,
    /// Energy weight γ; 0 disables the term entirely.
    pub gamma: f64,
    /// Energy normaliser in mJ (DGCNN inference energy on the target
    /// device). Only read when `gamma != 0`.
    pub reference_mj: f64,
    /// Optional hard energy constraint in mJ, gated like the size bound.
    pub max_energy_mj: Option<f64>,
    /// Peak-memory weight δ; 0 disables the term entirely.
    pub delta: f64,
    /// Peak-memory normaliser in MB (DGCNN peak memory on the target
    /// device). Only read when `delta != 0`.
    pub reference_mem_mb: f64,
    /// Optional hard peak-memory constraint in MB.
    pub max_peak_mem_mb: Option<f64>,
}

impl Objective {
    /// Creates a latency/accuracy objective (γ = δ = 0, no optional gates).
    ///
    /// # Panics
    ///
    /// Panics if `reference_ms` or `constraint_ms` is not positive.
    pub fn new(alpha: f64, beta: f64, constraint_ms: f64, reference_ms: f64) -> Self {
        assert!(
            constraint_ms > 0.0 && reference_ms > 0.0,
            "bad objective bounds"
        );
        Objective {
            alpha,
            beta,
            constraint_ms,
            reference_ms,
            max_size_mb: None,
            gamma: 0.0,
            reference_mj: 1.0,
            max_energy_mj: None,
            delta: 0.0,
            reference_mem_mb: 1.0,
            max_peak_mem_mb: None,
        }
    }

    /// Returns a copy with a hard model-size constraint.
    pub fn with_max_size_mb(mut self, mb: f64) -> Self {
        assert!(mb > 0.0, "size constraint must be positive");
        self.max_size_mb = Some(mb);
        self
    }

    /// Returns a copy carrying an energy term: weight `gamma`, normalised
    /// by `reference_mj`.
    ///
    /// # Panics
    ///
    /// Panics if `reference_mj` is not positive.
    pub fn with_energy(mut self, gamma: f64, reference_mj: f64) -> Self {
        assert!(reference_mj > 0.0, "energy reference must be positive");
        self.gamma = gamma;
        self.reference_mj = reference_mj;
        self
    }

    /// Returns a copy with a hard inference-energy constraint.
    pub fn with_max_energy_mj(mut self, mj: f64) -> Self {
        assert!(mj > 0.0, "energy constraint must be positive");
        self.max_energy_mj = Some(mj);
        self
    }

    /// Returns a copy carrying a peak-memory term: weight `delta`,
    /// normalised by `reference_mem_mb`.
    ///
    /// # Panics
    ///
    /// Panics if `reference_mem_mb` is not positive.
    pub fn with_peak_mem(mut self, delta: f64, reference_mem_mb: f64) -> Self {
        assert!(reference_mem_mb > 0.0, "memory reference must be positive");
        self.delta = delta;
        self.reference_mem_mb = reference_mem_mb;
        self
    }

    /// Returns a copy with a hard peak-memory constraint.
    pub fn with_max_peak_mem_mb(mut self, mb: f64) -> Self {
        assert!(mb > 0.0, "memory constraint must be positive");
        self.max_peak_mem_mb = Some(mb);
        self
    }

    /// Whether scoring needs the device-execution axes (energy or peak
    /// memory) at all — what tells a scorer it must run the candidate
    /// through `DeviceProfile::execute` before calling
    /// [`Objective::evaluate`]. False for every latency/accuracy(/size)
    /// objective, which is what keeps those paths' work (and bits)
    /// unchanged.
    pub fn needs_execution_metrics(&self) -> bool {
        self.gamma != 0.0
            || self.delta != 0.0
            || self.max_energy_mj.is_some()
            || self.max_peak_mem_mb.is_some()
    }

    /// The hard gates alone: whether the candidate is admissible. Scorers
    /// call this *before* paying for accuracy validation — every gate reads
    /// only cheap device-side metrics. A bound whose metric was not
    /// supplied passes (the caller opted out of that axis).
    pub fn admits(&self, m: &CandidateMetrics) -> bool {
        let within = |bound: Option<f64>, metric: Option<f64>| match (bound, metric) {
            (Some(b), Some(v)) => v < b,
            _ => true,
        };
        m.latency_ms < self.constraint_ms
            && within(self.max_size_mb, m.size_mb)
            && within(self.max_energy_mj, m.energy_mj)
            && within(self.max_peak_mem_mb, m.peak_mem_mb)
    }

    /// The single scoring path: Eq. (3) extended with the energy and
    /// peak-memory terms, gated to a hard 0 by [`Objective::admits`].
    pub fn evaluate(&self, m: &CandidateMetrics) -> f64 {
        if !self.admits(m) {
            return 0.0;
        }
        let mut s = self.alpha * m.accuracy - self.beta * (m.latency_ms / self.reference_ms);
        if self.gamma != 0.0 {
            s -= self.gamma * (m.energy_mj.unwrap_or(0.0) / self.reference_mj);
        }
        if self.delta != 0.0 {
            s -= self.delta * (m.peak_mem_mb.unwrap_or(0.0) / self.reference_mem_mb);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A candidate with only the always-present axes.
    fn plain(accuracy: f64, latency_ms: f64) -> CandidateMetrics {
        CandidateMetrics {
            accuracy,
            latency_ms,
            ..CandidateMetrics::default()
        }
    }

    /// A candidate with the size axis supplied as well.
    fn sized(accuracy: f64, latency_ms: f64, size_mb: f64) -> CandidateMetrics {
        CandidateMetrics {
            size_mb: Some(size_mb),
            ..plain(accuracy, latency_ms)
        }
    }

    #[test]
    fn constraint_gates_score_to_zero() {
        let o = Objective::new(1.0, 0.5, 100.0, 50.0);
        assert_eq!(o.evaluate(&plain(0.99, 100.0)), 0.0);
        assert_eq!(o.evaluate(&plain(0.99, 150.0)), 0.0);
        assert!(o.evaluate(&plain(0.99, 40.0)) > 0.0);
    }

    #[test]
    fn faster_is_better_at_equal_accuracy() {
        let o = Objective::new(1.0, 0.5, 100.0, 50.0);
        assert!(o.evaluate(&plain(0.9, 10.0)) > o.evaluate(&plain(0.9, 40.0)));
    }

    #[test]
    fn ratio_sweep_shifts_preference() {
        // α:β of 10:1 against 1:10, the ends of the Fig. 7 sweep.
        let acc_heavy = Objective::new(10.0, 1.0, 1000.0, 100.0);
        let lat_heavy = Objective::new(1.0, 10.0, 1000.0, 100.0);
        // Accurate-but-slow candidate vs fast-but-sloppy candidate.
        let (slow_acc, fast_sloppy) = (plain(0.95, 90.0), plain(0.80, 10.0));
        assert!(acc_heavy.evaluate(&slow_acc) > acc_heavy.evaluate(&fast_sloppy));
        assert!(lat_heavy.evaluate(&fast_sloppy) > lat_heavy.evaluate(&slow_acc));
    }

    #[test]
    fn size_gate_mirrors_latency_gate() {
        let o = Objective::new(1.0, 0.5, 100.0, 50.0).with_max_size_mb(2.0);
        assert!(o.evaluate(&sized(0.9, 10.0, 1.0)) > 0.0);
        assert_eq!(o.evaluate(&sized(0.9, 10.0, 2.5)), 0.0);
        // Without a size constraint the sized score equals the plain one.
        let free = Objective::new(1.0, 0.5, 100.0, 50.0);
        assert_eq!(
            free.evaluate(&sized(0.9, 10.0, 99.0)),
            free.evaluate(&plain(0.9, 10.0))
        );
    }

    /// Every gate's boundary is exclusive: a metric exactly at its bound
    /// scores 0, epsilon below passes — the same convention for latency,
    /// size, energy and memory.
    #[test]
    fn all_gates_are_exclusive_at_the_boundary() {
        let o = Objective::new(1.0, 0.0, 100.0, 50.0)
            .with_max_size_mb(2.0)
            .with_max_energy_mj(500.0)
            .with_max_peak_mem_mb(750.0);
        let good = CandidateMetrics {
            accuracy: 0.9,
            latency_ms: 99.999,
            size_mb: Some(1.999),
            energy_mj: Some(499.9),
            peak_mem_mb: Some(749.9),
        };
        assert!(o.evaluate(&good) > 0.0);
        for bad in [
            CandidateMetrics {
                latency_ms: 100.0,
                ..good
            },
            CandidateMetrics {
                size_mb: Some(2.0),
                ..good
            },
            CandidateMetrics {
                energy_mj: Some(500.0),
                ..good
            },
            CandidateMetrics {
                peak_mem_mb: Some(750.0),
                ..good
            },
        ] {
            assert_eq!(o.evaluate(&bad), 0.0, "{bad:?} should be gated");
        }
    }

    /// A bound whose metric was not supplied does not gate: a caller that
    /// opts out of an axis is scored on the axes it supplied.
    #[test]
    fn absent_metrics_pass_their_gates() {
        let o = Objective::new(1.0, 0.5, 100.0, 50.0)
            .with_max_size_mb(0.001)
            .with_max_energy_mj(0.001)
            .with_max_peak_mem_mb(0.001);
        assert!(o.evaluate(&plain(0.9, 10.0)) > 0.0);
    }

    #[test]
    fn energy_and_memory_terms_subtract_normalised() {
        let base = Objective::new(1.0, 0.0, 100.0, 50.0);
        let o = base.with_energy(0.5, 200.0).with_peak_mem(0.25, 400.0);
        let m = CandidateMetrics {
            accuracy: 1.0,
            latency_ms: 10.0,
            size_mb: None,
            energy_mj: Some(100.0),
            peak_mem_mb: Some(200.0),
        };
        // 1.0 − 0.5·(100/200) − 0.25·(200/400) = 1.0 − 0.25 − 0.125
        assert!((o.evaluate(&m) - 0.625).abs() < 1e-12);
        // Zero-weight objectives do the exact two-term arithmetic, whatever
        // the other axes read.
        let (alpha, beta, accuracy, latency, reference) = (1.0f64, 0.0, 1.0, 10.0, 50.0);
        let two_term = alpha * accuracy - beta * (latency / reference);
        assert_eq!(base.evaluate(&m).to_bits(), two_term.to_bits());
        assert_eq!(
            base.evaluate(&m).to_bits(),
            base.evaluate(&plain(1.0, 10.0)).to_bits()
        );
    }

    #[test]
    fn needs_execution_metrics_tracks_the_new_axes() {
        let o = Objective::new(1.0, 0.5, 100.0, 50.0);
        assert!(!o.needs_execution_metrics());
        assert!(!o.with_max_size_mb(1.0).needs_execution_metrics());
        assert!(o.with_energy(0.1, 1.0).needs_execution_metrics());
        assert!(o.with_peak_mem(0.1, 1.0).needs_execution_metrics());
        assert!(o.with_max_energy_mj(1.0).needs_execution_metrics());
        assert!(o.with_max_peak_mem_mb(1.0).needs_execution_metrics());
    }
}
