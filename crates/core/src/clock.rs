//! Simulated search-time accounting.
//!
//! The paper's Fig. 9 plots objective score against *search time in
//! minutes* on the V100 host. Our host hardware differs, so the harnesses
//! meter search cost on the same simulated clock used for device latency:
//! every supernet training step, every accuracy validation, every predictor
//! query and every on-device measurement deposits its modelled cost here.

/// Accumulates simulated wall-clock milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SearchClock {
    elapsed_ms: f64,
}

impl SearchClock {
    /// A zeroed clock.
    pub fn new() -> Self {
        SearchClock::default()
    }

    /// A clock resumed at a checkpointed elapsed time.
    pub fn from_ms(elapsed_ms: f64) -> Self {
        SearchClock { elapsed_ms }
    }

    /// Adds `ms` of simulated work.
    pub fn add_ms(&mut self, ms: f64) {
        debug_assert!(ms >= 0.0, "negative time");
        self.elapsed_ms += ms;
    }

    /// Elapsed simulated milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed_ms
    }

    /// Elapsed simulated minutes (the Fig. 9 x-axis).
    pub fn elapsed_min(&self) -> f64 {
        self.elapsed_ms / 60_000.0
    }

    /// Elapsed simulated GPU-hours (the paper's "a few GPU hours" claim).
    pub fn elapsed_hours(&self) -> f64 {
        self.elapsed_ms / 3_600_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_converts() {
        let mut c = SearchClock::new();
        c.add_ms(90_000.0);
        c.add_ms(30_000.0);
        assert!((c.elapsed_min() - 2.0).abs() < 1e-12);
        assert!((c.elapsed_hours() - 2.0 / 60.0).abs() < 1e-12);
    }
}
