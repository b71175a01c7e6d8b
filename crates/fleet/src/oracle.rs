//! The measurement oracle: measured-mode latency queries, answered on the
//! calling thread.
//!
//! The paper's real-time-measurement mode (Fig. 9(a)) is simulated here, so
//! a measurement is one [`DeviceProfile::measure`] call. Searches route
//! those calls through an [`OracleClient`] (`hgnas_core::RunOptions::backend`)
//! instead of calling the simulator directly. The client measures on the
//! caller's thread, retries a transient failure up to three attempts in
//! all, and can inject a transient fault every Nth request to exercise that
//! retry path. Noise is drawn from the caller's generator state, which is
//! advanced only when an attempt resolves, so routing through the oracle
//! is *bit-transparent*: a search sees exactly the latencies an inline
//! measurement would have produced, whichever thread or shard measures.

use hgnas_core::MeasureBackend;
use hgnas_device::{DeviceKind, DeviceProfile, ExecutionReport, MeasureError, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Measurement attempts per request: a transient failure is retried at
/// most twice.
const MAX_ATTEMPTS: u32 = 3;

/// Oracle settings.
#[derive(Debug, Clone, Default)]
pub struct OracleConfig {
    /// Fault injection: every Nth request transiently fails its first
    /// attempt before any noise is drawn, exercising the retry path; the
    /// retry then measures with untouched noise draws. `None` (the
    /// default) injects nothing.
    pub inject_busy_every: Option<u64>,
}

/// Counters an oracle shares with its clients.
#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    retries: AtomicU64,
    injected_faults: AtomicU64,
}

/// Aggregate oracle counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleStats {
    /// Requests served.
    pub requests: u64,
    /// Retry attempts across all requests.
    pub retries: u64,
    /// Transient faults injected by [`OracleConfig::inject_busy_every`].
    pub injected_faults: u64,
}

/// The measurement service for a set of device profiles. Two personas
/// calibrated from the same base kind are distinct profiles, since their
/// simulated hardware differs. Its clients measure on their callers'
/// threads and count into the oracle's [`OracleStats`].
#[derive(Debug)]
pub struct MeasurementOracle {
    profiles: Vec<DeviceProfile>,
    inject_busy_every: Option<u64>,
    counters: Arc<Counters>,
}

impl MeasurementOracle {
    /// An oracle for every device in `devices`, using each device's builtin
    /// profile. See [`MeasurementOracle::start_profiles`] for calibrated
    /// personas.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is empty.
    pub fn start(devices: &[DeviceKind], cfg: &OracleConfig) -> Self {
        let profiles: Vec<DeviceProfile> = devices.iter().map(|d| d.profile()).collect();
        Self::start_profiles(&profiles, cfg)
    }

    /// An oracle for every profile in `profiles` — the persona-aware
    /// generalisation of [`MeasurementOracle::start`].
    ///
    /// # Panics
    ///
    /// As [`MeasurementOracle::start`].
    pub fn start_profiles(profiles: &[DeviceProfile], cfg: &OracleConfig) -> Self {
        assert!(!profiles.is_empty(), "oracle needs at least one device");
        MeasurementOracle {
            profiles: profiles.to_vec(),
            inject_busy_every: cfg.inject_busy_every,
            counters: Arc::default(),
        }
    }

    /// A client measuring on `device`'s builtin profile.
    ///
    /// # Panics
    ///
    /// Panics if the oracle was not started with `device`.
    pub fn client(&self, device: DeviceKind) -> OracleClient {
        self.client_for(&device.profile())
    }

    /// A client measuring on exactly `profile`.
    ///
    /// # Panics
    ///
    /// Panics if the oracle was not started with this profile.
    pub fn client_for(&self, profile: &DeviceProfile) -> OracleClient {
        let profile = self
            .profiles
            .iter()
            .find(|p| *p == profile)
            .unwrap_or_else(|| panic!("oracle was not started for the {} profile", profile.kind));
        OracleClient {
            profile: profile.clone(),
            inject_busy_every: self.inject_busy_every,
            counters: Arc::clone(&self.counters),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> OracleStats {
        let c = &self.counters;
        OracleStats {
            requests: c.requests.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            injected_faults: c.injected_faults.load(Ordering::Relaxed),
        }
    }

    /// Consumes the oracle and returns its final counters.
    pub fn shutdown(self) -> OracleStats {
        self.stats()
    }
}

/// A handle measuring on one device profile. Cloneable and cheap;
/// implements [`MeasureBackend`] so it plugs straight into
/// `hgnas_core::RunOptions::backend`.
#[derive(Debug, Clone)]
pub struct OracleClient {
    profile: DeviceProfile,
    inject_busy_every: Option<u64>,
    counters: Arc<Counters>,
}

/// The outcome of [`OracleClient::submit`]; redeem with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket(Result<ExecutionReport, MeasureError>);

impl Ticket {
    /// The measurement's outcome.
    ///
    /// # Errors
    ///
    /// The measurement's own [`MeasureError`].
    pub fn wait(self) -> Result<ExecutionReport, MeasureError> {
        self.0
    }
}

impl OracleClient {
    /// The device this client measures on.
    pub fn device(&self) -> DeviceKind {
        self.profile.kind
    }

    /// Measures `workload` with a noise stream seeded from `stream`
    /// (callers typically pass a request index), so each request's result
    /// is independent of what was measured before it.
    pub fn submit(&self, workload: Workload, stream: u64) -> Ticket {
        Ticket(self.measure(&workload, &mut StdRng::seed_from_u64(stream)))
    }
}

impl MeasureBackend for OracleClient {
    /// Measures on the calling thread: the returned report *and* the state
    /// `rng` is left in match an inline `profile.measure(workload, rng)`
    /// call exactly, retries included.
    fn measure(
        &self,
        workload: &Workload,
        rng: &mut StdRng,
    ) -> Result<ExecutionReport, MeasureError> {
        let c = &self.counters;
        let id = c.requests.fetch_add(1, Ordering::Relaxed) + 1;
        let mut inject = self.inject_busy_every.is_some_and(|n| id.is_multiple_of(n));
        let mut attempts = 0;
        loop {
            attempts += 1;
            let outcome = if std::mem::take(&mut inject) {
                // Injected transport contention: fails before any noise is
                // drawn, so the retry reproduces the inline measurement.
                c.injected_faults.fetch_add(1, Ordering::Relaxed);
                Err(MeasureError::Busy { retry_in_ms: 0.0 })
            } else {
                // Attempt on a scratch state, committed only on resolution,
                // so a transient failure inside `measure` cannot leak
                // half-consumed draws into the next attempt.
                let mut scratch = rng.clone();
                let r = self.profile.measure(workload, &mut scratch);
                if !r.as_ref().is_err_and(MeasureError::is_transient) {
                    *rng = scratch;
                }
                r
            };
            match outcome {
                Err(e) if e.is_transient() && attempts < MAX_ATTEMPTS => {
                    c.retries.fetch_add(1, Ordering::Relaxed);
                }
                resolved => return resolved,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgnas_device::WorkloadOp;

    fn toy_workload(n: usize) -> Workload {
        let mut w = Workload::new();
        w.push(WorkloadOp::knn("knn", n, 16, 3));
        w.push(WorkloadOp::linear("mlp", n, 16, 32));
        w
    }

    #[test]
    fn backend_is_bit_transparent() {
        let devices = [DeviceKind::JetsonTx2, DeviceKind::RaspberryPi3B];
        let oracle = MeasurementOracle::start(&devices, &OracleConfig::default());
        for device in devices {
            let client = oracle.client(device);
            let w = toy_workload(128);
            let mut inline_rng = StdRng::seed_from_u64(99);
            let mut oracle_rng = StdRng::seed_from_u64(99);
            for _ in 0..10 {
                let inline = device.profile().measure(&w, &mut inline_rng).unwrap();
                let via = client.measure(&w, &mut oracle_rng).unwrap();
                assert_eq!(inline, via);
            }
            assert_eq!(inline_rng, oracle_rng, "generator state diverged");
        }
        let stats = oracle.shutdown();
        assert_eq!(stats.requests, 20);
    }

    #[test]
    fn injected_faults_are_retried_transparently() {
        let cfg = OracleConfig {
            inject_busy_every: Some(2),
        };
        let oracle = MeasurementOracle::start(&[DeviceKind::I78700K], &cfg);
        let client = oracle.client(DeviceKind::I78700K);
        let w = toy_workload(96);
        let mut inline_rng = StdRng::seed_from_u64(5);
        let mut oracle_rng = StdRng::seed_from_u64(5);
        for _ in 0..8 {
            let inline = DeviceKind::I78700K
                .profile()
                .measure(&w, &mut inline_rng)
                .unwrap();
            let via = client.measure(&w, &mut oracle_rng).unwrap();
            assert_eq!(inline, via, "retry changed the measurement");
        }
        let stats = oracle.shutdown();
        assert_eq!(stats.injected_faults, 4, "every 2nd of 8 requests faults");
        assert!(stats.retries >= stats.injected_faults);
    }

    #[test]
    fn oom_is_not_retried() {
        let mut w = Workload::new();
        w.push(WorkloadOp::linear("huge", 4_000_000, 256, 256));
        w.peak_live_bytes = 4e9;
        let oracle =
            MeasurementOracle::start(&[DeviceKind::RaspberryPi3B], &OracleConfig::default());
        let client = oracle.client(DeviceKind::RaspberryPi3B);
        let mut rng = StdRng::seed_from_u64(1);
        let rng_before = rng.clone();
        match client.measure(&w, &mut rng) {
            Err(MeasureError::OutOfMemory { .. }) => {}
            other => panic!("expected OOM, got {other:?}"),
        }
        // Terminal errors consume no noise draws, exactly like inline.
        assert_eq!(rng, rng_before);
        let stats = oracle.shutdown();
        assert_eq!(stats.retries, 0);
    }

    #[test]
    fn pipelined_submissions_match_sequential_results() {
        let oracle = MeasurementOracle::start(&[DeviceKind::Rtx3080], &OracleConfig::default());
        let client = oracle.client(DeviceKind::Rtx3080);
        let w = toy_workload(200);
        // Submit 32 requests, then redeem their tickets.
        let tickets: Vec<Ticket> = (0..32).map(|i| client.submit(w.clone(), i)).collect();
        let async_lat: Vec<u64> = tickets
            .into_iter()
            .map(|t| t.wait().unwrap().latency_ms.to_bits())
            .collect();
        let serial_lat: Vec<u64> = (0..32)
            .map(|i| {
                DeviceKind::Rtx3080
                    .profile()
                    .measure_seeded(&w, i)
                    .unwrap()
                    .latency_ms
                    .to_bits()
            })
            .collect();
        assert_eq!(async_lat, serial_lat);
        let stats = oracle.shutdown();
        assert_eq!(stats.requests, 32);
    }

    #[test]
    #[should_panic(expected = "not started for")]
    fn unknown_device_client_panics() {
        let oracle = MeasurementOracle::start(&[DeviceKind::Rtx3080], &OracleConfig::default());
        let _ = oracle.client(DeviceKind::V100);
    }
}
