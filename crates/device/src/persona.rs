//! Device personas: profiles as data, not enum variants.
//!
//! [`DeviceKind`] stays the closed set of *built-in* device classes the
//! binary codecs index by, but everything that iterates devices — fleet
//! sharding, Table-1 reports, predictor training sweeps — goes through a
//! [`PersonaRegistry`]: an ordered collection of named [`DevicePersona`]s
//! seeded with the built-ins and extensible at runtime from a declarative
//! text spec ([`PersonaRegistry::register_spec`]) or by fitting a persona to
//! measured latencies ([`calibrate`]).
//!
//! Every persona carries a *base kind*: the built-in device class it is a
//! calibrated variant of. That keeps custom personas compatible with every
//! `DeviceKind`-keyed artifact (checkpoints, codec device indices) while the
//! profile itself — the thing the simulator actually reads — is free data.

use crate::exec::MeasureError;
use crate::profiles::{ClassRates, DeviceKind, DeviceProfile};
use crate::workload::{OpClass, Workload};
use std::fmt;

/// A named device profile. The built-in entries wrap
/// [`DeviceProfile::builtin`]; custom entries come from a spec or a
/// calibration fit and keep the base kind of the profile they derive from.
#[derive(Debug, Clone, PartialEq)]
pub struct DevicePersona {
    /// Registry key, unique per registry. Built-ins use stable slugs
    /// (`rtx3080`, `i7-8700k`, `jetson-tx2`, `raspberry-pi-3b`, `v100`).
    pub name: String,
    /// The profile the simulator executes against.
    pub profile: DeviceProfile,
}

impl DevicePersona {
    /// The built-in device class this persona derives from
    /// (`profile.kind`) — what checkpoints and codecs record.
    pub fn base_kind(&self) -> DeviceKind {
        self.profile.kind
    }

    /// Whether this is one of the built-in entries (name and profile both
    /// match the base kind exactly).
    pub fn is_builtin(&self) -> bool {
        self.name == builtin_slug(self.profile.kind) && self.profile == self.profile.kind.profile()
    }

    /// Checks the profile is one the simulator and the search objective
    /// can price: positive class rates, memory factor, available memory
    /// and power; non-negative dispatch overhead and base memory.
    /// [`parse_spec`] applies the same check.
    ///
    /// # Errors
    ///
    /// [`PersonaError::Profile`] naming the first field out of range.
    pub fn validate(&self) -> Result<(), PersonaError> {
        validate_profile(&self.profile)
    }
}

/// Stable registry slug for a built-in device.
pub fn builtin_slug(kind: DeviceKind) -> &'static str {
    match kind {
        DeviceKind::Rtx3080 => "rtx3080",
        DeviceKind::I78700K => "i7-8700k",
        DeviceKind::JetsonTx2 => "jetson-tx2",
        DeviceKind::RaspberryPi3B => "raspberry-pi-3b",
        DeviceKind::V100 => "v100",
    }
}

/// What can go wrong assembling personas.
#[derive(Debug, Clone, PartialEq)]
pub enum PersonaError {
    /// A persona with this name is already registered.
    Duplicate(String),
    /// The spec text failed to parse; the payload says where and why.
    Spec(String),
    /// A profile field is out of range; the payload names it.
    Profile(String),
    /// Calibration was asked to fit against unusable samples.
    Calibration(String),
}

impl fmt::Display for PersonaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersonaError::Duplicate(name) => write!(f, "persona {name:?} already registered"),
            PersonaError::Spec(msg) => write!(f, "bad persona spec: {msg}"),
            PersonaError::Profile(msg) => write!(f, "profile out of range: {msg}"),
            PersonaError::Calibration(msg) => write!(f, "calibration failed: {msg}"),
        }
    }
}

impl std::error::Error for PersonaError {}

/// An ordered, name-keyed collection of device personas.
///
/// Iteration order is registration order with the built-ins first (in
/// [`DeviceKind::ALL`] order), so report tables keep the paper's
/// presentation order and grow custom rows at the bottom.
#[derive(Debug, Clone)]
pub struct PersonaRegistry {
    entries: Vec<DevicePersona>,
}

impl PersonaRegistry {
    /// A registry holding exactly the built-in profiles.
    pub fn builtin() -> Self {
        PersonaRegistry {
            entries: DeviceKind::ALL
                .iter()
                .map(|&kind| DevicePersona {
                    name: builtin_slug(kind).to_string(),
                    profile: kind.profile(),
                })
                .collect(),
        }
    }

    /// An empty registry (no built-ins); useful for tests and for hosts
    /// that serve only bring-your-own-device personas.
    pub fn empty() -> Self {
        PersonaRegistry {
            entries: Vec::new(),
        }
    }

    /// Adds a persona.
    ///
    /// # Errors
    ///
    /// [`PersonaError::Duplicate`] if the name is taken.
    pub fn register(&mut self, persona: DevicePersona) -> Result<(), PersonaError> {
        if self.get(&persona.name).is_some() {
            return Err(PersonaError::Duplicate(persona.name));
        }
        self.entries.push(persona);
        Ok(())
    }

    /// Parses `spec` (see [`parse_spec`]) and registers the result.
    ///
    /// # Errors
    ///
    /// As [`parse_spec`], and [`PersonaError::Duplicate`] if the name is
    /// taken.
    pub fn register_spec(&mut self, spec: &str) -> Result<&DevicePersona, PersonaError> {
        let persona = parse_spec(spec)?;
        let name = persona.name.clone();
        self.register(persona)?;
        Ok(self.get(&name).expect("just registered"))
    }

    /// Looks a persona up by name.
    pub fn get(&self, name: &str) -> Option<&DevicePersona> {
        self.entries.iter().find(|p| p.name == name)
    }

    /// Every persona, in registration order (built-ins first).
    pub fn iter(&self) -> impl Iterator<Item = &DevicePersona> {
        self.entries.iter()
    }

    /// Personas that are deployment targets: everything except the V100
    /// search host. For the plain built-in registry this is exactly
    /// [`DeviceKind::EDGE_TARGETS`], in the paper's presentation order.
    pub fn edge_targets(&self) -> impl Iterator<Item = &DevicePersona> {
        self.entries
            .iter()
            .filter(|p| p.profile.kind != DeviceKind::V100 || !p.is_builtin())
    }

    /// Number of registered personas.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl Default for PersonaRegistry {
    fn default() -> Self {
        Self::builtin()
    }
}

/// Parses a declarative persona spec.
///
/// The format is line-oriented `key = value` pairs; `#` starts a comment.
/// A spec always names itself and a `base` built-in (the device class it is
/// a variant of — see [`builtin_slug`] for the accepted slugs); every other
/// key overrides one field of the base profile:
///
/// ```text
/// name = office-tx2          # required
/// base = jetson-tx2          # required: builtin slug this derives from
/// sample    = 4.4 20.0       # per-class rates: GFLOP/s GB/s
/// aggregate = 120.0 6.5
/// combine   = 330.0 40.0
/// other     = 4.0 1.43
/// overhead_us = 1500
/// base_mem_mb = 100
/// mem_factor = 1.0
/// avail_mem_mb = 8000
/// noise_sigma = 0.04
/// measurement_roundtrip_ms = 4000
/// power_w = 7.5
/// ```
///
/// # Errors
///
/// [`PersonaError::Spec`] describing the offending line, or
/// [`PersonaError::Profile`] when the resulting profile fails
/// [`DevicePersona::validate`].
pub fn parse_spec(spec: &str) -> Result<DevicePersona, PersonaError> {
    let mut name: Option<String> = None;
    let mut profile: Option<DeviceProfile> = None;
    let mut overrides: Vec<(String, Vec<f64>)> = Vec::new();
    for (lineno, raw) in spec.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| PersonaError::Spec(format!("line {}: missing '='", lineno + 1)))?;
        let (key, value) = (key.trim(), value.trim());
        match key {
            "name" => name = Some(value.to_string()),
            "base" => {
                let kind = DeviceKind::ALL
                    .iter()
                    .copied()
                    .find(|&k| builtin_slug(k) == value)
                    .ok_or_else(|| {
                        PersonaError::Spec(format!("line {}: unknown base {value:?}", lineno + 1))
                    })?;
                profile = Some(kind.profile());
            }
            _ => {
                let nums: Result<Vec<f64>, _> =
                    value.split_whitespace().map(str::parse::<f64>).collect();
                let nums = nums.map_err(|e| {
                    PersonaError::Spec(format!("line {}: bad number ({e})", lineno + 1))
                })?;
                overrides.push((key.to_string(), nums));
            }
        }
    }
    let name = name.ok_or_else(|| PersonaError::Spec("missing 'name'".into()))?;
    let mut profile = profile.ok_or_else(|| PersonaError::Spec("missing 'base'".into()))?;
    for (key, nums) in overrides {
        apply_override(&mut profile, &key, &nums)?;
    }
    validate_profile(&profile)?;
    Ok(DevicePersona { name, profile })
}

fn apply_override(
    profile: &mut DeviceProfile,
    key: &str,
    nums: &[f64],
) -> Result<(), PersonaError> {
    let scalar = |nums: &[f64]| -> Result<f64, PersonaError> {
        match nums {
            [v] => Ok(*v),
            _ => Err(PersonaError::Spec(format!(
                "{key}: expected one number, got {}",
                nums.len()
            ))),
        }
    };
    let rates = |nums: &[f64]| -> Result<ClassRates, PersonaError> {
        match nums {
            [gflops, gbps] => Ok(ClassRates {
                gflops: *gflops,
                gbps: *gbps,
            }),
            _ => Err(PersonaError::Spec(format!(
                "{key}: expected 'GFLOP/s GB/s', got {} numbers",
                nums.len()
            ))),
        }
    };
    match key {
        "sample" => profile.rates[OpClass::Sample.index()] = rates(nums)?,
        "aggregate" => profile.rates[OpClass::Aggregate.index()] = rates(nums)?,
        "combine" => profile.rates[OpClass::Combine.index()] = rates(nums)?,
        "other" => profile.rates[OpClass::Other.index()] = rates(nums)?,
        "overhead_us" => profile.overhead_us = scalar(nums)?,
        "base_mem_mb" => profile.base_mem_mb = scalar(nums)?,
        "mem_factor" => profile.mem_factor = scalar(nums)?,
        "avail_mem_mb" => profile.avail_mem_mb = scalar(nums)?,
        "noise_sigma" => profile.noise_sigma = scalar(nums)?,
        "measurement_roundtrip_ms" => profile.measurement_roundtrip_ms = scalar(nums)?,
        "power_w" => profile.power_w = scalar(nums)?,
        _ => return Err(PersonaError::Spec(format!("unknown key {key:?}"))),
    }
    Ok(())
}

fn validate_profile(p: &DeviceProfile) -> Result<(), PersonaError> {
    for r in &p.rates {
        if !(r.gflops > 0.0 && r.gbps > 0.0) {
            return Err(PersonaError::Profile("rates must be positive".into()));
        }
    }
    let non_negative = [
        ("overhead_us", p.overhead_us),
        ("base_mem_mb", p.base_mem_mb),
    ];
    if let Some((name, v)) = non_negative
        .into_iter()
        .find(|&(_, v)| v.is_nan() || v < 0.0)
    {
        return Err(PersonaError::Profile(format!(
            "{name} = {v} must be non-negative"
        )));
    }
    let positive = [
        ("mem_factor", p.mem_factor),
        ("avail_mem_mb", p.avail_mem_mb),
        ("power_w", p.power_w),
    ];
    if let Some((name, v)) = positive.into_iter().find(|&(_, v)| v.is_nan() || v <= 0.0) {
        return Err(PersonaError::Profile(format!(
            "{name} = {v} must be positive"
        )));
    }
    Ok(())
}

/// One measured-mode observation for [`calibrate`]: a lowered workload and
/// the latency the real board reported for it.
#[derive(Debug, Clone)]
pub struct CalibrationSample {
    /// The lowered architecture that was deployed.
    pub workload: Workload,
    /// Measured end-to-end latency, ms.
    pub measured_ms: f64,
}

/// Fits a persona to measured latencies: a bring-your-own-device board is
/// modelled as `base` with every per-class rate rescaled by one global
/// time-scale factor `s` (and dispatch overhead scaled with it), where `s`
/// is the least-squares fit of `measured ≈ s · predicted(base)` over the
/// samples. One factor is deliberate — with end-to-end latencies as the
/// only signal, per-class factors are not identifiable without per-class
/// timings, and a global fit is exact for the common case of "same
/// architecture, different clock/thermal envelope".
///
/// # Errors
///
/// [`PersonaError::Calibration`] when no sample is usable (non-finite or
/// non-positive measurement/prediction).
pub fn calibrate(
    name: &str,
    base: &DeviceProfile,
    samples: &[CalibrationSample],
) -> Result<DevicePersona, PersonaError> {
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    let mut used = 0usize;
    for s in samples {
        let predicted = base.execute(&s.workload).latency_ms;
        let usable = predicted > 0.0
            && s.measured_ms > 0.0
            && predicted.is_finite()
            && s.measured_ms.is_finite();
        if !usable {
            continue;
        }
        num += s.measured_ms * predicted;
        den += predicted * predicted;
        used += 1;
    }
    if used == 0 || den <= 0.0 {
        return Err(PersonaError::Calibration(
            "no usable samples (need positive finite measured latencies)".into(),
        ));
    }
    let scale = num / den;
    let mut profile = base.clone();
    for r in &mut profile.rates {
        r.gflops /= scale;
        r.gbps /= scale;
    }
    profile.overhead_us *= scale;
    Ok(DevicePersona {
        name: name.to_string(),
        profile,
    })
}

/// Collects calibration samples by measuring `workloads` through a
/// measurement closure (e.g. a fleet oracle round-trip), skipping
/// transient failures. A convenience for the common "deploy N probe
/// architectures, fit" flow.
///
/// # Errors
///
/// Propagates the first non-transient measurement error.
pub fn collect_samples(
    workloads: &[Workload],
    mut measure: impl FnMut(&Workload) -> Result<f64, MeasureError>,
) -> Result<Vec<CalibrationSample>, MeasureError> {
    let mut out = Vec::with_capacity(workloads.len());
    for w in workloads {
        match measure(w) {
            Ok(ms) => out.push(CalibrationSample {
                workload: w.clone(),
                measured_ms: ms,
            }),
            Err(e) if e.is_transient() => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadOp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn probe(n: usize) -> Workload {
        let mut w = Workload::new();
        w.push(WorkloadOp::knn("knn", n, 16, 3));
        w.push(WorkloadOp::gather("gather", n, 16, 32));
        w.push(WorkloadOp::linear("mlp", n * 16, 32, 32));
        w.push(WorkloadOp::reduce("max", n, 16, 32));
        w
    }

    #[test]
    fn builtin_registry_mirrors_device_kind() {
        let reg = PersonaRegistry::builtin();
        assert_eq!(reg.len(), DeviceKind::ALL.len());
        for kind in DeviceKind::ALL {
            let p = reg.get(builtin_slug(kind)).expect("builtin present");
            assert_eq!(p.profile, kind.profile());
            assert!(p.is_builtin());
        }
        let edge: Vec<DeviceKind> = reg.edge_targets().map(|p| p.base_kind()).collect();
        assert_eq!(edge, DeviceKind::EDGE_TARGETS.to_vec());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut reg = PersonaRegistry::builtin();
        let err = reg
            .register(DevicePersona {
                name: "v100".into(),
                profile: DeviceKind::V100.profile(),
            })
            .unwrap_err();
        assert!(matches!(err, PersonaError::Duplicate(_)));
    }

    #[test]
    fn spec_round_trip_with_overrides() {
        let mut reg = PersonaRegistry::builtin();
        let spec = "
            # An office TX2 with a throttled GPU and more RAM.
            name = office-tx2
            base = jetson-tx2
            combine = 200.0 30.0
            avail_mem_mb = 16000
            power_w = 10.0
        ";
        let p = reg.register_spec(spec).expect("valid spec").clone();
        assert_eq!(p.name, "office-tx2");
        assert_eq!(p.base_kind(), DeviceKind::JetsonTx2);
        assert!(!p.is_builtin());
        let base = DeviceKind::JetsonTx2.profile();
        assert_eq!(p.profile.rates[OpClass::Combine.index()].gflops, 200.0);
        assert_eq!(p.profile.avail_mem_mb, 16_000.0);
        assert_eq!(p.profile.power_w, 10.0);
        // Untouched fields come from the base.
        assert_eq!(p.profile.overhead_us, base.overhead_us);
        assert_eq!(
            p.profile.rates[OpClass::Sample.index()],
            base.rates[OpClass::Sample.index()]
        );
        // Custom edge personas show up as targets.
        assert!(reg.edge_targets().any(|q| q.name == "office-tx2"));
    }

    #[test]
    fn spec_errors_name_the_problem() {
        assert!(matches!(
            parse_spec("base = jetson-tx2"),
            Err(PersonaError::Spec(m)) if m.contains("name")
        ));
        assert!(matches!(
            parse_spec("name = x"),
            Err(PersonaError::Spec(m)) if m.contains("base")
        ));
        assert!(matches!(
            parse_spec("name = x\nbase = gba"),
            Err(PersonaError::Spec(m)) if m.contains("unknown base")
        ));
        assert!(matches!(
            parse_spec("name = x\nbase = v100\ncombine = 1.0"),
            Err(PersonaError::Spec(m)) if m.contains("GFLOP")
        ));
        assert!(matches!(
            parse_spec("name = x\nbase = v100\nfrobnicate = 1.0"),
            Err(PersonaError::Spec(m)) if m.contains("unknown key")
        ));
        assert!(matches!(
            parse_spec("name = x\nbase = v100\npower_w = 0"),
            Err(PersonaError::Profile(m)) if m.contains("power_w")
        ));
    }

    #[test]
    fn validate_names_the_first_field_out_of_range() {
        for kind in DeviceKind::ALL {
            let builtin = DevicePersona {
                name: builtin_slug(kind).into(),
                profile: kind.profile(),
            };
            assert_eq!(builtin.validate(), Ok(()), "{kind:?}");
        }
        type Edit = fn(&mut DeviceProfile);
        let edits: [(&str, Edit); 6] = [
            ("rates", |p| p.rates[0].gbps = 0.0),
            ("overhead_us", |p| p.overhead_us = -1.0),
            ("base_mem_mb", |p| p.base_mem_mb = f64::NAN),
            ("mem_factor", |p| p.mem_factor = 0.0),
            ("avail_mem_mb", |p| p.avail_mem_mb = -8.0),
            ("power_w", |p| p.power_w = 0.0),
        ];
        for (field, edit) in edits {
            let mut persona = DevicePersona {
                name: "edited".into(),
                profile: DeviceKind::JetsonTx2.profile(),
            };
            edit(&mut persona.profile);
            assert!(
                matches!(persona.validate(), Err(PersonaError::Profile(ref m)) if m.contains(field)),
                "{field}: {:?}",
                persona.validate()
            );
        }
    }

    #[test]
    fn calibration_recovers_a_uniformly_scaled_device() {
        // "Real" board: a TX2 running 2.5x slower across the board.
        let base = DeviceKind::JetsonTx2.profile();
        let truth_scale = 2.5;
        let samples: Vec<CalibrationSample> = [128usize, 256, 384, 512]
            .iter()
            .map(|&n| {
                let w = probe(n);
                let measured_ms = base.execute(&w).latency_ms * truth_scale;
                CalibrationSample {
                    workload: w,
                    measured_ms,
                }
            })
            .collect();
        let persona = calibrate("slow-tx2", &base, &samples).expect("fit");
        assert_eq!(persona.base_kind(), DeviceKind::JetsonTx2);
        // Held-out workload: prediction within 1% of the scaled truth.
        let held_out = probe(768);
        let predicted = persona.profile.execute(&held_out).latency_ms;
        let truth = base.execute(&held_out).latency_ms * truth_scale;
        assert!(
            (predicted / truth - 1.0).abs() < 0.01,
            "predicted {predicted} vs truth {truth}"
        );
    }

    #[test]
    fn calibration_fits_noisy_measurements_unbiased() {
        let base = DeviceKind::RaspberryPi3B.profile();
        let mut rng = StdRng::seed_from_u64(7);
        let scale = 1.6;
        let samples: Vec<CalibrationSample> = (0..24)
            .map(|i| {
                let w = probe(96 + 32 * (i % 6));
                let mut slow = base.clone();
                for r in &mut slow.rates {
                    r.gflops /= scale;
                    r.gbps /= scale;
                }
                slow.overhead_us *= scale;
                let measured_ms = slow.measure(&w, &mut rng).unwrap().latency_ms;
                CalibrationSample {
                    workload: w,
                    measured_ms,
                }
            })
            .collect();
        let persona = calibrate("noisy-pi", &base, &samples).expect("fit");
        let w = probe(320);
        let predicted = persona.profile.execute(&w).latency_ms;
        let truth = base.execute(&w).latency_ms * scale;
        assert!(
            (predicted / truth - 1.0).abs() < 0.1,
            "predicted {predicted} vs truth {truth}"
        );
    }

    #[test]
    fn calibration_rejects_garbage() {
        let base = DeviceKind::V100.profile();
        assert!(calibrate("x", &base, &[]).is_err());
        let bad = [CalibrationSample {
            workload: probe(64),
            measured_ms: f64::NAN,
        }];
        assert!(calibrate("x", &base, &bad).is_err());
    }

    #[test]
    fn collect_samples_skips_transient_failures() {
        let base = DeviceKind::JetsonTx2.profile();
        let workloads: Vec<Workload> = [64usize, 96, 128].iter().map(|&n| probe(n)).collect();
        let mut calls = 0;
        let samples = collect_samples(&workloads, |w| {
            calls += 1;
            if calls == 2 {
                Err(MeasureError::Busy { retry_in_ms: 10.0 })
            } else {
                Ok(base.execute(w).latency_ms)
            }
        })
        .expect("busy is skipped");
        assert_eq!(samples.len(), 2);
    }
}
