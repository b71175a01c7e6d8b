//! Deterministic fair-share admission: which request runs the next
//! scheduling round.
//!
//! Each request is charged the engine slices its rounds consume. The
//! controller always picks the admitted, unfinished request with the
//! lowest *weighted* charge — `slices / priority` — so a priority-3
//! tenant accrues charge a third as fast and receives three times the
//! slice share of a priority-1 tenant under contention. Ties break by
//! arrival order, then request id: the decision is a pure function of
//! (charges, priorities, arrival), never of wall clock or thread timing,
//! which is what keeps daemon runs bit-identical to `run_fleet`.
//!
//! # Examples
//!
//! ```
//! use hgnas_serve::AdmissionController;
//!
//! let mut adm = AdmissionController::new();
//! adm.admit(1, "alice", 3);
//! adm.admit(2, "bob", 1);
//! // Both uncharged: arrival order wins the first round.
//! assert_eq!(adm.next(), Some(1));
//! adm.charge(1, 3);
//! // alice at 3/3 = 1.0 weighted, bob at 0: bob runs.
//! assert_eq!(adm.next(), Some(2));
//! ```

use std::collections::HashMap;

/// One admitted request's accounting entry.
#[derive(Debug, Clone)]
struct Entry {
    tenant: String,
    priority: u64,
    arrival: u64,
    slices: u64,
    done: bool,
}

/// Slice usage of one tenant, summed over its requests (finished ones
/// included).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantUsage {
    /// The tenant.
    pub tenant: String,
    /// Its fair-share weight as admitted.
    pub priority: u8,
    /// Requests admitted for this tenant.
    pub requests: u64,
    /// Engine slices charged across those requests.
    pub slices: u64,
}

/// Weighted fair-share queue over admitted requests. See the module docs
/// for the selection rule.
#[derive(Debug, Default)]
pub struct AdmissionController {
    entries: HashMap<u64, Entry>,
    arrivals: u64,
}

impl AdmissionController {
    /// An empty controller.
    pub fn new() -> Self {
        Self::default()
    }

    /// Admits a request for `tenant` with fair-share weight `priority`
    /// (clamped to ≥ 1). Re-admitting an id is a no-op.
    pub fn admit(&mut self, request_id: u64, tenant: &str, priority: u8) {
        let arrival = self.arrivals;
        self.entries.entry(request_id).or_insert_with(|| Entry {
            tenant: tenant.to_string(),
            priority: u64::from(priority.max(1)),
            arrival,
            slices: 0,
            done: false,
        });
        self.arrivals += 1;
    }

    /// Charges `slices` consumed by one scheduling round to the request.
    pub fn charge(&mut self, request_id: u64, slices: u64) {
        if let Some(e) = self.entries.get_mut(&request_id) {
            e.slices += slices;
        }
    }

    /// Marks a request finished; it no longer competes for rounds.
    pub fn complete(&mut self, request_id: u64) {
        if let Some(e) = self.entries.get_mut(&request_id) {
            e.done = true;
        }
    }

    /// The request the next scheduling round belongs to: minimal
    /// `slices / priority`, ties by arrival order then id. `None` when
    /// nothing runnable remains.
    pub fn next(&self) -> Option<u64> {
        self.entries
            .iter()
            .filter(|(_, e)| !e.done)
            .min_by(|(id_a, a), (id_b, b)| {
                // slices_a / prio_a  vs  slices_b / prio_b, cross-
                // multiplied to stay in exact integer arithmetic.
                let wa = u128::from(a.slices) * u128::from(b.priority);
                let wb = u128::from(b.slices) * u128::from(a.priority);
                wa.cmp(&wb)
                    .then(a.arrival.cmp(&b.arrival))
                    .then(id_a.cmp(id_b))
            })
            .map(|(id, _)| *id)
    }

    /// Whether any admitted request is still unfinished.
    pub fn has_pending(&self) -> bool {
        self.entries.values().any(|e| !e.done)
    }

    /// Ids of unfinished requests, ascending (the drain manifest).
    pub fn pending(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .entries
            .iter()
            .filter(|(_, e)| !e.done)
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Slices charged to one request so far.
    pub fn charged(&self, request_id: u64) -> u64 {
        self.entries.get(&request_id).map_or(0, |e| e.slices)
    }

    /// Per-tenant usage summary, sorted by tenant name.
    pub fn tenant_usage(&self) -> Vec<TenantUsage> {
        let mut by_tenant: HashMap<&str, TenantUsage> = HashMap::new();
        for e in self.entries.values() {
            let u = by_tenant.entry(&e.tenant).or_insert_with(|| TenantUsage {
                tenant: e.tenant.clone(),
                priority: u8::try_from(e.priority).unwrap_or(u8::MAX),
                requests: 0,
                slices: 0,
            });
            u.requests += 1;
            u.slices += e.slices;
        }
        let mut out: Vec<TenantUsage> = by_tenant.into_values().collect();
        out.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_follow_priorities_under_contention() {
        let mut adm = AdmissionController::new();
        adm.admit(1, "alice", 3);
        adm.admit(2, "bob", 1);
        // Fixed-size rounds: every round charges 4 slices to whoever ran.
        let mut runs = HashMap::new();
        for _ in 0..40 {
            let id = adm.next().unwrap();
            adm.charge(id, 4);
            *runs.entry(id).or_insert(0u32) += 1;
        }
        // 3:1 priorities → 30 rounds for alice, 10 for bob.
        assert_eq!(runs[&1], 30);
        assert_eq!(runs[&2], 10);
    }

    #[test]
    fn arrival_order_breaks_ties_deterministically() {
        let mut adm = AdmissionController::new();
        adm.admit(7, "a", 2);
        adm.admit(3, "b", 2);
        // Same weighted charge (0): the earlier arrival wins, regardless
        // of id order.
        assert_eq!(adm.next(), Some(7));
        adm.charge(7, 1);
        assert_eq!(adm.next(), Some(3));
        adm.charge(3, 1);
        // Equal again: back to arrival order.
        assert_eq!(adm.next(), Some(7));
    }

    #[test]
    fn completion_removes_from_rotation_but_keeps_accounting() {
        let mut adm = AdmissionController::new();
        adm.admit(1, "alice", 1);
        adm.admit(2, "alice", 1);
        adm.charge(1, 6);
        adm.complete(1);
        assert_eq!(adm.next(), Some(2));
        assert_eq!(adm.pending(), vec![2]);
        assert!(adm.has_pending());
        adm.complete(2);
        assert_eq!(adm.next(), None);
        assert!(!adm.has_pending());
        let usage = adm.tenant_usage();
        assert_eq!(usage.len(), 1);
        assert_eq!(usage[0].requests, 2);
        assert_eq!(usage[0].slices, 6);
    }

    #[test]
    fn priority_zero_is_clamped_to_one() {
        let mut adm = AdmissionController::new();
        adm.admit(1, "z", 0);
        adm.charge(1, 5);
        // A true zero priority would never run again (infinite weighted
        // charge); clamping keeps the tenant schedulable.
        assert_eq!(adm.next(), Some(1));
    }
}
