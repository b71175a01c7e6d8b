//! Deterministic fair-share admission: which request runs the next
//! scheduling round.
//!
//! Each tenant has an account charged the engine slices its requests'
//! rounds consume. The controller picks, among the unfinished requests
//! with no round in flight, the one whose tenant has the lowest *weighted*
//! charge — `slices / priority` — so a priority-3 tenant accrues charge a
//! third as fast and receives three times the slice share of a priority-1
//! tenant under contention, that is while more requests are runnable than
//! the daemon has budget units for rounds. Charging the tenant rather than
//! the request matters for closed-loop clients: a tenant's next request
//! inherits its account instead of starting from zero ahead of every older
//! request. A tenant with no unfinished request re-enters level with the
//! least-charged active tenant, so idling banks no credit either. Ties
//! break by arrival order, then request id: the decision is a pure
//! function of (charges, priorities, arrival), never of wall clock or
//! thread timing, which is what keeps daemon runs bit-identical to
//! `run_fleet`.
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

/// One unfinished request's entry.
#[derive(Debug, Clone)]
struct Entry {
    tenant: String,
    arrival: u64,
    /// Slices charged to this request alone (its report's count).
    slices: u64,
    /// Whether a round of this request is in flight.
    running: bool,
}

/// One tenant's account.
#[derive(Debug, Clone)]
struct Account {
    usage: TenantUsage,
    /// The fair-share position in slices: the slices charged, raised when
    /// the tenant re-enters behind the others. Compared as
    /// `position / priority`.
    position: u64,
    /// Unfinished requests of this tenant.
    active: u64,
}

impl Account {
    fn priority(&self) -> u64 {
        u64::from(self.usage.priority)
    }
}

/// Slice usage of one tenant, summed over its requests (finished ones
/// included).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantUsage {
    /// The tenant.
    pub tenant: String,
    /// Its fair-share weight as last admitted.
    pub priority: u8,
    /// Requests admitted for this tenant.
    pub requests: u64,
    /// Engine slices charged across those requests.
    pub slices: u64,
}

/// Weighted fair-share queue over admitted requests, charged per tenant.
/// See the module docs for the selection rule.
#[derive(Debug, Default)]
pub struct AdmissionController {
    /// Unfinished requests only: finished ones leave, their slices stay in
    /// their tenant's account.
    entries: HashMap<u64, Entry>,
    tenants: HashMap<String, Account>,
    arrivals: u64,
}

/// `a.position / a.priority` against `b`'s, cross-multiplied to stay in
/// exact integer arithmetic.
fn cmp_weighted(a: &Account, b: &Account) -> std::cmp::Ordering {
    let wa = u128::from(a.position) * u128::from(b.priority());
    let wb = u128::from(b.position) * u128::from(a.priority());
    wa.cmp(&wb)
}

impl AdmissionController {
    /// An empty controller.
    pub fn new() -> Self {
        Self::default()
    }

    /// Admits a request for `tenant` with fair-share weight `priority`
    /// (clamped to ≥ 1; the tenant's weight from then on). A tenant with
    /// no unfinished request moves up level with the least-charged tenant
    /// that has one. Re-admitting an id is a no-op.
    pub fn admit(&mut self, request_id: u64, tenant: &str, priority: u8) {
        if self.entries.contains_key(&request_id) {
            return;
        }
        let priority = priority.max(1);
        // The least weighted charge among the tenants with work, as a
        // position at this tenant's weight, rounded up so the newcomer
        // never lands ahead of it.
        let level = self
            .tenants
            .values()
            .filter(|a| a.active > 0)
            .min_by(|a, b| cmp_weighted(a, b))
            .map(|a| {
                let scaled = u128::from(a.position) * u128::from(priority);
                u64::try_from(scaled.div_ceil(u128::from(a.priority()))).unwrap_or(u64::MAX)
            });
        let account = self
            .tenants
            .entry(tenant.to_string())
            .or_insert_with(|| Account {
                usage: TenantUsage {
                    tenant: tenant.to_string(),
                    priority,
                    requests: 0,
                    slices: 0,
                },
                position: 0,
                active: 0,
            });
        if account.active == 0 {
            account.position = account.position.max(level.unwrap_or(0));
        }
        account.usage.priority = priority;
        account.usage.requests += 1;
        account.active += 1;
        self.entries.insert(
            request_id,
            Entry {
                tenant: tenant.to_string(),
                arrival: self.arrivals,
                slices: 0,
                running: false,
            },
        );
        self.arrivals += 1;
    }

    /// Marks a round of the request in flight: it leaves the pick until
    /// [`AdmissionController::charge`] ends the round.
    pub fn start(&mut self, request_id: u64) {
        if let Some(e) = self.entries.get_mut(&request_id) {
            e.running = true;
        }
    }

    /// Charges `slices` consumed by one scheduling round to the request and
    /// its tenant; the round is over, so the request competes again.
    pub fn charge(&mut self, request_id: u64, slices: u64) {
        if let Some(e) = self.entries.get_mut(&request_id) {
            e.slices += slices;
            e.running = false;
            if let Some(a) = self.tenants.get_mut(&e.tenant) {
                a.position += slices;
                a.usage.slices += slices;
            }
        }
    }

    /// Marks a request finished: it leaves the controller, and its slices
    /// stay in its tenant's usage.
    pub fn complete(&mut self, request_id: u64) {
        if let Some(e) = self.entries.remove(&request_id) {
            if let Some(a) = self.tenants.get_mut(&e.tenant) {
                a.active -= 1;
            }
        }
    }

    /// The request the next scheduling round belongs to: among unfinished
    /// requests with no round in flight, minimal tenant `slices /
    /// priority`, ties by arrival order then id. `None` when no such
    /// request remains.
    pub fn next(&self) -> Option<u64> {
        self.entries
            .iter()
            .filter(|(_, e)| !e.running)
            .min_by(|(id_a, a), (id_b, b)| {
                cmp_weighted(&self.tenants[&a.tenant], &self.tenants[&b.tenant])
                    .then(a.arrival.cmp(&b.arrival))
                    .then(id_a.cmp(id_b))
            })
            .map(|(id, _)| *id)
    }

    /// Unfinished requests with no round in flight.
    pub fn waiting(&self) -> usize {
        self.entries.values().filter(|e| !e.running).count()
    }

    /// Whether any admitted request is still unfinished.
    pub fn has_pending(&self) -> bool {
        !self.entries.is_empty()
    }

    /// Ids of unfinished requests, ascending (the drain manifest).
    pub fn pending(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.entries.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Slices charged to one unfinished request so far.
    pub fn charged(&self, request_id: u64) -> u64 {
        self.entries.get(&request_id).map_or(0, |e| e.slices)
    }

    /// Per-tenant usage summary, sorted by tenant name.
    pub fn tenant_usage(&self) -> Vec<TenantUsage> {
        let mut out: Vec<TenantUsage> = self.tenants.values().map(|a| a.usage.clone()).collect();
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

    #[test]
    fn a_request_with_a_round_in_flight_is_not_picked() {
        let mut adm = AdmissionController::new();
        adm.admit(1, "alice", 3);
        adm.admit(2, "bob", 1);
        assert_eq!(adm.waiting(), 2);
        adm.start(1);
        assert_eq!(adm.waiting(), 1);
        assert_eq!(adm.next(), Some(2));
        adm.start(2);
        assert_eq!(adm.next(), None);
        // The round's charge ends it.
        adm.charge(2, 4);
        assert_eq!(adm.next(), Some(2));
        adm.charge(1, 4);
        assert_eq!(adm.next(), Some(1));
    }

    /// A closed-loop priority-3 tenant whose request finishes every 3
    /// rounds and who submits its next one before the pick: charged per
    /// request, each new request started at 0 and beat the priority-1
    /// tenant forever; charged per tenant, the priority-1 tenant keeps
    /// its 1 round in 4.
    #[test]
    fn a_closed_loop_tenant_does_not_starve_the_other() {
        let mut adm = AdmissionController::new();
        adm.admit(1, "a", 1);
        adm.admit(2, "b", 3);
        let (mut b_request, mut b_rounds) = (2u64, 0);
        let mut a_rounds = 0;
        for _ in 0..40 {
            let id = adm.next().unwrap();
            adm.charge(id, 4);
            if id == 1 {
                a_rounds += 1;
                continue;
            }
            b_rounds += 1;
            if b_rounds % 3 == 0 {
                adm.complete(b_request);
                b_request += 1;
                adm.admit(b_request, "b", 3);
            }
        }
        assert_eq!(a_rounds, 10, "1 round in 4 for the priority-1 tenant");
        let usage = adm.tenant_usage();
        assert_eq!((usage[0].requests, usage[0].slices), (1, 40));
        assert_eq!((usage[1].requests, usage[1].slices), (11, 120));
    }

    #[test]
    fn an_idle_tenant_re_enters_level_with_the_least_charged() {
        let mut adm = AdmissionController::new();
        adm.admit(1, "busy", 1);
        adm.charge(1, 10);
        // "late" banked nothing while it had no request: it enters at the
        // busy tenant's weighted charge (10 / 1 = 30 / 3), and arrival
        // order breaks the tie.
        adm.admit(2, "late", 3);
        assert_eq!(adm.next(), Some(1));
        adm.charge(1, 1);
        assert_eq!(adm.next(), Some(2));
        // A tenant charged past the others keeps its charge on re-entry.
        adm.charge(2, 60);
        adm.complete(2);
        adm.admit(3, "late", 3);
        assert_eq!(adm.next(), Some(1));
    }
}
