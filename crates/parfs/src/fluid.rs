//! Weighted max-min fair fluid bandwidth allocation.
//!
//! Concurrent transfers are modelled as *flow classes*: `weight` identical
//! flows, each demanding a rate `r`, traversing a set of resources. A flow
//! using resource `R` with coefficient `c` consumes capacity `c · r` there
//! (e.g. a file striped over 4 servers puts `r/4` on each). Rates are
//! assigned max-min fairly by progressive filling: all flows rise together
//! until a resource saturates or a per-flow cap binds; bound flows freeze,
//! the rest keep rising.
//!
//! This is the textbook bottleneck-fairness model of link sharing and is a
//! faithful first-order model of how GPFS and Lustre servers divide
//! bandwidth among symmetric clients.

/// Identifies a capacity-constrained resource registered with the solver.
pub(crate) type ResourceId = usize;

/// A flow class submitted to the solver.
#[derive(Debug, Clone)]
pub(crate) struct FluidJobSpec {
    /// Number of identical parallel flows in this class.
    pub weight: f64,
    /// Upper bound on each flow's rate (e.g. client injection bandwidth,
    /// or `1/service_time` for metadata operations). Use `f64::INFINITY`
    /// for none, but only when `usage` is non-empty.
    pub rate_cap_per_flow: f64,
    /// `(resource, coefficient)` pairs: capacity consumed at the resource
    /// per unit of per-flow rate is `weight * coefficient * rate`.
    pub usage: Vec<(ResourceId, f64)>,
}

/// Max-min fair rate solver over a fixed set of resources.
pub(crate) struct FluidSolver {
    capacities: Vec<f64>,
}

impl FluidSolver {
    /// A solver with no resources (add them with [`add_resource`]).
    ///
    /// [`add_resource`]: FluidSolver::add_resource
    pub(crate) fn new() -> Self {
        FluidSolver { capacities: Vec::new() }
    }

    /// Register a resource with the given capacity (units/s) and return its
    /// id.
    pub(crate) fn add_resource(&mut self, capacity: f64) -> ResourceId {
        assert!(capacity > 0.0, "capacity must be positive");
        self.capacities.push(capacity);
        self.capacities.len() - 1
    }

    /// Compute the max-min fair per-flow rate of every job.
    ///
    /// Progressive filling: all jobs' rates rise uniformly from zero; when
    /// a resource saturates, every job using it freezes at the current
    /// level; when a job reaches its per-flow cap it freezes there. Runs in
    /// `O(jobs² · usage)`.
    pub(crate) fn rates(&self, jobs: &[FluidJobSpec]) -> Vec<f64> {
        let n = jobs.len();
        let mut rate = vec![0.0f64; n];
        if n == 0 {
            return rate;
        }
        for (i, j) in jobs.iter().enumerate() {
            assert!(j.weight > 0.0, "job {i} has non-positive weight");
            assert!(
                j.rate_cap_per_flow.is_finite() || !j.usage.is_empty(),
                "job {i} is unconstrained"
            );
            for &(r, c) in &j.usage {
                assert!(r < self.capacities.len(), "job {i} uses unknown resource {r}");
                assert!(c > 0.0, "job {i} has non-positive coefficient");
            }
        }

        let mut frozen = vec![false; n];
        // Remaining capacity after subtracting frozen jobs' consumption.
        let mut slack = self.capacities.clone();

        loop {
            // Aggregate unfrozen demand per resource.
            let mut demand = vec![0.0f64; self.capacities.len()];
            let mut any_unfrozen = false;
            for (i, j) in jobs.iter().enumerate() {
                if frozen[i] {
                    continue;
                }
                any_unfrozen = true;
                for &(r, c) in &j.usage {
                    demand[r] += j.weight * c;
                }
            }
            if !any_unfrozen {
                break;
            }

            // Lowest level at which a constraint binds.
            let mut level = f64::INFINITY;
            for (r, &d) in demand.iter().enumerate() {
                if d > 0.0 {
                    level = level.min(slack[r].max(0.0) / d);
                }
            }
            for (i, j) in jobs.iter().enumerate() {
                if !frozen[i] {
                    level = level.min(j.rate_cap_per_flow);
                }
            }
            debug_assert!(level.is_finite(), "some job must be constrained");

            // Decide the freeze set against the pre-round slack/demand,
            // then apply the capacity decrements in one batch (mutating
            // slack mid-decision would mis-freeze jobs that share resources
            // with already-frozen ones).
            let eps = 1e-9 * (1.0 + level.abs());
            let binding_resource: Vec<bool> = demand
                .iter()
                .enumerate()
                .map(|(r, &d)| d > 0.0 && slack[r].max(0.0) / d <= level + eps)
                .collect();
            let mut to_freeze = Vec::new();
            for (i, j) in jobs.iter().enumerate() {
                if frozen[i] {
                    continue;
                }
                let cap_bound = j.rate_cap_per_flow <= level + eps;
                let res_bound = j.usage.iter().any(|&(r, _)| binding_resource[r]);
                if cap_bound || res_bound {
                    to_freeze.push(i);
                }
            }
            let newly_frozen = !to_freeze.is_empty();
            for &i in &to_freeze {
                frozen[i] = true;
                rate[i] = level;
                for &(r, c) in &jobs[i].usage {
                    slack[r] -= jobs[i].weight * c * level;
                }
            }
            debug_assert!(newly_frozen, "progressive filling must freeze a job per round");
            if !newly_frozen {
                // Numerical fallback: freeze everything at the level.
                for (i, j) in jobs.iter().enumerate() {
                    if !frozen[i] {
                        frozen[i] = true;
                        rate[i] = level;
                        for &(r, c) in &j.usage {
                            slack[r] -= j.weight * c * level;
                        }
                    }
                }
                break;
            }
        }
        rate
    }
}

impl Default for FluidSolver {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn job(weight: f64, cap: f64, usage: Vec<(usize, f64)>) -> FluidJobSpec {
        FluidJobSpec { weight, rate_cap_per_flow: cap, usage }
    }

    #[test]
    fn single_job_single_resource() {
        let mut s = FluidSolver::new();
        let r = s.add_resource(100.0);
        let rates = s.rates(&[job(4.0, f64::INFINITY, vec![(r, 1.0)])]);
        // 4 flows share 100 units/s → 25 each.
        assert!((rates[0] - 25.0).abs() < 1e-9);
    }

    #[test]
    fn per_flow_cap_binds_first() {
        let mut s = FluidSolver::new();
        let r = s.add_resource(1000.0);
        let rates = s.rates(&[job(4.0, 10.0, vec![(r, 1.0)])]);
        assert!((rates[0] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn capped_job_leaves_capacity_to_others() {
        let mut s = FluidSolver::new();
        let r = s.add_resource(100.0);
        let jobs = [
            job(1.0, 10.0, vec![(r, 1.0)]),          // capped at 10
            job(1.0, f64::INFINITY, vec![(r, 1.0)]), // takes the rest
        ];
        let rates = s.rates(&jobs);
        assert!((rates[0] - 10.0).abs() < 1e-9);
        assert!((rates[1] - 90.0).abs() < 1e-9);
    }

    #[test]
    fn coefficients_spread_load() {
        // One class striped over 4 servers (coeff 1/4 each), servers of
        // capacity 25 → total 100, flow rate can hit 100.
        let mut s = FluidSolver::new();
        let servers: Vec<_> = (0..4).map(|_| s.add_resource(25.0)).collect();
        let usage: Vec<_> = servers.iter().map(|&r| (r, 0.25)).collect();
        let rates = s.rates(&[job(1.0, f64::INFINITY, usage)]);
        assert!((rates[0] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn bottleneck_fairness_two_links() {
        // Classic max-min example: flows A (link1+link2), B (link1), C
        // (link2). link1 cap 10, link2 cap 20.
        let mut s = FluidSolver::new();
        let l1 = s.add_resource(10.0);
        let l2 = s.add_resource(20.0);
        let jobs = [
            job(1.0, f64::INFINITY, vec![(l1, 1.0), (l2, 1.0)]), // A
            job(1.0, f64::INFINITY, vec![(l1, 1.0)]),            // B
            job(1.0, f64::INFINITY, vec![(l2, 1.0)]),            // C
        ];
        let rates = s.rates(&jobs);
        // A and B split link1 (5 each); C gets link2's remainder (15).
        assert!((rates[0] - 5.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[1] - 5.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[2] - 15.0).abs() < 1e-9, "{rates:?}");
    }

    #[test]
    fn weights_count_flows() {
        let mut s = FluidSolver::new();
        let r = s.add_resource(90.0);
        let jobs = [
            job(2.0, f64::INFINITY, vec![(r, 1.0)]),
            job(1.0, f64::INFINITY, vec![(r, 1.0)]),
        ];
        let rates = s.rates(&jobs);
        // 3 flows total, all equal: 30 per flow.
        assert!((rates[0] - 30.0).abs() < 1e-9);
        assert!((rates[1] - 30.0).abs() < 1e-9);
    }

    proptest! {
        /// Conservation: no resource is overcommitted; every job is either
        /// at its cap or limited by a saturated resource.
        #[test]
        fn feasibility_and_maximality(
            caps in prop::collection::vec(1.0f64..1000.0, 1..6),
            specs in prop::collection::vec(
                (1.0f64..32.0, 0.5f64..500.0, prop::collection::vec((0usize..6, 0.1f64..1.0), 0..4)),
                1..8
            ),
        ) {
            let mut s = FluidSolver::new();
            for &c in &caps { s.add_resource(c); }
            let jobs: Vec<FluidJobSpec> = specs
                .iter()
                .map(|(w, cap, usage)| FluidJobSpec {
                    weight: *w,
                    rate_cap_per_flow: *cap,
                    usage: usage
                        .iter()
                        .map(|&(r, c)| (r % caps.len(), c))
                        .collect(),
                })
                .collect();
            let rates = s.rates(&jobs);
            // Feasibility.
            let mut usage = vec![0.0f64; caps.len()];
            for (j, rate) in jobs.iter().zip(&rates) {
                prop_assert!(*rate <= j.rate_cap_per_flow + 1e-6);
                prop_assert!(*rate >= 0.0);
                for &(r, c) in &j.usage {
                    usage[r] += j.weight * c * rate;
                }
            }
            for (r, (&u, &c)) in usage.iter().zip(&caps).enumerate() {
                prop_assert!(u <= c * (1.0 + 1e-6), "resource {r} overcommitted: {u} > {c}");
            }
            // Maximality: every job is cap-bound or touches a resource with
            // (near-)zero slack.
            for (j, rate) in jobs.iter().zip(&rates) {
                let cap_bound = *rate >= j.rate_cap_per_flow - 1e-6;
                let res_bound = j.usage.iter().any(|&(r, _)| usage[r] >= caps[r] * (1.0 - 1e-6));
                prop_assert!(cap_bound || res_bound, "job neither capped nor bottlenecked");
            }
        }
    }
}
