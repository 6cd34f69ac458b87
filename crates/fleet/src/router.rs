//! The seeded dispatch-time router and its per-replica queue estimator.
//!
//! Replicas execute as whole engine runs (there is no incremental stepping
//! API — that monolithic run is what makes them bit-reproducible), so the
//! router cannot observe true replica state at dispatch time. Instead it
//! maintains a deterministic *estimator* per replica: a single-server
//! queue whose service times are priced from the replica's own roofline
//! cost model ([`crate::Replica::prefill_tokens_per_s`] /
//! [`crate::Replica::decode_tokens_per_s`]) and whose KV residency tracks
//! the dispatched-but-unfinished units. The estimator is an approximation
//! of a batching engine — deliberately so: it exists to *rank* replicas
//! deterministically, not to predict latency, and it is heterogeneity-
//! aware (an A100 replica drains its estimate faster than an L20 one, so
//! load-aware policies send it proportionally more work).

use crate::replica::Replica;
use std::collections::VecDeque;

/// Pluggable dispatch policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterPolicy {
    /// `rr`: cycle through replicas in index order, load-blind.
    RoundRobin,
    /// `jsq`: join the replica with the fewest estimated in-flight units;
    /// ties break to the lowest index.
    ShortestQueue,
    /// `kv`: join the replica with the lowest estimated KV occupancy
    /// *fraction* after admitting this unit (capacity-aware: an 80 GB
    /// replica absorbs more resident tokens than a 48 GB one); ties break
    /// to the lowest index.
    KvPressure,
    /// `affine`: a seeded, capacity-weighted hash pins each session to a
    /// stable *home* replica — so retained session KV is actually hit on
    /// resumed turns — spilling to the shortest queue only when the home's
    /// estimated KV occupancy would exceed the spill threshold.
    SessionAffine,
}

impl RouterPolicy {
    /// All four policies, in presentation order.
    pub const ALL: [RouterPolicy; 4] = [
        RouterPolicy::RoundRobin,
        RouterPolicy::ShortestQueue,
        RouterPolicy::KvPressure,
        RouterPolicy::SessionAffine,
    ];

    /// CLI name (`--router rr|jsq|kv|affine`).
    pub const fn name(self) -> &'static str {
        match self {
            RouterPolicy::RoundRobin => "rr",
            RouterPolicy::ShortestQueue => "jsq",
            RouterPolicy::KvPressure => "kv",
            RouterPolicy::SessionAffine => "affine",
        }
    }

    /// Inverse of [`Self::name`].
    pub fn parse(s: &str) -> Result<Self, String> {
        Ok(match s {
            "rr" => RouterPolicy::RoundRobin,
            "jsq" => RouterPolicy::ShortestQueue,
            "kv" => RouterPolicy::KvPressure,
            "affine" => RouterPolicy::SessionAffine,
            other => return Err(format!("unknown router policy '{other}' (rr|jsq|kv|affine)")),
        })
    }
}

/// Estimated-KV-occupancy fraction above which a session's affine home
/// spills to the shortest queue.
const SPILL_OCCUPANCY: f64 = 0.9;

/// Router configuration: the policy and the seed behind the affine home
/// hash.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterConfig {
    /// Dispatch policy.
    pub policy: RouterPolicy,
    /// Seed of the affine home hash (ignored by the other policies — they
    /// are deterministic without randomness).
    pub seed: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            policy: RouterPolicy::ShortestQueue,
            seed: 0,
        }
    }
}

/// One unit of routable work: a request, or a whole session (sessions
/// route atomically — turn k's arrival depends on turn k−1 finishing
/// inside a replica, so cross-replica turn dispatch is unrepresentable
/// without cluster co-simulation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DispatchUnit {
    /// Stable identity: request id, or session id for session workloads.
    /// The affine home hash keys on this.
    pub key: u64,
    /// Arrival time of the unit (seconds; session start for sessions).
    pub arrival_s: f64,
    /// Prompt tokens the replica must prefill (fresh tokens only, for
    /// sessions with reuse).
    pub prefill_tokens: u64,
    /// Tokens the replica will generate (the router uses the *predictor's*
    /// estimate — ground truth is oracle-only).
    pub decode_tokens: u64,
    /// Peak KV tokens the unit holds while resident.
    pub kv_tokens: u64,
}

/// Per-replica queue estimate: when the replica's estimated backlog
/// drains, and which dispatched units are still estimated in flight.
#[derive(Debug, Clone)]
struct QueueEstimate {
    /// Estimated time the backlog drains (single-server queue).
    busy_until_s: f64,
    /// Estimated (finish time, kv tokens) of in-flight units, finish
    /// non-decreasing (FIFO service order).
    in_flight: VecDeque<(f64, u64)>,
    /// Estimated resident KV of the in-flight units.
    resident_tokens: u64,
    /// The replica's KV pool size.
    capacity_tokens: u64,
    /// Prompt tokens/s the replica prefills at (roofline estimate).
    prefill_rate: f64,
    /// Generated tokens/s the replica decodes at (roofline estimate).
    decode_rate: f64,
}

impl QueueEstimate {
    /// Estimated occupancy numerator after admitting `incoming` tokens.
    fn pressure_after(&self, incoming: u64) -> u64 {
        self.resident_tokens + incoming
    }
}

/// The deterministic dispatcher: feed it units in arrival order, get back
/// replica indices. State is entirely in the estimator, so the same unit
/// sequence always yields the same assignment.
#[derive(Debug, Clone)]
pub struct Router {
    cfg: RouterConfig,
    queues: Vec<QueueEstimate>,
    /// Capacity-weight prefix sums for the affine home hash.
    weight_prefix: Vec<u64>,
    rr_cursor: usize,
    spills: u64,
}

/// SplitMix64 — the seeded hash behind affine home placement. Stable
/// across platforms and good avalanche behaviour for sequential keys.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Router {
    /// Build a router over the given replicas (their queue estimators
    /// start empty).
    ///
    /// # Panics
    /// Panics if `replicas` is empty.
    pub fn new(cfg: RouterConfig, replicas: &[Replica]) -> Self {
        assert!(!replicas.is_empty(), "a fleet needs at least one replica");
        let queues: Vec<QueueEstimate> = replicas
            .iter()
            .map(|r| QueueEstimate {
                busy_until_s: 0.0,
                in_flight: VecDeque::new(),
                resident_tokens: 0,
                capacity_tokens: r.kv_capacity_tokens().max(1),
                prefill_rate: r.prefill_tokens_per_s().max(1e-9),
                decode_rate: r.decode_tokens_per_s().max(1e-9),
            })
            .collect();
        let mut weight_prefix = Vec::with_capacity(queues.len());
        let mut acc = 0u64;
        for q in &queues {
            acc += q.capacity_tokens;
            weight_prefix.push(acc);
        }
        Router {
            cfg,
            queues,
            weight_prefix,
            rr_cursor: 0,
            spills: 0,
        }
    }

    /// Affine units whose home was over the spill threshold at dispatch.
    pub fn spills(&self) -> u64 {
        self.spills
    }

    /// Route one unit; units must be fed in non-decreasing arrival order.
    pub fn dispatch(&mut self, unit: &DispatchUnit) -> usize {
        self.retire(unit.arrival_s);
        let chosen = match self.cfg.policy {
            RouterPolicy::RoundRobin => {
                let c = self.rr_cursor % self.queues.len();
                self.rr_cursor += 1;
                c
            }
            RouterPolicy::ShortestQueue => self.shortest_queue(),
            RouterPolicy::KvPressure => self.lowest_pressure(unit.kv_tokens),
            RouterPolicy::SessionAffine => self.affine(unit),
        };
        self.enqueue(chosen, unit);
        chosen
    }

    /// Drop in-flight units whose estimated finish is in the past.
    fn retire(&mut self, now_s: f64) {
        for q in &mut self.queues {
            while let Some(&(finish_s, kv)) = q.in_flight.front() {
                if finish_s > now_s {
                    break;
                }
                q.in_flight.pop_front();
                q.resident_tokens = q.resident_tokens.saturating_sub(kv);
            }
        }
    }

    /// Admit the unit into the chosen replica's estimate.
    fn enqueue(&mut self, chosen: usize, unit: &DispatchUnit) {
        let q = &mut self.queues[chosen];
        let service_s = unit.prefill_tokens as f64 / q.prefill_rate
            + unit.decode_tokens as f64 / q.decode_rate;
        let start_s = if q.busy_until_s > unit.arrival_s {
            q.busy_until_s
        } else {
            unit.arrival_s
        };
        let finish_s = start_s + service_s;
        q.busy_until_s = finish_s;
        q.in_flight.push_back((finish_s, unit.kv_tokens));
        q.resident_tokens += unit.kv_tokens;
    }

    fn shortest_queue(&self) -> usize {
        // min_by_key keeps the first minimum — lowest index wins ties.
        self.queues
            .iter()
            .enumerate()
            .min_by_key(|(_, q)| q.in_flight.len())
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Lowest estimated occupancy fraction after admission, compared
    /// exactly by cross-multiplying in u128 (no float rounding, no NaN).
    fn lowest_pressure(&self, incoming: u64) -> usize {
        let mut best = 0usize;
        for i in 1..self.queues.len() {
            let (a, b) = (&self.queues[i], &self.queues[best]);
            let lhs = a.pressure_after(incoming) as u128 * b.capacity_tokens as u128;
            let rhs = b.pressure_after(incoming) as u128 * a.capacity_tokens as u128;
            if lhs < rhs {
                best = i;
            }
        }
        best
    }

    /// Capacity-weighted seeded home, with overflow spill to the shortest
    /// queue when the home's estimated occupancy would cross the
    /// threshold.
    fn affine(&mut self, unit: &DispatchUnit) -> usize {
        let total = *self.weight_prefix.last().unwrap_or(&1);
        let ticket = splitmix64(self.cfg.seed ^ unit.key) % total;
        let home = self
            .weight_prefix
            .partition_point(|&prefix| prefix <= ticket);
        let q = &self.queues[home];
        let occupied = q.pressure_after(unit.kv_tokens) as f64;
        if occupied <= SPILL_OCCUPANCY * q.capacity_tokens as f64 {
            home
        } else {
            self.spills += 1;
            self.shortest_queue()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::ReplicaSpec;
    use tdpipe_hw::NodeSpec;
    use tdpipe_model::ModelSpec;

    fn replicas(nodes: &[NodeSpec]) -> Vec<Replica> {
        nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                Replica::new(ReplicaSpec::td(
                    &format!("r{i}"),
                    ModelSpec::llama2_13b(),
                    n.clone(),
                ))
                .unwrap()
            })
            .collect()
    }

    fn unit(key: u64, arrival_s: f64) -> DispatchUnit {
        DispatchUnit {
            key,
            arrival_s,
            prefill_tokens: 512,
            decode_tokens: 256,
            kv_tokens: 768,
        }
    }

    #[test]
    fn policy_names_round_trip() {
        for p in RouterPolicy::ALL {
            assert_eq!(RouterPolicy::parse(p.name()).unwrap(), p);
        }
        assert!(RouterPolicy::parse("p2c").is_err());
    }

    #[test]
    fn round_robin_cycles_in_index_order() {
        let reps = replicas(&[NodeSpec::l20(2), NodeSpec::l20(2), NodeSpec::l20(2)]);
        let mut router = Router::new(
            RouterConfig {
                policy: RouterPolicy::RoundRobin,
                ..RouterConfig::default()
            },
            &reps,
        );
        let got: Vec<usize> = (0..6).map(|i| router.dispatch(&unit(i, 0.0))).collect();
        assert_eq!(got, [0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn shortest_queue_balances_counts_and_breaks_ties_low() {
        let reps = replicas(&[NodeSpec::l20(2), NodeSpec::l20(2)]);
        let mut router = Router::new(
            RouterConfig {
                policy: RouterPolicy::ShortestQueue,
                ..RouterConfig::default()
            },
            &reps,
        );
        // All at t=0: nothing retires, so counts alternate starting at 0.
        let got: Vec<usize> = (0..4).map(|i| router.dispatch(&unit(i, 0.0))).collect();
        assert_eq!(got, [0, 1, 0, 1]);
    }

    #[test]
    fn jsq_retires_drained_backlog_between_arrivals() {
        let reps = replicas(&[NodeSpec::l20(2), NodeSpec::l20(2)]);
        let mut router = Router::new(
            RouterConfig {
                policy: RouterPolicy::ShortestQueue,
                ..RouterConfig::default()
            },
            &reps,
        );
        assert_eq!(router.dispatch(&unit(0, 0.0)), 0);
        // Far in the future the backlog has drained — ties break to 0
        // again instead of mechanically alternating.
        assert_eq!(router.dispatch(&unit(1, 1e6)), 0);
    }

    #[test]
    fn kv_pressure_sends_proportionally_more_to_the_bigger_replica() {
        // A100 (80 GB) vs L20 (48 GB): occupancy-fraction balancing must
        // favour the larger KV pool.
        let reps = replicas(&[NodeSpec::l20(4), NodeSpec::a100(4)]);
        let mut router = Router::new(
            RouterConfig {
                policy: RouterPolicy::KvPressure,
                ..RouterConfig::default()
            },
            &reps,
        );
        let mut counts = [0usize; 2];
        for i in 0..100 {
            counts[router.dispatch(&unit(i, 0.0))] += 1;
        }
        assert!(
            counts[1] > counts[0],
            "A100 should absorb more units: {counts:?}"
        );
        assert!(counts[0] > 0, "L20 is not starved: {counts:?}");
    }

    #[test]
    fn affine_homes_are_sticky_and_seed_dependent() {
        let reps = replicas(&[NodeSpec::l20(4), NodeSpec::l20(4), NodeSpec::l20(4)]);
        let cfg = RouterConfig {
            policy: RouterPolicy::SessionAffine,
            seed: 7,
        };
        let mut a = Router::new(cfg.clone(), &reps);
        let mut b = Router::new(cfg, &reps);
        // The same key routes to the same home in two independent routers
        // (stickiness is a pure function of (seed, key) under no
        // pressure).
        for key in 0..50 {
            assert_eq!(
                a.dispatch(&unit(key, key as f64 * 1e5)),
                b.dispatch(&unit(key, key as f64 * 1e5)),
                "key {key}"
            );
        }
        // A different seed scrambles at least one placement.
        let mut c = Router::new(
            RouterConfig {
                policy: RouterPolicy::SessionAffine,
                seed: 8,
            },
            &reps,
        );
        let mut d = Router::new(
            RouterConfig {
                policy: RouterPolicy::SessionAffine,
                seed: 7,
            },
            &reps,
        );
        let differs = (0..50).any(|key| {
            c.dispatch(&unit(key, key as f64 * 1e5)) != d.dispatch(&unit(key, key as f64 * 1e5))
        });
        assert!(differs, "seed must influence home placement");
    }

    #[test]
    fn affine_spills_when_the_home_is_over_pressure() {
        let reps = replicas(&[NodeSpec::l20(2), NodeSpec::l20(2)]);
        let cfg = RouterConfig {
            policy: RouterPolicy::SessionAffine,
            seed: 1,
        };
        // An idle home takes a unit up to the threshold and spills one
        // token past it.
        let threshold = (SPILL_OCCUPANCY * reps[0].kv_capacity_tokens() as f64) as u64;
        for (kv_tokens, spills) in [(threshold, 0), (threshold + 1, 1)] {
            let mut router = Router::new(cfg.clone(), &reps);
            router.dispatch(&DispatchUnit {
                kv_tokens,
                ..unit(3, 0.0)
            });
            assert_eq!(router.spills(), spills, "{kv_tokens} tokens");
        }
    }

    #[test]
    fn splitmix_is_stable() {
        // Pinned values keep affine placement stable across refactors.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
