//! The cluster event loop: split one arrival stream across replicas,
//! execute the sub-workloads on host cores, aggregate one fleet report.
//!
//! The loop is a deterministic three-act play:
//!
//! 1. **Route** (serial, pure): feed every dispatch unit — a request, or a
//!    whole session — through the seeded [`Router`] in arrival order.
//! 2. **Execute** (parallel, independent): each replica runs its
//!    self-contained sub-workload on its own engine via the parallel map
//!    the bench sweeps share
//!    ([`tdpipe_core::parallel::map_indexed_parallel`]) — results come
//!    back in replica order regardless of thread count, which is what
//!    makes serial and parallel fleets byte-identical.
//! 3. **Aggregate** (serial, pure): makespan is the max over replicas,
//!    goodput counts SLO-attained completions, metrics merge under a
//!    `replica` label.

use crate::replica::{Replica, ReplicaWorkload};
use crate::report::{
    fleet_headline_metrics, merged_replica_metrics, ttft_attainment, FleetReport, ReplicaReport,
    SloSpec,
};
use crate::router::{DispatchUnit, Router, RouterConfig};
use tdpipe_core::engine::RunOutcome;
use tdpipe_metrics::MetricsSnapshot;
use tdpipe_predictor::OutputLenPredictor;
use tdpipe_workload::{SessionTrace, Trace};

/// Fleet-level configuration: how to route, and what SLO goodput counts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetConfig {
    /// Router policy, seed, and spill threshold.
    pub router: RouterConfig,
    /// The TTFT target behind `goodput` and `slo_attainment`.
    pub slo: SloSpec,
}

/// The cluster's offered workload, borrowed from the caller.
#[derive(Debug, Clone, Copy)]
pub enum FleetWorkload<'a> {
    /// Open-loop requests. `arrivals` is per-request and non-decreasing,
    /// or empty for the paper's offline all-at-t0 setting (and stays
    /// empty per replica, keeping single-replica fleets bit-identical to
    /// `TdPipeEngine::run`).
    Requests {
        trace: &'a Trace,
        arrivals: &'a [f64],
    },
    /// Closed-loop sessions; each session routes atomically.
    Sessions(&'a SessionTrace),
}

impl FleetWorkload<'_> {
    /// Total requests (turns) offered to the fleet.
    pub fn len(&self) -> usize {
        match self {
            FleetWorkload::Requests { trace, .. } => trace.len(),
            FleetWorkload::Sessions(st) => st.len(),
        }
    }

    /// Whether the fleet has nothing to do.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Everything a fleet run produces: the aggregated report, each replica's
/// full engine outcome (in pool order), and the merged metrics snapshot
/// (per-replica engine metrics under a `replica` label, plus the
/// `fleet_*` headline entries).
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// The cluster rollup.
    pub report: FleetReport,
    /// Per-replica engine outcomes, index-aligned with the pool.
    pub outcomes: Vec<RunOutcome>,
    /// Replica-labelled merge of every replica's snapshot + fleet
    /// headline metrics.
    pub metrics: MetricsSnapshot,
}

/// The routing pre-pass: dispatch units in arrival order, return each
/// replica's self-contained sub-workload plus per-replica unit counts,
/// the spill count, and the offered arrival span.
fn split_workload<P: OutputLenPredictor + ?Sized>(
    replicas: &[Replica],
    cfg: &RouterConfig,
    workload: &FleetWorkload<'_>,
    predictor: &P,
) -> (Vec<ReplicaWorkload>, Vec<usize>, u64, f64) {
    let mut router = Router::new(cfg.clone(), replicas);
    let n = replicas.len();
    let mut span = (f64::INFINITY, f64::NEG_INFINITY);
    let mut note = |t: f64| {
        span.0 = span.0.min(t);
        span.1 = span.1.max(t);
    };
    let works: Vec<ReplicaWorkload>;
    let mut assigned = vec![0usize; n];
    match workload {
        FleetWorkload::Requests { trace, arrivals } => {
            assert!(
                arrivals.is_empty() || arrivals.len() == trace.len(),
                "arrivals must be empty or aligned with the trace"
            );
            let mut indices: Vec<Vec<usize>> = vec![Vec::new(); n];
            for (i, r) in trace.requests().iter().enumerate() {
                let arrival_s = arrivals.get(i).copied().unwrap_or(0.0);
                note(arrival_s);
                let predicted = predictor.predict(r) as u64;
                let unit = DispatchUnit {
                    key: r.id.0,
                    arrival_s,
                    prefill_tokens: r.input_len as u64,
                    decode_tokens: predicted,
                    kv_tokens: r.input_len as u64 + predicted,
                };
                let chosen = router.dispatch(&unit);
                indices[chosen].push(i);
                assigned[chosen] += 1;
            }
            works = indices
                .into_iter()
                .map(|idx| ReplicaWorkload::Requests {
                    trace: trace.subset(&idx),
                    // An offline workload stays offline per replica.
                    arrivals: if arrivals.is_empty() {
                        Vec::new()
                    } else {
                        idx.iter().map(|&i| arrivals[i]).collect()
                    },
                })
                .collect();
        }
        FleetWorkload::Sessions(st) => {
            // Per-session totals for the dispatch unit: fresh prefill
            // work, predicted decode work, and the peak transcript KV.
            let reqs = st.trace.requests();
            let mut prefill = vec![0u64; st.num_sessions];
            let mut decode = vec![0u64; st.num_sessions];
            let mut kv = vec![0u64; st.num_sessions];
            for (i, t) in st.turns.iter().enumerate() {
                let s = t.session as usize;
                let predicted = predictor.predict(&reqs[i]) as u64;
                prefill[s] += t.fresh_tokens(reqs[i].input_len) as u64;
                decode[s] += predicted;
                // Turns grow monotonically, so the last turn's transcript
                // is the session's peak residency.
                kv[s] = reqs[i].input_len as u64 + predicted;
            }
            let mut sessions: Vec<Vec<u32>> = vec![Vec::new(); n];
            for s in 0..st.num_sessions {
                note(st.start_arrivals[s]);
                let unit = DispatchUnit {
                    key: s as u64,
                    arrival_s: st.start_arrivals[s],
                    prefill_tokens: prefill[s],
                    decode_tokens: decode[s],
                    kv_tokens: kv[s],
                };
                let chosen = router.dispatch(&unit);
                sessions[chosen].push(s as u32);
                assigned[chosen] += 1;
            }
            works = sessions
                .into_iter()
                .map(|ids| ReplicaWorkload::Sessions(st.subset_sessions(&ids)))
                .collect();
        }
    }
    let offered_span = if span.1 > span.0 { span.1 - span.0 } else { 0.0 };
    (works, assigned, router.spills(), offered_span)
}

/// Run the fleet with a worker thread per host core.
pub fn run_fleet<P: OutputLenPredictor + Sync + ?Sized>(
    replicas: &[Replica],
    workload: &FleetWorkload<'_>,
    cfg: &FleetConfig,
    predictor: &P,
) -> FleetOutcome {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    run_fleet_with_threads(replicas, workload, cfg, predictor, threads)
}

/// Run the fleet one replica at a time — the determinism reference the
/// parallel path must match byte-for-byte.
pub fn run_fleet_serial<P: OutputLenPredictor + Sync + ?Sized>(
    replicas: &[Replica],
    workload: &FleetWorkload<'_>,
    cfg: &FleetConfig,
    predictor: &P,
) -> FleetOutcome {
    run_fleet_with_threads(replicas, workload, cfg, predictor, 1)
}

/// [`run_fleet`] with an explicit worker count (the determinism tests
/// sweep this).
pub fn run_fleet_with_threads<P: OutputLenPredictor + Sync + ?Sized>(
    replicas: &[Replica],
    workload: &FleetWorkload<'_>,
    cfg: &FleetConfig,
    predictor: &P,
    threads: usize,
) -> FleetOutcome {
    let (works, assigned, spills, offered_span) =
        split_workload(replicas, &cfg.router, workload, predictor);
    // Execute: one engine run per replica, scattered back in pool order.
    let outcomes: Vec<RunOutcome> = tdpipe_core::parallel::map_indexed_parallel(
        replicas,
        threads,
        |i, replica: &Replica| replica.run(&works[i], predictor),
    );
    // Aggregate.
    let mut num_requests = 0usize;
    let mut makespan = 0.0f64;
    let mut input_tokens = 0u64;
    let mut output_tokens = 0u64;
    let mut recomputed_tokens = 0u64;
    let mut attained = 0.0f64;
    let mut replica_reports = Vec::with_capacity(replicas.len());
    for (i, out) in outcomes.iter().enumerate() {
        let r = &out.report;
        num_requests += r.num_requests;
        makespan = makespan.max(r.makespan);
        input_tokens += r.input_tokens;
        output_tokens += r.output_tokens;
        recomputed_tokens += r.recomputed_tokens;
        let slo_attainment = match &r.latency {
            Some(l) => ttft_attainment(l, cfg.slo.ttft_s),
            None => 0.0,
        };
        attained += slo_attainment * r.num_requests as f64;
        replica_reports.push(ReplicaReport {
            label: replicas[i].label().to_string(),
            assigned: assigned[i],
            report: r.clone(),
            slo_attainment,
        });
    }
    let report = FleetReport {
        policy: cfg.router.policy.name().to_string(),
        seed: cfg.router.seed,
        num_replicas: replicas.len(),
        num_requests,
        makespan,
        input_tokens,
        output_tokens,
        recomputed_tokens,
        offered_rate: if offered_span > 0.0 {
            workload.len() as f64 / offered_span
        } else {
            0.0
        },
        goodput: if makespan > 0.0 {
            attained / makespan
        } else {
            0.0
        },
        slo_attainment: if num_requests > 0 {
            attained / num_requests as f64
        } else {
            0.0
        },
        spills,
        replicas: replica_reports,
    };
    let metrics = merged_replica_metrics(
        outcomes
            .iter()
            .enumerate()
            .map(|(i, out)| (replicas[i].label().to_string(), out.metrics.clone()))
            .collect(),
    )
    .merged(fleet_headline_metrics(&report));
    FleetOutcome {
        report,
        outcomes,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::{parse_pool, ReplicaSpec};
    use crate::router::RouterPolicy;
    use tdpipe_core::engine::TdPipeEngine;
    use tdpipe_hw::NodeSpec;
    use tdpipe_model::ModelSpec;
    use tdpipe_predictor::OraclePredictor;
    use tdpipe_workload::{ArrivalProcess, SessionConfig, ShareGptLikeConfig};

    fn pool(spec: &str) -> Vec<Replica> {
        parse_pool(spec, 2)
            .unwrap()
            .into_iter()
            .map(|(label, node)| {
                Replica::new(ReplicaSpec::td(&label, ModelSpec::llama2_13b(), node)).unwrap()
            })
            .collect()
    }

    fn fleet_cfg(policy: RouterPolicy) -> FleetConfig {
        FleetConfig {
            router: RouterConfig {
                policy,
                seed: 42,
                ..RouterConfig::default()
            },
            slo: SloSpec::default(),
        }
    }

    #[test]
    fn single_replica_fleet_is_bit_identical_to_the_engine() {
        let trace = ShareGptLikeConfig::small(40, 3).generate();
        let replicas = pool("l20:1");
        for policy in RouterPolicy::ALL {
            let fleet = run_fleet_serial(
                &replicas,
                &FleetWorkload::Requests {
                    trace: &trace,
                    arrivals: &[],
                },
                &fleet_cfg(policy),
                &OraclePredictor,
            );
            let direct = TdPipeEngine::new(
                ModelSpec::llama2_13b(),
                &NodeSpec::l20(2),
                Default::default(),
            )
            .unwrap()
            .run(&trace, &OraclePredictor);
            assert_eq!(
                fleet.outcomes[0].report, direct.report,
                "policy {} must not perturb a 1-replica fleet",
                policy.name()
            );
            assert_eq!(fleet.report.num_requests, trace.len());
            assert_eq!(fleet.report.makespan, direct.report.makespan);
        }
    }

    #[test]
    fn every_request_lands_on_exactly_one_replica() {
        let trace = ShareGptLikeConfig::small(120, 5).generate();
        let arrivals = ArrivalProcess::Poisson {
            rate_per_s: 20.0,
            seed: 9,
        }
        .sample(trace.len());
        let replicas = pool("l20:2,a100:1");
        for policy in RouterPolicy::ALL {
            let fleet = run_fleet_serial(
                &replicas,
                &FleetWorkload::Requests {
                    trace: &trace,
                    arrivals: &arrivals,
                },
                &fleet_cfg(policy),
                &OraclePredictor,
            );
            assert_eq!(
                fleet.report.num_requests,
                trace.len(),
                "policy {}",
                policy.name()
            );
            let assigned: usize = fleet.report.replicas.iter().map(|r| r.assigned).sum();
            assert_eq!(assigned, trace.len());
            assert!(fleet.report.offered_rate > 0.0, "poisson arrivals span > 0");
            assert!(fleet.report.makespan > 0.0);
            // Goodput cannot exceed raw completion throughput.
            assert!(
                fleet.report.goodput
                    <= fleet.report.num_requests as f64 / fleet.report.makespan + 1e-9
            );
        }
    }

    #[test]
    fn serial_and_parallel_fleets_agree_bytewise() {
        let trace = ShareGptLikeConfig::small(60, 7).generate();
        let arrivals = ArrivalProcess::Poisson {
            rate_per_s: 10.0,
            seed: 3,
        }
        .sample(trace.len());
        let replicas = pool("l20:1,a100:1");
        let workload = FleetWorkload::Requests {
            trace: &trace,
            arrivals: &arrivals,
        };
        let cfg = fleet_cfg(RouterPolicy::KvPressure);
        let serial = run_fleet_serial(&replicas, &workload, &cfg, &OraclePredictor);
        for threads in [2, 8] {
            let parallel =
                run_fleet_with_threads(&replicas, &workload, &cfg, &OraclePredictor, threads);
            assert_eq!(
                serde_json::to_string(&serial.report).unwrap(),
                serde_json::to_string(&parallel.report).unwrap(),
                "{threads} threads"
            );
            assert_eq!(serial.metrics, parallel.metrics);
        }
    }

    #[test]
    fn sessions_route_atomically_across_the_fleet() {
        let st = SessionConfig::small(40, 21).generate();
        let replicas = pool("l20:1,a100:1");
        let fleet = run_fleet_serial(
            &replicas,
            &FleetWorkload::Sessions(&st),
            &fleet_cfg(RouterPolicy::SessionAffine),
            &OraclePredictor,
        );
        // Every turn of every session completed somewhere, exactly once.
        assert_eq!(fleet.report.num_requests, st.len());
        let assigned: usize = fleet.report.replicas.iter().map(|r| r.assigned).sum();
        assert_eq!(assigned, st.num_sessions, "sessions are the routing unit");
        // The merged metrics carry the replica label per entry.
        if !fleet.metrics.metrics.is_empty() {
            assert!(fleet
                .metrics
                .metrics
                .iter()
                .all(|m| m.labels.contains_key("replica") || m.name.starts_with("fleet_")));
        }
    }

    #[test]
    fn starved_replicas_aggregate_cleanly() {
        // Affine with spill_occupancy 1e9 never spills; with few sessions
        // and 3 replicas, some replica is plausibly starved — and even if
        // not, a zero-request replica must aggregate to finite numbers,
        // which the empty-pool case below forces deterministically.
        let st = SessionConfig::small(2, 33).generate();
        let replicas = pool("l20:3");
        let fleet = run_fleet_serial(
            &replicas,
            &FleetWorkload::Sessions(&st),
            &fleet_cfg(RouterPolicy::SessionAffine),
            &OraclePredictor,
        );
        assert!(fleet.report.makespan.is_finite());
        assert!(fleet.report.goodput.is_finite());
        assert!(fleet.report.slo_attainment.is_finite());
        let text = fleet.report.to_string();
        assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
        // At most 2 sessions over 3 replicas: someone is starved.
        assert!(
            fleet.report.replicas.iter().any(|r| r.assigned == 0),
            "2 sessions cannot cover 3 replicas"
        );
    }
}
