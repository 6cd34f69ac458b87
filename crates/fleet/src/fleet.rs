//! The cluster event loop: split one arrival stream across replicas,
//! execute the sub-workloads on host cores, aggregate one fleet report.
//!
//! The loop is a deterministic three-act play:
//!
//! 1. **Route** (serial, pure): feed every dispatch unit — a request, or a
//!    whole session — through the seeded [`Router`] in arrival order.
//! 2. **Execute** (parallel, independent): each replica runs its share —
//!    [`Workload::Rows`] of the offered workload, the type every engine
//!    runs — on its own engine via the parallel map
//!    the bench sweeps share
//!    ([`tdpipe_core::parallel::map_indexed_parallel`]) — results come
//!    back in replica order regardless of thread count, which is what
//!    makes serial and parallel fleets byte-identical.
//! 3. **Aggregate** (serial, pure): makespan is the max over replicas,
//!    goodput counts SLO-attained completions, metrics merge under a
//!    `replica` label.

use crate::replica::Replica;
use crate::report::{
    fleet_headline_metrics, merged_replica_metrics, ttft_attainment, FleetReport, ReplicaReport,
    SloSpec,
};
use crate::router::{DispatchUnit, Router, RouterConfig};
use tdpipe_core::engine::RunOutcome;
use tdpipe_metrics::MetricsSnapshot;
use tdpipe_predictor::OutputLenPredictor;
use tdpipe_workload::{Rows, Workload};

/// Fleet-level configuration: how to route, and what SLO goodput counts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetConfig {
    /// Router policy and seed (the affine spill threshold is a fixed
    /// constant of the router).
    pub router: RouterConfig,
    /// The TTFT target behind `goodput` and `slo_attainment`.
    pub slo: SloSpec,
}

/// The cluster's offered workload: the one [`Workload`], under the name
/// the fleet API has always used.
pub use tdpipe_workload::Workload as FleetWorkload;

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
/// replica's share of the offered workload (in pool order) plus
/// per-replica unit counts, the spill count, and the offered arrival span.
/// A share is rows of the offered workload, read through it, not a copy:
/// 4 bytes per request plus, for sessions, 12 per session.
fn split_workload<'w, P: OutputLenPredictor + ?Sized>(
    replicas: &[Replica],
    cfg: &RouterConfig,
    workload: &Workload<'w>,
    predictor: &P,
) -> (Vec<Rows<'w>>, Vec<usize>, u64, f64) {
    let mut router = Router::new(cfg.clone(), replicas);
    let n = replicas.len();
    let mut span = (f64::INFINITY, f64::NEG_INFINITY);
    let mut note = |t: f64| {
        span.0 = span.0.min(t);
        span.1 = span.1.max(t);
    };
    let mut assigned = vec![0usize; n];
    let shares = if !workload.is_sessions() {
        if let Workload::Requests { trace, arrivals } = *workload {
            assert!(
                arrivals.is_empty() || arrivals.len() == trace.len(),
                "arrivals must be empty or aligned with the trace"
            );
        }
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); n];
        for i in 0..workload.len() {
            let r = workload.request(i);
            // An offline workload (no arrivals) stays offline per replica.
            let arrival_s = workload.arrival(i);
            note(arrival_s);
            let predicted = predictor.predict(r) as u64;
            let unit = DispatchUnit {
                key: workload.id(i).0,
                arrival_s,
                prefill_tokens: r.input_len as u64,
                decode_tokens: predicted,
                kv_tokens: r.input_len as u64 + predicted,
            };
            let chosen = router.dispatch(&unit);
            rows[chosen].push(i as u32);
            assigned[chosen] += 1;
        }
        rows.into_iter().map(|rows| Rows::requests(*workload, rows)).collect()
    } else {
        if let Workload::Sessions(st) = workload {
            st.check_invariants();
        }
        // Per-session totals for the dispatch unit: fresh prefill work,
        // predicted decode work, and the peak transcript KV.
        let num_sessions = workload.num_sessions();
        let mut prefill = vec![0u64; num_sessions];
        let mut decode = vec![0u64; num_sessions];
        let mut kv = vec![0u64; num_sessions];
        for i in 0..workload.len() {
            let Some(t) = workload.session_turn(i) else { continue };
            let r = workload.request(i);
            let s = t.session as usize;
            let predicted = predictor.predict(r) as u64;
            prefill[s] += t.fresh_tokens(r.input_len) as u64;
            decode[s] += predicted;
            // Turns grow monotonically, so the last turn's transcript is
            // the session's peak residency.
            kv[s] = r.input_len as u64 + predicted;
        }
        let mut sessions: Vec<Vec<u32>> = vec![Vec::new(); n];
        for s in 0..num_sessions {
            // Session `s`'s turn 0 is row `s`.
            let arrival_s = workload.arrival(s);
            note(arrival_s);
            let unit = DispatchUnit {
                key: s as u64,
                arrival_s,
                prefill_tokens: prefill[s],
                decode_tokens: decode[s],
                kv_tokens: kv[s],
            };
            let chosen = router.dispatch(&unit);
            sessions[chosen].push(s as u32);
            assigned[chosen] += 1;
        }
        sessions.iter().map(|ids| Rows::sessions(*workload, ids)).collect()
    };
    let offered_span = if span.1 > span.0 { span.1 - span.0 } else { 0.0 };
    (shares, assigned, router.spills(), offered_span)
}

/// Route `workload` across `replicas`, run every replica's share on
/// `threads` host threads, and aggregate one fleet report. The outcome is
/// byte-identical whatever the thread count: `threads = 1` is the serial
/// determinism reference the parallel runs must match.
pub fn run_fleet_with_threads<P: OutputLenPredictor + Sync + ?Sized>(
    replicas: &[Replica],
    workload: &Workload<'_>,
    cfg: &FleetConfig,
    predictor: &P,
    threads: usize,
) -> FleetOutcome {
    let (shares, assigned, spills, offered_span) =
        split_workload(replicas, &cfg.router, workload, predictor);
    // Execute: one engine run per replica, scattered back in pool order.
    let outcomes: Vec<RunOutcome> = tdpipe_core::parallel::map_indexed_parallel(
        replicas,
        threads,
        |i, replica: &Replica| replica.run(Workload::Rows(&shares[i]), predictor),
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
            let fleet = run_fleet_with_threads(
                &replicas,
                &Workload::offline(&trace),
                &fleet_cfg(policy),
                &OraclePredictor,
                1,
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
            let fleet = run_fleet_with_threads(
                &replicas,
                &Workload::Requests {
                    trace: &trace,
                    arrivals: &arrivals,
                },
                &fleet_cfg(policy),
                &OraclePredictor,
                1,
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

    /// Serial and parallel runs of `workload` agree byte for byte, and
    /// every replica's phase log comes back at its exact size.
    fn assert_thread_count_invariant(workload: &Workload<'_>, policy: RouterPolicy) {
        let replicas = pool("l20:1,a100:1");
        let cfg = fleet_cfg(policy);
        let serial = run_fleet_with_threads(&replicas, workload, &cfg, &OraclePredictor, 1);
        for threads in [1, 2, 8] {
            let parallel =
                run_fleet_with_threads(&replicas, workload, &cfg, &OraclePredictor, threads);
            assert_eq!(
                serde_json::to_string(&serial.report).unwrap(),
                serde_json::to_string(&parallel.report).unwrap(),
                "{threads} threads"
            );
            assert_eq!(serial.metrics, parallel.metrics, "{threads} threads");
            for out in &parallel.outcomes {
                assert!(!out.phases.is_empty(), "every replica got work");
                assert_eq!(out.phases.capacity(), out.phases.len(), "{threads} threads");
            }
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
        let workload = Workload::Requests {
            trace: &trace,
            arrivals: &arrivals,
        };
        assert_thread_count_invariant(&workload, RouterPolicy::KvPressure);
    }

    #[test]
    fn serial_and_parallel_session_fleets_agree_bytewise() {
        let st = SessionConfig::small(60, 7).generate();
        let workload = Workload::Sessions(&st);
        assert_thread_count_invariant(&workload, RouterPolicy::SessionAffine);
    }

    #[test]
    fn sessions_route_atomically_across_the_fleet() {
        let st = SessionConfig::small(40, 21).generate();
        let replicas = pool("l20:1,a100:1");
        let fleet = run_fleet_with_threads(
            &replicas,
            &Workload::Sessions(&st),
            &fleet_cfg(RouterPolicy::SessionAffine),
            &OraclePredictor,
            1,
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
        // Affine routing of 2 sessions over 3 replicas starves one, and a
        // zero-request replica must aggregate to finite numbers.
        let st = SessionConfig::small(2, 33).generate();
        let replicas = pool("l20:3");
        let fleet = run_fleet_with_threads(
            &replicas,
            &Workload::Sessions(&st),
            &fleet_cfg(RouterPolicy::SessionAffine),
            &OraclePredictor,
            1,
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
