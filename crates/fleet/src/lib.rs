//! Cluster-scale serving: a deterministic router dispatching one arrival
//! stream across N TD-Pipe replicas.
//!
//! The paper serves one pipeline node; the ROADMAP's north star is a
//! *fleet* of them behind a router. This crate adds that layer without
//! giving up the repo's golden contract — byte-identical results across
//! runs, thread counts, and serial-vs-parallel execution:
//!
//! * [`Replica`] wraps one engine instance (`ModelSpec` + `NodeSpec` +
//!   `TdPipeConfig`): its own KV plan, cost model, and — for session
//!   workloads — its own session-KV retention pool. Heterogeneous pools
//!   mix L20 and A100 profiles freely ([`parse_pool`]).
//! * [`Router`] is a seeded, dispatch-time event loop: requests (or whole
//!   sessions — a turn's arrival depends on its predecessor finishing
//!   *inside* a replica, so sessions route atomically) are assigned at
//!   their arrival instant under a pluggable [`RouterPolicy`]
//!   (round-robin, join-shortest-queue, KV-pressure-aware, and
//!   session-affine with overflow spill). Load-aware policies consult a
//!   per-replica queue *estimator* priced from each replica's own roofline
//!   cost model — the router never peeks inside an engine run, which is
//!   what keeps routing a pure, deterministic pre-pass.
//! * [`run_fleet_with_threads`] executes the per-replica sub-workloads on
//!   host cores with the lock-free parallel map the bench sweeps share
//!   (`tdpipe_core::parallel::map_indexed_parallel`) and aggregates the
//!   outcomes into a [`FleetReport`]: fleet makespan is the **max** over
//!   replicas (they run concurrently), goodput counts only SLO-attained
//!   requests, and per-replica metrics snapshots merge under a `replica`
//!   label.
//!
//! The offered workload is the one `tdpipe_workload::Workload` every
//! engine runs (re-exported as [`FleetWorkload`]), and a replica runs its
//! share through the same type ([`Replica::run`]).

#![forbid(unsafe_code)]

pub mod fleet;
pub mod replica;
pub mod report;
pub mod router;

pub use fleet::{run_fleet_with_threads, FleetConfig, FleetOutcome, FleetWorkload};
pub use replica::{parse_pool, Replica, ReplicaSpec};
pub use report::{
    fleet_headline_metrics, merged_replica_metrics, ttft_attainment, FleetReport, ReplicaReport,
    SloSpec,
};
pub use router::{DispatchUnit, Router, RouterConfig, RouterPolicy};
