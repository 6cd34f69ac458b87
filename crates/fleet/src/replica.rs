//! One serving replica: an engine instance with its own hardware profile,
//! KV plan, and (for session workloads) session-KV retention state.

use std::collections::BTreeMap;
use tdpipe_core::engine::{InfeasibleConfig, RunOutcome, TdPipeEngine};
use tdpipe_core::TdPipeConfig;
use tdpipe_hw::NodeSpec;
use tdpipe_model::ModelSpec;
use tdpipe_predictor::OutputLenPredictor;
use tdpipe_workload::Workload;

/// Everything needed to plan one replica: a label for reports/metrics, the
/// model it serves, the node it runs on, and its engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaSpec {
    /// Stable human-readable identity (`"l20-0"`, `"a100-1"`, …) — becomes
    /// the `replica` label on aggregated metrics.
    pub label: String,
    /// Model served by this replica.
    pub model: ModelSpec,
    /// Hardware profile (device type, count, fabric).
    pub node: NodeSpec,
    /// Engine configuration (recording flags, session reuse, policies).
    pub config: TdPipeConfig,
}

impl ReplicaSpec {
    /// A spec with an explicit configuration.
    pub fn new(label: &str, model: ModelSpec, node: NodeSpec, config: TdPipeConfig) -> Self {
        ReplicaSpec {
            label: label.to_string(),
            model,
            node,
            config,
        }
    }

    /// A spec running the default TD-Pipe configuration.
    pub fn td(label: &str, model: ModelSpec, node: NodeSpec) -> Self {
        Self::new(label, model, node, TdPipeConfig::default())
    }
}

/// A planned replica: the spec plus its engine (cost model + KV plan).
/// Running a workload on a replica is exactly running its engine — a
/// single-replica fleet is bit-identical to a direct engine call.
#[derive(Debug, Clone)]
pub struct Replica {
    spec: ReplicaSpec,
    engine: TdPipeEngine,
}

/// Reference shapes for the dispatch-time service-rate estimates: a
/// 4096-token prefill batch (the engine's default prefill token budget)
/// and a 64-deep decode batch at a mid-trace 512-token context.
const ESTIMATE_PREFILL_SEQS: [u32; 8] = [512; 8];
const ESTIMATE_DECODE_BATCH: usize = 64;
const ESTIMATE_DECODE_CTX: u64 = 512;

impl Replica {
    /// Plan a replica; fails when the model does not fit the node.
    pub fn new(spec: ReplicaSpec) -> Result<Self, InfeasibleConfig> {
        let engine = TdPipeEngine::new(spec.model.clone(), &spec.node, spec.config.clone())?;
        Ok(Replica { spec, engine })
    }

    /// The replica's label.
    pub fn label(&self) -> &str {
        &self.spec.label
    }

    /// The planning spec.
    pub fn spec(&self) -> &ReplicaSpec {
        &self.spec
    }

    /// KV pool size in tokens — the capacity weight the router's
    /// KV-pressure and affine policies use.
    pub fn kv_capacity_tokens(&self) -> u64 {
        self.engine.plan().token_capacity()
    }

    /// Steady-state prefill rate estimate (prompt tokens/s) priced from
    /// this replica's own roofline cost model, so the router's queue
    /// estimator is heterogeneity-aware (an A100 replica drains faster
    /// than an L20 one). The bottleneck stage time is the steady-state
    /// pipeline cadence.
    pub fn prefill_tokens_per_s(&self) -> f64 {
        let tokens: u64 = ESTIMATE_PREFILL_SEQS.iter().map(|&l| l as u64).sum();
        let step_s = self
            .engine
            .cost()
            .prefill_job(&ESTIMATE_PREFILL_SEQS)
            .bottleneck()
            .max(1e-12);
        tokens as f64 / step_s
    }

    /// Steady-state decode rate estimate (generated tokens/s) at the
    /// reference batch shape.
    pub fn decode_tokens_per_s(&self) -> f64 {
        let step_s = self
            .engine
            .cost()
            .decode_job(
                ESTIMATE_DECODE_BATCH,
                ESTIMATE_DECODE_BATCH as u64 * ESTIMATE_DECODE_CTX,
            )
            .bottleneck()
            .max(1e-12);
        ESTIMATE_DECODE_BATCH as f64 / step_s
    }

    /// Run one sub-workload on this replica's engine (on the simulator).
    /// An empty sub-trace (a starved replica) completes immediately with a
    /// zero-request report — the fleet aggregation renders it as `n/a`.
    pub fn run<P: OutputLenPredictor + ?Sized>(
        &self,
        work: Workload<'_>,
        predictor: &P,
    ) -> RunOutcome {
        let e = &self.engine;
        e.try_run(work, predictor, e.sim_plane())
            .unwrap_or_else(|err| unreachable!("the simulator cannot fail: {err}"))
    }
}

/// Parse a heterogeneous pool spec like `"l20:2,a100:2"` into labelled
/// nodes of `gpus` devices each. A bare device name means one replica;
/// labels number each device class from zero (`l20-0`, `l20-1`, `a100-0`).
pub fn parse_pool(spec: &str, gpus: u32) -> Result<Vec<(String, NodeSpec)>, String> {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut out = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            return Err(format!("--pool '{spec}': empty entry"));
        }
        let (kind, count) = match part.split_once(':') {
            Some((k, c)) => (
                k,
                c.parse::<usize>()
                    .map_err(|_| format!("--pool '{part}': bad replica count '{c}'"))?,
            ),
            None => (part, 1),
        };
        if count == 0 {
            return Err(format!("--pool '{part}': replica count must be >= 1"));
        }
        let node = NodeSpec::by_name(kind, gpus)
            .ok_or_else(|| format!("--pool: unknown device '{kind}' ({})", NodeSpec::NAMES))?;
        for _ in 0..count {
            let k = counts.entry(kind.to_string()).or_insert(0);
            out.push((format!("{kind}-{k}"), node.clone()));
            *k += 1;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdpipe_predictor::OraclePredictor;
    use tdpipe_workload::{ShareGptLikeConfig, Trace};

    #[test]
    fn pool_parsing_labels_and_counts() {
        let pool = parse_pool("l20:2,a100:1", 4).unwrap();
        let labels: Vec<&str> = pool.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, ["l20-0", "l20-1", "a100-0"]);
        assert_eq!(pool[0].1.gpu.name, "L20");
        assert_eq!(pool[2].1.gpu.name, "A100");
        assert_eq!(pool[2].1.num_gpus, 4);
        // Repeated classes keep numbering across entries.
        let again = parse_pool("l20,l20:2", 2).unwrap();
        let labels: Vec<&str> = again.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, ["l20-0", "l20-1", "l20-2"]);
        assert!(parse_pool("h100:2", 4).is_err());
        assert!(parse_pool("l20:0", 4).is_err());
        assert!(parse_pool("l20:x", 4).is_err());
        assert!(parse_pool("", 4).is_err());
    }

    #[test]
    fn heterogeneous_rate_estimates_order_by_hardware() {
        let l20 = Replica::new(ReplicaSpec::td(
            "l20-0",
            ModelSpec::llama2_13b(),
            NodeSpec::l20(4),
        ))
        .unwrap();
        let a100 = Replica::new(ReplicaSpec::td(
            "a100-0",
            ModelSpec::llama2_13b(),
            NodeSpec::a100(4),
        ))
        .unwrap();
        assert!(
            a100.prefill_tokens_per_s() > l20.prefill_tokens_per_s(),
            "A100 prefill must outpace L20"
        );
        assert!(
            a100.decode_tokens_per_s() > l20.decode_tokens_per_s(),
            "A100 decode must outpace L20"
        );
        assert!(
            a100.kv_capacity_tokens() > l20.kv_capacity_tokens(),
            "80 GB devices hold more KV than 48 GB ones"
        );
    }

    #[test]
    fn empty_subworkload_runs_to_a_zero_request_report() {
        let replica = Replica::new(ReplicaSpec::td(
            "solo",
            ModelSpec::llama2_13b(),
            NodeSpec::l20(2),
        ))
        .unwrap();
        let empty = Trace::new(Vec::new());
        let work = Workload::offline(&empty);
        assert!(work.is_empty());
        let out = replica.run(work, &OraclePredictor);
        assert_eq!(out.report.num_requests, 0);
        assert_eq!(out.report.makespan, 0.0);
        assert!(out.report.latency.is_none());
        assert!(out.report.to_string().contains("n/a"), "starved replicas render n/a");
    }

    #[test]
    fn replica_run_is_the_engine_run() {
        let trace = ShareGptLikeConfig::small(16, 3).generate();
        let spec = ReplicaSpec::td("solo", ModelSpec::llama2_13b(), NodeSpec::l20(2));
        let replica = Replica::new(spec.clone()).unwrap();
        let via_replica = replica.run(Workload::offline(&trace), &OraclePredictor);
        let direct = TdPipeEngine::new(spec.model, &spec.node, spec.config)
            .unwrap()
            .run(&trace, &OraclePredictor);
        assert_eq!(via_replica.report, direct.report);
    }
}
