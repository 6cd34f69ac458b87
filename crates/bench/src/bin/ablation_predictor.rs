//! Extension ablation: how much predictor quality does the AI-based
//! greedy prefill actually need?
//!
//! The paper evaluates one predictor (BERT buckets). This sweep runs the
//! full TD-Pipe engine under predictors of decreasing quality — oracle,
//! softmax classifier, Gaussian NB, training-mean, and constant-1 — and
//! reports throughput, recompute waste, and phase count. The interesting
//! finding the paper's Fig. 14 hints at: what matters is the *summed*
//! prediction being unbiased, so even the mean predictor does well, while
//! a systematically-underestimating predictor pays in recompute.

use serde::Serialize;
use tdpipe_bench::{num_requests, paper_trace, save_json};
use tdpipe_core::{TdPipeConfig, TdPipeEngine};
use tdpipe_hw::NodeSpec;
use tdpipe_model::ModelSpec;
use tdpipe_predictor::classifier::TrainConfig;
use tdpipe_predictor::{
    eval, LengthPredictor, MeanPredictor, NbLengthPredictor, OraclePredictor, OutputLenPredictor,
};
use tdpipe_workload::{Request, ShareGptLikeConfig};

/// Always predicts one token: the pathological underestimator.
struct ConstantOne;
impl OutputLenPredictor for ConstantOne {
    fn predict(&self, _r: &Request) -> u32 {
        1
    }
}

/// Always predicts the maximum: the pathological overestimator.
struct ConstantMax;
impl OutputLenPredictor for ConstantMax {
    fn predict(&self, _r: &Request) -> u32 {
        2048
    }
}

#[derive(Serialize)]
struct Row {
    combo: String,
    predictor: String,
    accuracy: Option<f64>,
    throughput_total: f64,
    recompute_overhead: f64,
    phase_switches: u32,
}

fn main() {
    let trace = paper_trace();
    let hist = ShareGptLikeConfig::small(30_000, 7).generate();
    let splits = hist.split(7);
    let lr = LengthPredictor::train(&splits.train, &TrainConfig::default());
    let nb = NbLengthPredictor::train(&splits.train);
    let mean = MeanPredictor::train(&splits.train);

    let lr_acc = eval::accuracy(&lr, &splits.test);
    let nb_acc = {
        let correct = splits
            .test
            .requests()
            .iter()
            .filter(|r| nb.predict_bucket(r) == nb.true_bucket(r))
            .count();
        correct as f64 / splits.test.len() as f64
    };

    println!(
        "Predictor-quality ablation for Algorithm 1 ({} requests)",
        num_requests()
    );
    println!("classifier accuracies: softmax {lr_acc:.4}, naive-bayes {nb_acc:.4}\n");

    let mut rows = Vec::new();
    for (combo, model, node) in [
        ("L20+32B", ModelSpec::qwen2_5_32b(), NodeSpec::l20(4)),
        ("A100+70B", ModelSpec::llama2_70b(), NodeSpec::a100(4)),
    ] {
        println!("--- {combo} ---");
        let arms: Vec<(&str, Option<f64>, Box<dyn OutputLenPredictor>)> = vec![
            ("oracle", None, Box::new(OraclePredictor)),
            ("softmax", Some(lr_acc), Box::new(lr.clone())),
            ("naive-bayes", Some(nb_acc), Box::new(nb.clone())),
            ("mean", None, Box::new(mean)),
            ("always-1", None, Box::new(ConstantOne)),
            ("always-2048", None, Box::new(ConstantMax)),
        ];
        for (name, acc, p) in arms {
            let out = TdPipeEngine::new(model.clone(), &node, TdPipeConfig::default())
                .expect("fits")
                .run(&trace, p.as_ref());
            println!(
                "  {name:<12} {:6.0} tok/s  recompute {:5.2}%  switches {:3}",
                out.report.throughput_total(),
                out.report.recompute_overhead() * 100.0,
                out.report.phase_switches
            );
            rows.push(Row {
                combo: combo.into(),
                predictor: name.into(),
                accuracy: acc,
                throughput_total: out.report.throughput_total(),
                recompute_overhead: out.report.recompute_overhead(),
                phase_switches: out.report.phase_switches,
            });
        }
    }
    save_json("ablation_predictor.json", &rows);
}
