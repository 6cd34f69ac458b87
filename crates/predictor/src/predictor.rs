//! The predictor facade the scheduler consumes.

use crate::buckets::{PercentileBuckets, NUM_BUCKETS};
use crate::classifier::{SoftmaxClassifier, TrainConfig};
use crate::naive_bayes::GaussianNbClassifier;
use serde::{Deserialize, Serialize};
use tdpipe_workload::{Request, Trace, FEATURE_DIM};

/// Anything that can estimate a request's output length before it runs.
pub trait OutputLenPredictor {
    /// Estimated output length in tokens.
    fn predict(&self, request: &Request) -> u32;

    /// Wall-clock cost of producing one prediction, in seconds. Used to
    /// charge the predictor's (negligible) overhead in end-to-end runs,
    /// mirroring the paper's §4.4.1 measurement (~0.28 ms/request on L20).
    fn per_request_overhead(&self) -> f64 {
        0.0
    }
}

/// An oracle that returns the ground-truth output length — the upper bound
/// for ablating how much predictor error costs the scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct OraclePredictor;

impl OutputLenPredictor for OraclePredictor {
    fn predict(&self, request: &Request) -> u32 {
        request.output_len
    }
}

/// The trained µ-Serve-style predictor: softmax classifier over prompt
/// features + percentile-bucket means.
#[derive(Debug, Clone, PartialEq)]
pub struct LengthPredictor {
    buckets: PercentileBuckets,
    classifier: SoftmaxClassifier,
    /// Seconds charged per prediction (paper: 1 418.861 ms / 5 000 requests
    /// on the L20 node ⇒ ≈ 0.284 ms).
    pub per_request_overhead_s: f64,
}

/// Per-prediction overhead measured by the paper on the L20 node.
pub const L20_PREDICTOR_OVERHEAD_S: f64 = 1.418861 / 5_000.0;
/// Per-prediction overhead measured by the paper on the A100 node.
pub const A100_PREDICTOR_OVERHEAD_S: f64 = 0.833695 / 5_000.0;

impl LengthPredictor {
    /// Fit buckets and classifier on a training trace (the 60% split).
    ///
    /// The feature vector presented to the classifier is the request's
    /// prompt embedding plus its (normalised) prompt length — both
    /// observable before any token is generated.
    pub fn train(train: &Trace, cfg: &TrainConfig) -> Self {
        let lengths: Vec<u32> = train.requests().iter().map(|r| r.output_len).collect();
        let buckets = PercentileBuckets::fit(&lengths);
        let features: Vec<_> = train.requests().iter().map(Self::featurise).collect();
        let labels: Vec<usize> = train
            .requests()
            .iter()
            .map(|r| buckets.bucket_of(r.output_len))
            .collect();
        let classifier =
            SoftmaxClassifier::train(&features, &labels, buckets.num_buckets(), cfg);
        LengthPredictor {
            buckets,
            classifier,
            per_request_overhead_s: L20_PREDICTOR_OVERHEAD_S,
        }
    }

    /// Feature map: prompt embedding ⊕ normalised prompt length, built on
    /// the stack (a prediction allocates no feature vector).
    pub fn featurise(r: &Request) -> [f32; FEATURE_DIM + 1] {
        let mut f = [0.0; FEATURE_DIM + 1];
        f[..FEATURE_DIM].copy_from_slice(&r.features);
        f[FEATURE_DIM] = r.input_len as f32 / 1024.0;
        f
    }

    /// The bucket the classifier assigns to a request (argmax — the
    /// quantity §4.4.1's single-request accuracy scores).
    pub fn predict_bucket(&self, request: &Request) -> usize {
        let mut x = [0.0; FEATURE_DIM + 1];
        self.classifier
            .predict_into(&Self::featurise(request), &mut x)
    }

    /// Expected output length under the classifier's calibrated class
    /// probabilities: `Σ_k p_k · bucket_mean_k`.
    ///
    /// The paper assigns each request its argmax bucket's mean. Argmax
    /// systematically forfeits the rare long-output bucket (1% mass, huge
    /// mean), biasing *summed* predictions low — which is what Algorithm 1
    /// actually consumes. Weighting by the calibrated probabilities keeps
    /// the same classifier and the same bucket means but removes that bias,
    /// reproducing Fig. 14's vanishing accumulated error.
    pub fn predict_expected(&self, request: &Request) -> f64 {
        let mut x = [0.0; FEATURE_DIM + 1];
        let mut probs = [0.0; NUM_BUCKETS];
        self.classifier
            .predict_proba_into(&Self::featurise(request), &mut x, &mut probs);
        probs
            .iter()
            .enumerate()
            .map(|(k, p)| p * self.buckets.predicted_len(k) as f64)
            .sum()
    }

    /// The bucket the ground-truth output length falls into (evaluation).
    pub fn true_bucket(&self, request: &Request) -> usize {
        self.buckets.bucket_of(request.output_len)
    }

    /// Fitted buckets.
    pub fn buckets(&self) -> &PercentileBuckets {
        &self.buckets
    }
}

/// A µ-Serve-style predictor whose classifier head is Gaussian Naive
/// Bayes instead of logistic regression — the cheap-training ablation
/// point of the `ablation_predictor` bench.
#[derive(Debug, Clone, PartialEq)]
pub struct NbLengthPredictor {
    buckets: PercentileBuckets,
    classifier: GaussianNbClassifier,
    /// Seconds charged per prediction.
    pub per_request_overhead_s: f64,
}

impl NbLengthPredictor {
    /// Fit buckets and the NB classifier in one pass over the training
    /// trace.
    pub fn train(train: &Trace) -> Self {
        let lengths: Vec<u32> = train.requests().iter().map(|r| r.output_len).collect();
        let buckets = PercentileBuckets::fit(&lengths);
        let features: Vec<Vec<f32>> = train
            .requests()
            .iter()
            .map(|r| LengthPredictor::featurise(r).to_vec())
            .collect();
        let labels: Vec<usize> = train
            .requests()
            .iter()
            .map(|r| buckets.bucket_of(r.output_len))
            .collect();
        let classifier = GaussianNbClassifier::train(&features, &labels, buckets.num_buckets());
        NbLengthPredictor {
            buckets,
            classifier,
            per_request_overhead_s: L20_PREDICTOR_OVERHEAD_S,
        }
    }

    /// Argmax bucket (for accuracy evaluation).
    pub fn predict_bucket(&self, request: &Request) -> usize {
        self.classifier.predict(&LengthPredictor::featurise(request))
    }

    /// The ground-truth bucket of a request.
    pub fn true_bucket(&self, request: &Request) -> usize {
        self.buckets.bucket_of(request.output_len)
    }
}

impl OutputLenPredictor for NbLengthPredictor {
    fn predict(&self, request: &Request) -> u32 {
        let probs = self
            .classifier
            .predict_proba(&LengthPredictor::featurise(request));
        let expected: f64 = probs
            .iter()
            .enumerate()
            .map(|(k, p)| p * self.buckets.predicted_len(k) as f64)
            .sum();
        expected.round().max(1.0) as u32
    }

    fn per_request_overhead(&self) -> f64 {
        self.per_request_overhead_s
    }
}

/// Predicts the training-set mean output length for every request: the
/// "no per-request signal" floor of the predictor ablation. Its summed
/// predictions are unbiased (so Algorithm 1's totals are right on
/// average), but it cannot tell long requests from short ones.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeanPredictor {
    /// Mean historical output length, rounded up.
    pub mean_len: u32,
}

impl MeanPredictor {
    /// Fit on historical outputs.
    pub fn train(train: &Trace) -> Self {
        let n = train.len().max(1) as u64;
        MeanPredictor {
            mean_len: (train.total_output_tokens().div_ceil(n)).max(1) as u32,
        }
    }
}

impl OutputLenPredictor for MeanPredictor {
    fn predict(&self, _request: &Request) -> u32 {
        self.mean_len
    }
}

impl OutputLenPredictor for LengthPredictor {
    fn predict(&self, request: &Request) -> u32 {
        self.predict_expected(request).round().max(1.0) as u32
    }

    fn per_request_overhead(&self) -> f64 {
        self.per_request_overhead_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdpipe_workload::ShareGptLikeConfig;

    fn quick_cfg() -> TrainConfig {
        TrainConfig {
            epochs: 4,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn trained_predictor_beats_chance_on_held_out_data() {
        let trace = ShareGptLikeConfig::small(12_000, 17).generate();
        let splits = trace.split(17);
        let p = LengthPredictor::train(&splits.train, &quick_cfg());
        let correct = splits
            .test
            .requests()
            .iter()
            .filter(|r| p.predict_bucket(r) == p.true_bucket(r))
            .count();
        let acc = correct as f64 / splits.test.len() as f64;
        // Majority class of the 25/25/25/15/9/1 bucket masses is 0.25;
        // the paper reports 0.52–0.58 for the real predictor. Accept a
        // generous band — the bench reports the exact figure.
        assert!(acc > 0.35, "accuracy {acc} not better than chance");
        assert!(acc < 0.95, "accuracy {acc} suspiciously high");
    }

    /// Stack-built feature rows train the classifier to the same bits as
    /// one heap row per request.
    #[test]
    fn training_on_rows_matches_training_on_vecs() {
        let trace = ShareGptLikeConfig::small(1_500, 9).generate();
        let p = LengthPredictor::train(&trace, &quick_cfg());
        let rows: Vec<_> = trace.requests().iter().map(LengthPredictor::featurise).collect();
        let vecs: Vec<Vec<f32>> = rows.iter().map(|f| f.to_vec()).collect();
        let labels: Vec<usize> = trace.requests().iter().map(|r| p.true_bucket(r)).collect();
        let k = p.buckets.num_buckets();
        let on_vecs = SoftmaxClassifier::train(&vecs, &labels, k, &quick_cfg());
        assert_eq!(SoftmaxClassifier::train(&rows, &labels, k, &quick_cfg()), on_vecs);
        assert_eq!(p.classifier, on_vecs);
    }

    #[test]
    fn predictions_are_valid_lengths() {
        let trace = ShareGptLikeConfig::small(4_000, 5).generate();
        let splits = trace.split(5);
        let p = LengthPredictor::train(&splits.train, &quick_cfg());
        for r in splits.test.requests().iter().take(200) {
            let len = p.predict(r);
            assert!((1..=4096).contains(&len), "len={len}");
        }
    }

    /// The buffer-reusing prediction paths give the allocating ones' bits.
    #[test]
    fn buffered_predictions_match_the_allocating_path() {
        for seed in [3, 11, 42] {
            let trace = ShareGptLikeConfig::small(4_000, seed).generate();
            let splits = trace.split(seed);
            let p = LengthPredictor::train(&splits.train, &quick_cfg());
            for r in trace.requests().iter().take(2_000) {
                let features = LengthPredictor::featurise(r);
                let probs = p.classifier.predict_proba(&features);
                let expected: f64 = probs
                    .iter()
                    .enumerate()
                    .map(|(k, q)| q * p.buckets.predicted_len(k) as f64)
                    .sum();
                assert_eq!(p.predict_expected(r).to_bits(), expected.to_bits());
                assert_eq!(p.predict(r), expected.round().max(1.0) as u32);
                assert_eq!(p.predict_bucket(r), p.classifier.predict(&features));
            }
        }
    }

    #[test]
    fn oracle_is_exact() {
        let trace = ShareGptLikeConfig::small(100, 3).generate();
        for r in trace.requests() {
            assert_eq!(OraclePredictor.predict(r), r.output_len);
        }
        assert_eq!(OraclePredictor.per_request_overhead(), 0.0);
    }

    #[test]
    fn mean_predictor_is_unbiased_on_training_data() {
        let trace = ShareGptLikeConfig::small(4_000, 9).generate();
        let m = MeanPredictor::train(&trace);
        let pred_sum: u64 = trace.requests().iter().map(|r| m.predict(r) as u64).sum();
        let actual = trace.total_output_tokens();
        let rel = (pred_sum as f64 - actual as f64).abs() / actual as f64;
        assert!(rel < 0.01, "mean predictor bias {rel}");
    }

    #[test]
    fn nb_predictor_beats_chance() {
        let trace = ShareGptLikeConfig::small(10_000, 21).generate();
        let splits = trace.split(21);
        let nb = NbLengthPredictor::train(&splits.train);
        let correct = splits
            .test
            .requests()
            .iter()
            .filter(|r| nb.predict_bucket(r) == nb.true_bucket(r))
            .count();
        let acc = correct as f64 / splits.test.len() as f64;
        assert!(acc > 0.35, "NB accuracy {acc}");
    }

    #[test]
    fn paper_overhead_constants() {
        assert!((L20_PREDICTOR_OVERHEAD_S - 2.837722e-4).abs() < 1e-9);
        assert!((A100_PREDICTOR_OVERHEAD_S - 1.66739e-4).abs() < 1e-9);
    }
}
