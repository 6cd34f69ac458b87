//! Gaussian Naive Bayes — a second, cheaper bucket classifier.
//!
//! Useful as an ablation point between the softmax classifier and
//! no-signal baselines: NB trains in one pass, needs no hyper-parameters,
//! and is usually a few accuracy points worse — quantifying how much
//! classifier quality the greedy prefill actually needs.

/// A Gaussian Naive Bayes classifier over dense feature vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianNbClassifier {
    num_classes: usize,
    dim: usize,
    /// `log P(class)`.
    log_prior: Vec<f64>,
    /// Per-class per-feature mean, row-major `[num_classes × dim]`.
    mean: Vec<f64>,
    /// Per-class per-feature variance (floored), row-major.
    var: Vec<f64>,
}

impl GaussianNbClassifier {
    /// Fit priors and per-class Gaussians in a single pass.
    ///
    /// # Panics
    /// Panics on empty data, ragged features, or out-of-range labels.
    pub fn train(features: &[Vec<f32>], labels: &[usize], num_classes: usize) -> Self {
        assert!(!features.is_empty(), "empty training set");
        assert_eq!(features.len(), labels.len(), "features/labels mismatch");
        let dim = features[0].len();
        assert!(features.iter().all(|f| f.len() == dim), "ragged features");
        assert!(labels.iter().all(|&l| l < num_classes), "label out of range");

        let mut count = vec![0u64; num_classes];
        let mut mean = vec![0.0f64; num_classes * dim];
        for (f, &l) in features.iter().zip(labels) {
            count[l] += 1;
            for (d, &v) in f.iter().enumerate() {
                mean[l * dim + d] += v as f64;
            }
        }
        for k in 0..num_classes {
            let n = count[k].max(1) as f64;
            for d in 0..dim {
                mean[k * dim + d] /= n;
            }
        }
        let mut var = vec![0.0f64; num_classes * dim];
        for (f, &l) in features.iter().zip(labels) {
            for (d, &v) in f.iter().enumerate() {
                let c = v as f64 - mean[l * dim + d];
                var[l * dim + d] += c * c;
            }
        }
        let total = features.len() as f64;
        let mut log_prior = vec![0.0f64; num_classes];
        for k in 0..num_classes {
            let n = count[k].max(1) as f64;
            for d in 0..dim {
                var[k * dim + d] = (var[k * dim + d] / n).max(1e-6);
            }
            // Laplace-smoothed prior keeps empty classes finite.
            log_prior[k] = ((count[k] as f64 + 1.0) / (total + num_classes as f64)).ln();
        }
        GaussianNbClassifier {
            num_classes,
            dim,
            log_prior,
            mean,
            var,
        }
    }

    fn log_posteriors(&self, features: &[f32]) -> Vec<f64> {
        assert_eq!(features.len(), self.dim, "feature dimension mismatch");
        let mut out = Vec::with_capacity(self.num_classes);
        for k in 0..self.num_classes {
            let mut lp = self.log_prior[k];
            for (d, &v) in features.iter().enumerate() {
                let m = self.mean[k * self.dim + d];
                let s2 = self.var[k * self.dim + d];
                let c = v as f64 - m;
                lp += -0.5 * (c * c / s2 + s2.ln() + std::f64::consts::TAU.ln());
            }
            out.push(lp);
        }
        out
    }

    /// Most likely class.
    pub fn predict(&self, features: &[f32]) -> usize {
        self.log_posteriors(features)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("at least one class")
            .0
    }

    /// Normalised class posteriors.
    pub fn predict_proba(&self, features: &[f32]) -> Vec<f64> {
        let lp = self.log_posteriors(features);
        let maxv = lp.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut probs: Vec<f64> = lp.iter().map(|&v| (v - maxv).exp()).collect();
        let sum: f64 = probs.iter().sum();
        for p in probs.iter_mut() {
            *p /= sum;
        }
        probs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separable_blobs_classify_cleanly() {
        let mut feats = Vec::new();
        let mut labels = Vec::new();
        for i in 0..400 {
            let l = i % 2;
            let c = if l == 0 { -3.0f32 } else { 3.0 };
            // Small deterministic jitter.
            let j = ((i * 37) % 100) as f32 / 100.0 - 0.5;
            feats.push(vec![c + j, -c - j]);
            labels.push(l);
        }
        let nb = GaussianNbClassifier::train(&feats, &labels, 2);
        let correct = feats
            .iter()
            .zip(&labels)
            .filter(|(f, &l)| nb.predict(f) == l)
            .count();
        assert!(correct as f64 / 400.0 > 0.99);
        // Posteriors are a distribution.
        let p = nb.predict_proba(&feats[0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unseen_class_keeps_finite_prior() {
        // Train with only label 0 present out of 3 classes.
        let feats = vec![vec![0.0f32], vec![1.0]];
        let nb = GaussianNbClassifier::train(&feats, &[0, 0], 3);
        let p = nb.predict_proba(&[0.5]);
        assert_eq!(p.len(), 3);
        assert!(p.iter().all(|&x| x.is_finite()));
        assert_eq!(nb.predict(&[0.5]), 0);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn bad_labels_panic() {
        GaussianNbClassifier::train(&[vec![0.0]], &[7], 2);
    }
}
