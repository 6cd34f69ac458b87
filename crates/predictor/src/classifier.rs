//! From-scratch multinomial logistic regression (softmax classifier).
//!
//! Plays the role of the paper's BERT + two-layer-FFN classifier head: it
//! maps a prompt feature vector to one of the output-length buckets. SGD
//! with mini-batches, inverse-time learning-rate decay, seeded shuffling —
//! fully deterministic for a given seed.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Training hyper-parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: u32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Initial learning rate.
    pub lr: f64,
    /// L2 regularisation strength.
    pub l2: f64,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 8,
            batch_size: 64,
            lr: 0.5,
            l2: 1e-5,
            seed: 0xC1A5,
        }
    }
}

/// A linear softmax classifier `argmax_k (W_k · x + b_k)`.
#[derive(Debug, Clone, PartialEq)]
pub struct SoftmaxClassifier {
    num_classes: usize,
    dim: usize,
    /// Row-major `[num_classes × dim]` weights.
    weights: Vec<f64>,
    bias: Vec<f64>,
    /// Per-feature standardisation: `x' = (x - mean) / std`.
    feat_mean: Vec<f64>,
    feat_std: Vec<f64>,
}

impl SoftmaxClassifier {
    /// Train on `(features, label)` pairs. All feature vectors must share
    /// one dimension; labels must be `< num_classes`.
    ///
    /// # Panics
    /// Panics on empty data, inconsistent dimensions, or out-of-range
    /// labels.
    pub fn train<F: AsRef<[f32]>>(
        features: &[F],
        labels: &[usize],
        num_classes: usize,
        cfg: &TrainConfig,
    ) -> Self {
        assert!(!features.is_empty(), "empty training set");
        assert_eq!(features.len(), labels.len(), "features/labels mismatch");
        let dim = features[0].as_ref().len();
        assert!(features.iter().all(|f| f.as_ref().len() == dim), "ragged features");
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "label out of range"
        );

        // Standardise features (mean 0, std 1) for stable SGD.
        let n = features.len() as f64;
        let mut feat_mean = vec![0.0; dim];
        let mut feat_std = vec![0.0; dim];
        for f in features {
            for (d, &v) in f.as_ref().iter().enumerate() {
                feat_mean[d] += v as f64;
            }
        }
        for m in feat_mean.iter_mut() {
            *m /= n;
        }
        for f in features {
            for (d, &v) in f.as_ref().iter().enumerate() {
                let c = v as f64 - feat_mean[d];
                feat_std[d] += c * c;
            }
        }
        for s in feat_std.iter_mut() {
            *s = (*s / n).sqrt().max(1e-6);
        }

        let mut this = SoftmaxClassifier {
            num_classes,
            dim,
            weights: vec![0.0; num_classes * dim],
            bias: vec![0.0; num_classes],
            feat_mean,
            feat_std,
        };

        let mut order: Vec<usize> = (0..features.len()).collect();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut grad_w = vec![0.0; num_classes * dim];
        let mut grad_b = vec![0.0; num_classes];
        let mut x = vec![0.0; dim];
        let mut probs = vec![0.0; num_classes];
        let mut step = 0u64;

        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(cfg.batch_size) {
                grad_w.iter_mut().for_each(|g| *g = 0.0);
                grad_b.iter_mut().for_each(|g| *g = 0.0);
                for &i in chunk {
                    this.standardise(features[i].as_ref(), &mut x);
                    this.softmax(&x, &mut probs);
                    for k in 0..num_classes {
                        let err = probs[k] - f64::from(labels[i] == k);
                        grad_b[k] += err;
                        let row = &mut grad_w[k * dim..(k + 1) * dim];
                        for (d, &xv) in x.iter().enumerate() {
                            row[d] += err * xv;
                        }
                    }
                }
                step += 1;
                let lr = cfg.lr / (1.0 + 1e-4 * step as f64) / chunk.len() as f64;
                for (w, g) in this.weights.iter_mut().zip(&grad_w) {
                    *w -= lr * (g + cfg.l2 * *w * chunk.len() as f64);
                }
                for (b, g) in this.bias.iter_mut().zip(&grad_b) {
                    *b -= lr * g;
                }
            }
        }
        this
    }

    /// Standardise one feature vector into `out`, checking both lengths.
    fn standardise(&self, f: &[f32], out: &mut [f64]) {
        assert_eq!(f.len(), self.dim, "feature dimension mismatch");
        assert_eq!(out.len(), self.dim, "feature buffer size");
        for d in 0..self.dim {
            out[d] = (f[d] as f64 - self.feat_mean[d]) / self.feat_std[d];
        }
    }

    fn softmax(&self, x: &[f64], out: &mut [f64]) {
        let mut maxv = f64::NEG_INFINITY;
        for (k, o) in out.iter_mut().enumerate().take(self.num_classes) {
            let row = &self.weights[k * self.dim..(k + 1) * self.dim];
            let mut z = self.bias[k];
            for (d, &xv) in x.iter().enumerate() {
                z += row[d] * xv;
            }
            *o = z;
            maxv = maxv.max(z);
        }
        let mut sum = 0.0;
        for v in out.iter_mut() {
            *v = (*v - maxv).exp();
            sum += *v;
        }
        for v in out.iter_mut() {
            *v /= sum;
        }
    }

    /// Class probabilities for one feature vector (calibrated softmax).
    ///
    /// # Panics
    /// Panics if the feature dimension differs from training.
    pub fn predict_proba(&self, features: &[f32]) -> Vec<f64> {
        let mut x = vec![0.0; self.dim];
        let mut probs = vec![0.0; self.num_classes];
        self.predict_proba_into(features, &mut x, &mut probs);
        probs
    }

    /// [`predict_proba`](Self::predict_proba) into caller buffers: `x`
    /// receives the standardised features, `probs` the class
    /// probabilities. Same arithmetic in the same order, no allocation.
    ///
    /// # Panics
    /// Panics if the feature dimension differs from training, `x` is not
    /// one feature vector long, or `probs` is not one entry per class.
    pub fn predict_proba_into(&self, features: &[f32], x: &mut [f64], probs: &mut [f64]) {
        assert_eq!(probs.len(), self.num_classes, "probability buffer size");
        self.standardise(features, x);
        self.softmax(x, probs);
    }

    /// Predict the class of one feature vector.
    ///
    /// # Panics
    /// Panics if the feature dimension differs from training.
    pub fn predict(&self, features: &[f32]) -> usize {
        self.predict_into(features, &mut vec![0.0; self.dim])
    }

    /// [`predict`](Self::predict) with the standardised features written
    /// to the caller's buffer `x`, one feature vector long.
    ///
    /// # Panics
    /// Panics if the feature dimension differs from training or `x` is
    /// not one feature vector long.
    pub fn predict_into(&self, features: &[f32], x: &mut [f64]) -> usize {
        self.standardise(features, x);
        let mut best = 0;
        let mut best_z = f64::NEG_INFINITY;
        for k in 0..self.num_classes {
            let row = &self.weights[k * self.dim..(k + 1) * self.dim];
            let mut z = self.bias[k];
            for (d, &xv) in x.iter().enumerate() {
                z += row[d] * xv;
            }
            if z > best_z {
                best_z = z;
                best = k;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Two well-separated Gaussian blobs must be almost perfectly learnable.
    #[test]
    fn separable_blobs_reach_high_accuracy() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut feats = Vec::new();
        let mut labels = Vec::new();
        for i in 0..2000 {
            let label = i % 2;
            let centre = if label == 0 { -2.0f32 } else { 2.0 };
            feats.push(vec![
                centre + rng.random::<f32>() - 0.5,
                -centre + rng.random::<f32>() - 0.5,
            ]);
            labels.push(label);
        }
        let clf = SoftmaxClassifier::train(&feats, &labels, 2, &TrainConfig::default());
        let correct = feats
            .iter()
            .zip(&labels)
            .filter(|(f, &l)| clf.predict(f) == l)
            .count();
        assert!(correct as f64 / feats.len() as f64 > 0.98);
    }

    #[test]
    fn noisy_labels_cap_accuracy() {
        // Pure label noise: no classifier can beat the majority class.
        let mut rng = StdRng::seed_from_u64(2);
        let feats: Vec<Vec<f32>> = (0..1000)
            .map(|_| vec![rng.random::<f32>(), rng.random::<f32>()])
            .collect();
        let labels: Vec<usize> = (0..1000).map(|_| rng.random_range(0..4)).collect();
        let clf = SoftmaxClassifier::train(&feats, &labels, 4, &TrainConfig::default());
        let correct = feats
            .iter()
            .zip(&labels)
            .filter(|(f, &l)| clf.predict(f) == l)
            .count();
        assert!((correct as f64 / 1000.0) < 0.40);
    }

    #[test]
    fn deterministic_training() {
        let feats: Vec<Vec<f32>> = (0..100).map(|i| vec![i as f32, (i % 7) as f32]).collect();
        let labels: Vec<usize> = (0..100).map(|i| i % 3).collect();
        let a = SoftmaxClassifier::train(&feats, &labels, 3, &TrainConfig::default());
        let b = SoftmaxClassifier::train(&feats, &labels, 3, &TrainConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn bad_labels_panic() {
        SoftmaxClassifier::train(&[vec![0.0]], &[5], 2, &TrainConfig::default());
    }

    #[test]
    #[should_panic(expected = "feature dimension")]
    fn bad_dim_panics() {
        let clf = SoftmaxClassifier::train(&[vec![0.0], vec![1.0]], &[0, 1], 2, &TrainConfig::default());
        clf.predict(&[0.0, 1.0]);
    }
}
