//! Seeded synthetic ShareGPT-like trace generation.

use crate::request::{Request, RequestId};
use crate::session::{fill_workers, take};
use crate::trace::Trace;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

/// Number of latent scenario categories.
///
/// Each category models one kind of conversation (short factual answer,
/// chitchat, code generation, long-form writing, …) and carries its own
/// output-length distribution. Categories are what make output lengths
/// *learnable*: the paper's §3.3 assumes "inference inputs within a given
/// scenario exhibit strong similarities".
pub const CATEGORY_COUNT: usize = 8;

/// Dimension of the observable feature vector (the `[CLS]`-embedding
/// stand-in): two coordinates per category plus six distractor dimensions.
pub const FEATURE_DIM: usize = 2 * CATEGORY_COUNT + 6;

/// Log-normal output-length parameters `(µ, σ)` per category. Means range
/// from ~30 tokens (terse answers) to ~1000 (long-form generation), giving
/// the heavy-tailed aggregate ShareGPT is known for.
const CATEGORY_OUTPUT: [(f64, f64); CATEGORY_COUNT] = [
    (3.30, 0.45),
    (4.00, 0.45),
    (4.50, 0.45),
    (5.00, 0.45),
    (5.40, 0.45),
    (5.90, 0.45),
    (6.40, 0.45),
    (6.85, 0.40),
];

/// Category mixture weights (sums to 1).
const CATEGORY_WEIGHT: [f64; CATEGORY_COUNT] = [0.18, 0.16, 0.15, 0.14, 0.12, 0.11, 0.08, 0.06];

/// Configuration of the synthetic trace generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShareGptLikeConfig {
    /// Number of requests to generate.
    pub num_requests: usize,
    /// RNG seed; equal seeds produce identical traces.
    pub seed: u64,
    /// Log-normal µ of input (prompt) lengths.
    pub input_mu: f64,
    /// Log-normal σ of input lengths.
    pub input_sigma: f64,
    /// Inclusive lower bound on input length.
    pub input_min: u32,
    /// Exclusive upper bound on input length (the paper filters < 1024).
    pub input_max: u32,
    /// Hard cap on output length (max generation budget).
    pub output_max: u32,
    /// Standard deviation of Gaussian noise added to the category prototype
    /// in feature space. Larger values make the length predictor's job
    /// harder; the default is calibrated so a trained classifier lands near
    /// the paper's 0.52–0.58 single-request accuracy.
    pub feature_noise: f64,
}

impl Default for ShareGptLikeConfig {
    fn default() -> Self {
        ShareGptLikeConfig {
            num_requests: 86_612, // paper §4.1: pairs constructed from ShareGPT V3
            seed: 0x5468_6172,
            input_mu: 5.1,
            input_sigma: 1.0,
            input_min: 4,
            input_max: 1024,
            output_max: 2048,
            feature_noise: 0.45,
        }
    }
}

impl ShareGptLikeConfig {
    /// A small config for unit tests.
    pub fn small(num_requests: usize, seed: u64) -> Self {
        ShareGptLikeConfig {
            num_requests,
            seed,
            ..Self::default()
        }
    }

    /// Generate the trace (deterministic for equal configs).
    pub fn generate(&self) -> Trace {
        self.generate_with(fill_workers())
    }

    /// [`Self::generate`] on `workers` fill threads; the trace is the same
    /// for every count. The calling thread walks the one generator from
    /// request to request, running each request's category and input-length
    /// draws (the rejection loop decides how many draws it takes) and
    /// stepping past its output and feature draws. As soon as a range's
    /// start state is known, a filler replays that range into the slice it
    /// was handed (so it allocates nothing, and glibc gives it no arena of
    /// its own); the last range fills on the calling thread.
    fn generate_with(&self, workers: usize) -> Trace {
        let n = self.num_requests;
        let mut requests = vec![Request::BLANK; n];
        let chunk = n.div_ceil(workers.clamp(1, n.max(1)));
        let mut rng = StdRng::seed_from_u64(self.seed);
        std::thread::scope(|scope| {
            let mut rest = requests.as_mut_slice();
            let mut lo = 0;
            while !rest.is_empty() {
                let len = chunk.min(rest.len());
                let slots = take(&mut rest, len);
                let start = rng.clone();
                let fill = move || self.fill(lo, start, slots);
                if rest.is_empty() {
                    fill(); // the last range runs on the calling thread
                } else {
                    scope.spawn(fill);
                    for _ in 0..len {
                        self.skip_request(&mut rng);
                    }
                    lo += len;
                }
            }
        });
        Trace::new(requests)
    }

    /// Draw requests `lo..lo + slots.len()` from `rng`, which stands at
    /// request `lo`'s start, into `slots`.
    fn fill(&self, lo: usize, mut rng: StdRng, slots: &mut [Request]) {
        for (i, slot) in slots.iter_mut().enumerate() {
            *slot = self.sample_request(RequestId((lo + i) as u64), &mut rng);
        }
    }

    /// Draw one request: its category, input length, output length and
    /// features, in that order.
    fn sample_request(&self, id: RequestId, rng: &mut StdRng) -> Request {
        let category = sample_category(rng);
        let input_len = self.sample_input(rng);
        let output_len = self.sample_output(rng, category);
        let features = self.sample_features(rng, category);
        Request {
            id,
            input_len,
            output_len,
            category: category as u8,
            features,
        }
    }

    /// Step `rng` past exactly the draws [`Self::sample_request`] makes.
    /// The input length's rejection loop decides how many that is, so it
    /// runs in full; the output and feature draws pass untransformed.
    fn skip_request(&self, rng: &mut StdRng) {
        sample_category(rng);
        self.sample_input(rng);
        // The output length's standard normal: two uniforms.
        rng.next_u64();
        rng.next_u64();
        Self::skip_features(rng);
    }

    fn sample_input(&self, rng: &mut StdRng) -> u32 {
        // Rejection-sample the truncated log-normal: inputs ≥ input_max are
        // "filtered out" exactly like the paper's preprocessing.
        for _ in 0..64 {
            let v = (self.input_mu + self.input_sigma * sample_std_normal(rng)).exp();
            let v = v as u32;
            if v >= self.input_min && v < self.input_max {
                return v;
            }
        }
        // Pathological configs fall back to the midpoint.
        (self.input_min + self.input_max) / 2
    }

    /// Sample an output length for `category` (shared with the session
    /// generator).
    pub(crate) fn sample_output_for(&self, rng: &mut StdRng, category: usize) -> u32 {
        self.sample_output(rng, category)
    }

    /// Sample a feature vector for `category` (shared with the session
    /// generator).
    pub(crate) fn sample_features_for(
        &self,
        rng: &mut StdRng,
        category: usize,
    ) -> [f32; FEATURE_DIM] {
        self.sample_features(rng, category)
    }

    fn sample_output(&self, rng: &mut StdRng, category: usize) -> u32 {
        let (mu, sigma) = CATEGORY_OUTPUT[category];
        let v = (mu + sigma * sample_std_normal(rng)).exp() as u32;
        v.clamp(1, self.output_max)
    }

    /// Step `rng` past exactly the draws [`Self::sample_features_for`]
    /// makes (one standard normal, two uniforms, per coordinate) without
    /// transforming them.
    pub(crate) fn skip_features(rng: &mut StdRng) {
        for _ in 0..2 * FEATURE_DIM {
            rng.next_u64();
        }
    }

    fn sample_features(&self, rng: &mut StdRng, category: usize) -> [f32; FEATURE_DIM] {
        let mut f = [0f32; FEATURE_DIM];
        // Category prototype: a 2-sparse signature.
        f[2 * category] = 1.0;
        f[2 * category + 1] = 0.5;
        for x in f.iter_mut() {
            *x += (self.feature_noise * sample_std_normal(rng)) as f32;
        }
        f
    }
}

/// Draw a category index from the fixed mixture weights.
pub(crate) fn sample_category(rng: &mut StdRng) -> usize {
    let u: f64 = rng.random();
    let mut acc = 0.0;
    for (c, &w) in CATEGORY_WEIGHT.iter().enumerate() {
        acc += w;
        if u < acc {
            return c;
        }
    }
    CATEGORY_COUNT - 1
}

/// Standard normal via Box–Muller (the offline crate set excludes
/// `rand_distr`, so we roll the two-liner ourselves).
pub(crate) fn sample_std_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ShareGptLikeConfig {
        /// The sequential reference the in-place generator is checked
        /// against: one request at a time from one generator.
        fn generate_reference(&self) -> Trace {
            let mut rng = StdRng::seed_from_u64(self.seed);
            Trace::new(
                (0..self.num_requests)
                    .map(|i| self.sample_request(RequestId(i as u64), &mut rng))
                    .collect(),
            )
        }
    }

    const SEEDS: [u64; 3] = [1, 7, 42];
    const SIZES: [usize; 7] = [0, 1, 2, 3, 7, 1_000, 30_000];
    const WORKERS: [usize; 4] = [1, 2, 3, 7];

    #[test]
    fn in_place_generation_matches_the_sequential_reference() {
        for seed in SEEDS {
            for n in SIZES {
                let cfg = ShareGptLikeConfig::small(n, seed);
                let reference = cfg.generate_reference();
                for workers in WORKERS {
                    let t = cfg.generate_with(workers);
                    let ctx = format!("{workers} workers, {n} requests, seed {seed}");
                    assert!(t == reference, "{ctx}");
                    assert!(
                        t.requests().iter().map(|r| r.id.0).eq(0..n as u64),
                        "{ctx}: ids"
                    );
                    assert_eq!(t.capacity(), t.len(), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn smaller_traces_are_prefixes_of_larger_ones() {
        for seed in SEEDS {
            for workers in WORKERS {
                let full = ShareGptLikeConfig::small(1_000, seed).generate_with(workers);
                for m in [0, 1, 2, 3, 7, 500, 999] {
                    let t = ShareGptLikeConfig::small(m, seed).generate_with(workers);
                    assert!(
                        t.requests() == &full.requests()[..m],
                        "{m} of 1000, {workers} workers, seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let a = ShareGptLikeConfig::small(500, 42).generate();
        let b = ShareGptLikeConfig::small(500, 42).generate();
        assert_eq!(a.requests(), b.requests());
    }

    #[test]
    fn different_seeds_differ() {
        let a = ShareGptLikeConfig::small(500, 1).generate();
        let b = ShareGptLikeConfig::small(500, 2).generate();
        assert_ne!(a.requests(), b.requests());
    }

    #[test]
    fn inputs_respect_paper_filter() {
        let t = ShareGptLikeConfig::small(5_000, 7).generate();
        for r in t.requests() {
            assert!(r.input_len >= 4 && r.input_len < 1024);
            assert!(r.output_len >= 1 && r.output_len <= 2048);
        }
    }

    #[test]
    fn aggregate_statistics_are_sharegpt_like() {
        let t = ShareGptLikeConfig::small(20_000, 3).generate();
        let mean_in = t.requests().iter().map(|r| r.input_len as f64).sum::<f64>()
            / t.len() as f64;
        let mean_out = t.requests().iter().map(|r| r.output_len as f64).sum::<f64>()
            / t.len() as f64;
        // ShareGPT-with-filter ballpark: mean prompt a couple hundred
        // tokens, mean output likewise, outputs heavy-tailed.
        assert!((120.0..400.0).contains(&mean_in), "mean_in={mean_in}");
        assert!((120.0..400.0).contains(&mean_out), "mean_out={mean_out}");
        let max_out = t.requests().iter().map(|r| r.output_len).max().unwrap();
        assert!(max_out > 1000, "tail missing, max_out={max_out}");
    }

    #[test]
    fn categories_shift_output_lengths() {
        let t = ShareGptLikeConfig::small(20_000, 9).generate();
        let mean_of = |c: u8| {
            let v: Vec<f64> = t
                .requests()
                .iter()
                .filter(|r| r.category == c)
                .map(|r| r.output_len as f64)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(mean_of(7) > 4.0 * mean_of(0));
    }

    #[test]
    fn features_carry_category_signal() {
        let t = ShareGptLikeConfig::small(10_000, 11).generate();
        // The prototype coordinate of the true category should on average
        // be ~1.0 larger than the same coordinate for other categories.
        let mut own = 0.0;
        let mut other = 0.0;
        let mut n = 0.0;
        for r in t.requests() {
            own += r.features[2 * r.category as usize] as f64;
            other += r.features[2 * ((r.category as usize + 1) % CATEGORY_COUNT)] as f64;
            n += 1.0;
        }
        assert!((own / n) - (other / n) > 0.8);
    }

    #[test]
    fn category_weights_sum_to_one() {
        let s: f64 = CATEGORY_WEIGHT.iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }
}
