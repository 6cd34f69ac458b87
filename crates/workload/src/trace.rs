//! Traces: ordered collections of requests with sampling and splitting.

use crate::request::Request;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// An ordered collection of requests (one benchmark dataset).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    requests: Vec<Request>,
}

/// The 60/20/20 train/validation/test partition the paper uses for the
/// output-length predictor (§4.1).
#[derive(Debug, Clone)]
pub struct TraceSplits {
    /// 60% — predictor training set.
    pub train: Trace,
    /// 20% — validation set.
    pub val: Trace,
    /// 20% — held-out test set (also the pool performance runs sample from).
    pub test: Trace,
}

impl Trace {
    /// Wrap a request list.
    pub fn new(requests: Vec<Request>) -> Self {
        Trace { requests }
    }

    /// Requests in trace order.
    #[inline]
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Number of requests.
    #[inline]
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Total prompt tokens.
    pub fn total_input_tokens(&self) -> u64 {
        self.requests.iter().map(|r| r.input_len as u64).sum()
    }

    /// Total generated tokens.
    pub fn total_output_tokens(&self) -> u64 {
        self.requests.iter().map(|r| r.output_len as u64).sum()
    }

    /// Draw `n` requests uniformly without replacement (deterministic in
    /// `seed`). Mirrors the paper's "randomly sample 5,000 input sentences".
    ///
    /// # Panics
    /// Panics if `n > self.len()`.
    pub fn sample(&self, n: usize, seed: u64) -> Trace {
        assert!(n <= self.len(), "cannot sample {n} from {}", self.len());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(&mut rng);
        idx.truncate(n);
        idx.sort_unstable(); // keep original relative order for readability
        Trace::new(idx.into_iter().map(|i| self.requests[i].clone()).collect())
    }

    /// Concatenate traces, re-numbering request ids to stay unique.
    pub fn concat(traces: &[Trace]) -> Trace {
        let mut requests = Vec::with_capacity(traces.iter().map(Trace::len).sum());
        for t in traces {
            for r in t.requests() {
                let mut r = r.clone();
                r.id = crate::request::RequestId(requests.len() as u64);
                requests.push(r);
            }
        }
        Trace::new(requests)
    }

    /// Keep only requests satisfying `keep` (ids preserved).
    pub fn filter<F: FnMut(&Request) -> bool>(&self, mut keep: F) -> Trace {
        Trace::new(
            self.requests()
                .iter()
                .filter(|r| keep(r))
                .cloned()
                .collect(),
        )
    }

    /// Shuffle-and-slice into the paper's 60/20/20 split (deterministic in
    /// `seed`). The shuffle permutes request positions (its draws depend
    /// only on the length), and each split is copied once, at its exact
    /// size.
    ///
    /// # Panics
    /// Panics if the trace holds more than `u32::MAX` requests.
    pub fn split(&self, seed: u64) -> TraceSplits {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = u32::try_from(self.requests.len()).expect("trace positions fit u32");
        let mut order: Vec<u32> = (0..n).collect();
        order.shuffle(&mut rng);
        let n = order.len();
        let (train_end, val_end) = (n * 60 / 100, n * 80 / 100);
        let copy = |positions: &[u32]| {
            Trace::new(positions.iter().map(|&i| self.requests[i as usize].clone()).collect())
        };
        TraceSplits {
            train: copy(&order[..train_end]),
            val: copy(&order[train_end..val_end]),
            test: copy(&order[val_end..]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::ShareGptLikeConfig;

    impl Trace {
        /// The split as it was computed before positions were shuffled:
        /// clone the whole trace, shuffle the clone, slice it.
        fn split_by_cloning(&self, seed: u64) -> TraceSplits {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut shuffled = self.requests.clone();
            shuffled.shuffle(&mut rng);
            let n = shuffled.len();
            let test = shuffled.split_off(n * 80 / 100);
            let val = shuffled.split_off(n * 60 / 100);
            TraceSplits {
                train: Trace::new(shuffled),
                val: Trace::new(val),
                test: Trace::new(test),
            }
        }

        /// Allocated request slots, for the layout tests.
        pub(crate) fn capacity(&self) -> usize {
            self.requests.capacity()
        }

        /// Select requests by index, in the given order, re-numbering ids to
        /// `0..indices.len()` so the result is a self-contained trace: the
        /// reference an open-loop [`crate::Rows`] share must read back. The
        /// full index set reproduces the original trace byte-for-byte (ids are
        /// already `0..len` for generated traces).
        ///
        /// # Panics
        /// Panics if some index is out of bounds.
        pub(crate) fn subset(&self, indices: &[usize]) -> Trace {
            Trace::new(
                indices
                    .iter()
                    .enumerate()
                    .map(|(k, &i)| {
                        let mut r = self.requests[i].clone();
                        r.id = crate::request::RequestId(k as u64);
                        r
                    })
                    .collect(),
            )
        }
    }

    fn trace(n: usize) -> Trace {
        ShareGptLikeConfig::small(n, 5).generate()
    }

    #[test]
    fn sample_is_deterministic_and_without_replacement() {
        let t = trace(1000);
        let a = t.sample(100, 9);
        let b = t.sample(100, 9);
        assert_eq!(a.requests(), b.requests());
        let mut ids: Vec<u64> = a.requests().iter().map(|r| r.id.0).collect();
        ids.dedup();
        assert_eq!(ids.len(), 100);
    }

    #[test]
    fn split_partitions_everything_exactly_once() {
        let t = trace(997); // awkward size on purpose
        let s = t.split(3);
        assert_eq!(s.train.len() + s.val.len() + s.test.len(), 997);
        let mut ids: Vec<u64> = s
            .train
            .requests()
            .iter()
            .chain(s.val.requests())
            .chain(s.test.requests())
            .map(|r| r.id.0)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 997);
        // Ratios approximately 60/20/20.
        assert!((s.train.len() as f64 / 997.0 - 0.6).abs() < 0.01);
        assert!((s.test.len() as f64 / 997.0 - 0.2).abs() < 0.01);
    }

    /// Shuffling positions draws exactly what shuffling the requests did:
    /// every split equals the clone-and-split reference's, and holds no
    /// spare capacity.
    #[test]
    fn split_matches_the_clone_and_split_reference() {
        for n in [1, 2, 5, 997, 3000] {
            let t = trace(n);
            for seed in [0, 3, 7, 42] {
                let (got, want) = (t.split(seed), t.split_by_cloning(seed));
                let pairs = [(got.train, want.train), (got.val, want.val), (got.test, want.test)];
                for (g, w) in pairs {
                    assert_eq!(g, w, "n={n} seed={seed}");
                    assert_eq!(g.capacity(), g.len(), "n={n} seed={seed}");
                }
            }
        }
    }

    #[test]
    fn subset_renumbers_and_identity_subset_is_bytes_equal() {
        let t = trace(20);
        let odd: Vec<usize> = (0..20).filter(|i| i % 2 == 1).collect();
        let s = t.subset(&odd);
        assert_eq!(s.len(), 10);
        let ids: Vec<u64> = s.requests().iter().map(|r| r.id.0).collect();
        assert_eq!(ids, (0..10).collect::<Vec<u64>>());
        for (k, &i) in odd.iter().enumerate() {
            assert_eq!(s.requests()[k].input_len, t.requests()[i].input_len);
            assert_eq!(s.requests()[k].output_len, t.requests()[i].output_len);
        }
        // The full index set reproduces the original trace exactly.
        let all: Vec<usize> = (0..20).collect();
        assert_eq!(t.subset(&all), t);
    }

    #[test]
    fn concat_renumbers_ids() {
        let a = trace(5);
        let b = trace(3);
        let c = Trace::concat(&[a, b]);
        assert_eq!(c.len(), 8);
        let ids: Vec<u64> = c.requests().iter().map(|r| r.id.0).collect();
        assert_eq!(ids, (0..8).collect::<Vec<u64>>());
    }

    #[test]
    fn filter_selects_and_preserves() {
        let t = trace(100);
        let long = t.filter(|r| r.input_len > 200);
        assert!(long.len() < t.len());
        assert!(long.requests().iter().all(|r| r.input_len > 200));
        // Filtered requests keep their original identity.
        let orig_ids: std::collections::HashSet<u64> =
            t.requests().iter().map(|r| r.id.0).collect();
        assert!(long.requests().iter().all(|r| orig_ids.contains(&r.id.0)));
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn oversampling_panics() {
        trace(10).sample(11, 0);
    }

    #[test]
    fn token_totals() {
        let t = trace(50);
        let by_hand: u64 = t.requests().iter().map(|r| r.input_len as u64).sum();
        assert_eq!(t.total_input_tokens(), by_hand);
    }
}
