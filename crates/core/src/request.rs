//! Request lifecycle tracking shared by every scheduler.
//!
//! Storage is an id-indexed **arena** split hot/cold: the fields every
//! decode step, eviction scan and accounting loop touches (token counters,
//! lifecycle) sit together in one compact per-request record, while the
//! fields touched once per request (identity, arrival, latency timestamps)
//! live in separate parallel arrays. A decode step over a batch therefore
//! walks one dense array instead of chasing per-request heap objects.

use tdpipe_sim::LatencySummary;
use tdpipe_workload::stats::percentiles_selected;
use tdpipe_workload::{Request, RequestId, Workload};

/// Where a request currently is in its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lifecycle {
    /// Not yet prefilled (or evicted and awaiting re-prefill).
    Pending,
    /// KV resident; generating tokens.
    Decoding,
    /// All output tokens produced.
    Finished,
}

/// The per-request fields the hot loops read and write every decode step.
/// 24 bytes: a decode sweep touches one cache line per 2–3 requests.
///
/// `output_len` is the simulator oracle: schedulers must only compare it
/// against `generated` to detect completion (the simulated act of sampling
/// an EOS token), never use it for planning — planning uses `predicted`.
#[derive(Debug, Clone, Copy)]
struct HotState {
    /// Prompt tokens.
    input_len: u32,
    /// Oracle output length (EOS position).
    output_len: u32,
    /// Predicted output length (filled by the configured predictor).
    predicted: u32,
    /// Tokens generated so far.
    generated: u32,
    /// How many times this request was evicted for recomputation.
    evictions: u32,
    /// Lifecycle stage.
    lifecycle: Lifecycle,
    /// Whether the request's KV currently lives in host memory (swapped
    /// out); such a request is re-admitted by a swap-in transfer instead
    /// of a recompute prefill.
    swapped: bool,
}

/// The pool of all requests in a run, with conservation accounting; every
/// scheduler takes one per run.
///
/// Requests are addressed by pool index everywhere (the allocator, the
/// planner, batch membership lists); the pool is the single source of
/// truth for per-request state.
#[derive(Debug, Clone)]
pub struct RequestPool {
    /// Hot per-request state, one record per request (see [`HotState`]).
    hot: Vec<HotState>,
    /// Trace-level identity (cold: read for journals and error messages).
    ids: Vec<RequestId>,
    /// Time each request entered the system (0 for offline traces).
    arrivals: Vec<f64>,
    /// Virtual time the first output token was produced (NaN until then).
    first_token_at: Vec<f64>,
    /// Virtual time the last output token was produced (NaN until then).
    finished_at: Vec<f64>,
    /// Prefill tokens request `idx` can skip thanks to retained session KV
    /// (cold; empty for non-session runs — `prefill_tokens` treats a
    /// missing entry as 0, so the common path pays one bounds check).
    reuse_discount: Vec<u32>,
    finished: usize,
    /// Prompt tokens prefilled for the first time.
    pub input_tokens: u64,
    /// Tokens generated (each decode step of each active request adds 1).
    pub output_tokens: u64,
    /// Tokens prefilled again after recompute-evictions.
    pub recomputed_tokens: u64,
    /// Tokens moved over the host link by swap-preemption (out + in).
    pub swapped_tokens: u64,
}

impl RequestPool {
    /// The pool of `work`'s requests, read through its row accessors,
    /// with predictions from `predict` (use the oracle or a trained
    /// predictor). Latency metrics are reported relative to arrival.
    ///
    /// # Panics
    /// Panics if open-loop arrivals are neither empty nor one per request.
    pub fn for_workload<F: FnMut(&Request) -> u32>(work: &Workload<'_>, mut predict: F) -> Self {
        if let Workload::Requests { trace, arrivals } = work {
            assert!(
                arrivals.is_empty() || arrivals.len() == trace.len(),
                "one arrival per request"
            );
        }
        let n = work.len();
        let hot = (0..n)
            .map(|i| {
                let r = work.request(i);
                HotState {
                    input_len: r.input_len,
                    output_len: r.output_len.max(1),
                    predicted: predict(r).max(1),
                    generated: 0,
                    evictions: 0,
                    lifecycle: Lifecycle::Pending,
                    swapped: false,
                }
            })
            .collect();
        RequestPool {
            hot,
            ids: (0..n).map(|i| work.id(i)).collect(),
            arrivals: (0..n).map(|i| work.arrival(i)).collect(),
            first_token_at: vec![f64::NAN; n],
            finished_at: vec![f64::NAN; n],
            reuse_discount: Vec::new(),
            finished: 0,
            input_tokens: 0,
            output_tokens: 0,
            recomputed_tokens: 0,
            swapped_tokens: 0,
        }
    }

    /// Number of requests in the pool.
    #[inline]
    pub fn len(&self) -> usize {
        self.hot.len()
    }

    /// Whether the pool is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.hot.is_empty()
    }

    /// Number of finished requests.
    #[inline]
    pub fn finished(&self) -> usize {
        self.finished
    }

    /// Whether every request has finished.
    #[inline]
    pub fn all_finished(&self) -> bool {
        self.finished == self.hot.len()
    }

    /// Trace-level identity of request `idx`.
    #[inline]
    pub fn id(&self, idx: usize) -> RequestId {
        self.ids[idx]
    }

    /// Prompt tokens of request `idx`.
    #[inline]
    pub fn input_len(&self, idx: usize) -> u32 {
        self.hot[idx].input_len
    }

    /// Oracle output length of request `idx` (completion detection only).
    #[inline]
    pub fn output_len(&self, idx: usize) -> u32 {
        self.hot[idx].output_len
    }

    /// Predicted output length of request `idx`.
    #[inline]
    pub fn predicted(&self, idx: usize) -> u32 {
        self.hot[idx].predicted
    }

    /// Tokens request `idx` has generated so far.
    #[inline]
    pub fn generated(&self, idx: usize) -> u32 {
        self.hot[idx].generated
    }

    /// Lifecycle stage of request `idx`.
    #[inline]
    pub fn lifecycle(&self, idx: usize) -> Lifecycle {
        self.hot[idx].lifecycle
    }

    /// Recompute-eviction count of request `idx`.
    #[inline]
    pub fn evictions(&self, idx: usize) -> u32 {
        self.hot[idx].evictions
    }

    /// Whether request `idx`'s KV currently lives in host memory.
    #[inline]
    pub fn swapped(&self, idx: usize) -> bool {
        self.hot[idx].swapped
    }

    /// Arrival time of request `idx`.
    #[inline]
    pub fn arrival(&self, idx: usize) -> f64 {
        self.arrivals[idx]
    }

    /// Re-stamp request `idx`'s arrival time. Closed-loop session turns
    /// enter the pool with `f64::INFINITY` (not yet arrived) and are
    /// released here when their predecessor finishes plus think time.
    /// Latency metrics measure from the released arrival.
    pub fn set_arrival(&mut self, idx: usize, at: f64) {
        debug_assert!(at.is_finite(), "released arrival must be finite");
        self.arrivals[idx] = at;
    }

    /// Grant request `idx` a prefill discount of `tokens` (the shared
    /// session prefix resident in retained KV): `prefill_tokens` drops by
    /// that much until [`Self::clear_reuse_discount`]. Only meaningful
    /// while the request is `Pending` and un-evicted.
    pub fn set_reuse_discount(&mut self, idx: usize, tokens: u32) {
        debug_assert_eq!(self.hot[idx].lifecycle, Lifecycle::Pending);
        debug_assert!(tokens <= self.hot[idx].input_len, "discount exceeds prompt");
        if self.reuse_discount.is_empty() {
            self.reuse_discount = vec![0; self.hot.len()];
        }
        self.reuse_discount[idx] = tokens;
    }

    /// Revoke request `idx`'s prefill discount (its retained prefix was
    /// reclaimed before admission, or was consumed by the admitting
    /// prefill).
    pub fn clear_reuse_discount(&mut self, idx: usize) {
        if let Some(d) = self.reuse_discount.get_mut(idx) {
            *d = 0;
        }
    }

    /// Current prefill discount of request `idx` (0 unless a retained
    /// session prefix is reserved for it).
    #[inline]
    pub fn reuse_discount(&self, idx: usize) -> u32 {
        self.reuse_discount.get(idx).copied().unwrap_or(0)
    }

    /// Tokens of KV request `idx` holds while resident.
    #[inline]
    pub fn resident_tokens(&self, idx: usize) -> u64 {
        let h = &self.hot[idx];
        h.input_len as u64 + h.generated as u64
    }

    /// Tokens the *next* prefill of request `idx` must process: prompt
    /// plus any generated tokens being recomputed after an eviction, minus
    /// any session-reuse discount (a shared prefix already resident in
    /// retained KV — see [`Self::set_reuse_discount`]). Every planning
    /// surface (the packer, the intensity estimator, its debug oracle)
    /// reads this one method, so they all coherently see the reduced cost.
    #[inline]
    pub fn prefill_tokens(&self, idx: usize) -> u32 {
        let h = &self.hot[idx];
        let discount = self.reuse_discount.get(idx).copied().unwrap_or(0);
        (h.input_len + h.generated).saturating_sub(discount)
    }

    /// Predicted tokens request `idx` has still to generate.
    #[inline]
    pub fn predicted_remaining(&self, idx: usize) -> u32 {
        let h = &self.hot[idx];
        h.predicted.saturating_sub(h.generated)
    }

    /// Record that request `idx` was prefilled (`tokens` processed). The
    /// first prefill counts toward `input_tokens`; re-prefills after
    /// eviction count toward `recomputed_tokens`.
    pub fn note_prefill(&mut self, idx: usize, tokens: u32) {
        let h = &mut self.hot[idx];
        debug_assert_eq!(h.lifecycle, Lifecycle::Pending);
        h.lifecycle = Lifecycle::Decoding;
        if h.evictions == 0 {
            self.input_tokens += tokens as u64;
        } else {
            self.recomputed_tokens += tokens as u64;
        }
    }

    /// Virtual time request `idx`'s first output token appeared (NaN
    /// until its first prefill completes).
    #[inline]
    pub fn first_token_at(&self, idx: usize) -> f64 {
        self.first_token_at[idx]
    }

    /// Virtual time request `idx` produced its last output token (NaN
    /// until it finishes).
    #[inline]
    pub fn finished_at(&self, idx: usize) -> f64 {
        self.finished_at[idx]
    }

    /// Record the virtual time a request's first output token appeared
    /// (the end of its prefill job). Set-once: recomputation after an
    /// eviction does not move the original first-token time.
    pub fn note_first_token(&mut self, idx: usize, at: f64) {
        let t = &mut self.first_token_at[idx];
        if t.is_nan() {
            *t = at;
        }
    }

    /// Advance request `idx` by one generated token at virtual time `now`;
    /// returns `true` when the request just finished.
    pub fn note_decode_step(&mut self, idx: usize, now: f64) -> bool {
        let h = &mut self.hot[idx];
        debug_assert_eq!(h.lifecycle, Lifecycle::Decoding);
        h.generated += 1;
        self.output_tokens += 1;
        if h.generated >= h.output_len {
            h.lifecycle = Lifecycle::Finished;
            self.finished_at[idx] = now;
            self.finished += 1;
            true
        } else {
            false
        }
    }

    /// Settle `steps` banked decode steps on a *surviving* request — the
    /// bulk equivalent of `steps` [`note_decode_step`](Self::note_decode_step)
    /// calls none of which finishes it. The event-driven decode cohort
    /// (see `crate::cohort`) banks generated tokens as arithmetic and
    /// materialises them here only when a member leaves its batch.
    pub fn advance_decode_steps(&mut self, idx: usize, steps: u32) {
        if steps == 0 {
            return;
        }
        let h = &mut self.hot[idx];
        debug_assert_eq!(h.lifecycle, Lifecycle::Decoding);
        h.generated += steps;
        debug_assert!(
            h.generated < h.output_len,
            "survivor settled past its last token"
        );
        self.output_tokens += steps as u64;
    }

    /// Settle `steps` decode steps of which the *last* finishes the
    /// request at virtual time `now` — the bulk equivalent of `steps`
    /// [`note_decode_step`](Self::note_decode_step) calls where only the
    /// final one returns `true`.
    pub fn finish_decode(&mut self, idx: usize, steps: u32, now: f64) {
        debug_assert!(steps >= 1, "a finish settles at least its own step");
        let h = &mut self.hot[idx];
        debug_assert_eq!(h.lifecycle, Lifecycle::Decoding);
        h.generated += steps;
        debug_assert_eq!(
            h.generated, h.output_len,
            "finish epoch must land exactly on the last token"
        );
        h.lifecycle = Lifecycle::Finished;
        self.output_tokens += steps as u64;
        self.finished_at[idx] = now;
        self.finished += 1;
    }

    /// Per-request latency distribution; `None` until every request has
    /// finished and has a first-token timestamp.
    pub fn latency_summary(&self) -> Option<LatencySummary> {
        if !self.all_finished() || self.is_empty() {
            return None;
        }
        let mut ttft = Vec::with_capacity(self.len());
        let mut done = Vec::with_capacity(self.len());
        let mut tpot = Vec::with_capacity(self.len());
        for idx in 0..self.len() {
            let first = self.first_token_at[idx];
            let fin = self.finished_at[idx];
            if first.is_nan() || fin.is_nan() {
                return None;
            }
            let arrival = self.arrivals[idx];
            ttft.push(first - arrival);
            done.push(fin - arrival);
            // Time per output token: the decode span divided by the tokens
            // generated after the first (a single-token request decodes
            // nothing further and contributes 0).
            tpot.push((fin - first) / (self.hot[idx].output_len.max(2) - 1) as f64);
        }
        // Means sum in request order (the order the old per-percentile
        // clones never disturbed); then each field's percentiles select
        // only the order statistics they read, which reorders the field.
        let ttft_mean = ttft.iter().sum::<f64>() / ttft.len() as f64;
        let completion_mean = done.iter().sum::<f64>() / done.len() as f64;
        let [ttft_p50, ttft_p95, ttft_p99] = percentiles_selected(&mut ttft, [50.0, 95.0, 99.0]);
        let [tpot_p50, tpot_p95] = percentiles_selected(&mut tpot, [50.0, 95.0]);
        let [completion_p50, completion_p99] = percentiles_selected(&mut done, [50.0, 99.0]);
        Some(LatencySummary {
            ttft_mean,
            ttft_p50,
            ttft_p95,
            ttft_p99,
            tpot_p50,
            tpot_p95,
            completion_mean,
            completion_p50,
            completion_p99,
        })
    }

    /// Record a recompute-eviction: the request keeps its generated tokens
    /// (they will be recomputed) and returns to the pending queue.
    pub fn note_eviction(&mut self, idx: usize) {
        let h = &mut self.hot[idx];
        debug_assert_eq!(h.lifecycle, Lifecycle::Decoding);
        h.lifecycle = Lifecycle::Pending;
        h.evictions += 1;
    }

    /// Record a swap-out: the KV moves to host memory; the request rejoins
    /// the pending queue flagged for swap-in re-admission.
    pub fn note_swap_out(&mut self, idx: usize) {
        let h = &mut self.hot[idx];
        debug_assert_eq!(h.lifecycle, Lifecycle::Decoding);
        h.lifecycle = Lifecycle::Pending;
        h.swapped = true;
        h.evictions += 1;
        self.swapped_tokens += h.input_len as u64 + h.generated as u64;
    }

    /// Record a swap-in of `tokens` resident tokens (the transfer back).
    pub fn note_swap_in(&mut self, idx: usize, tokens: u64) {
        let h = &mut self.hot[idx];
        debug_assert_eq!(h.lifecycle, Lifecycle::Pending);
        debug_assert!(h.swapped, "swap-in of a non-swapped request");
        h.lifecycle = Lifecycle::Decoding;
        h.swapped = false;
        self.swapped_tokens += tokens;
    }

    /// Panic unless every request finished exactly (conservation check for
    /// integration tests).
    pub fn assert_conserved(&self) {
        assert_eq!(self.finished, self.hot.len(), "unfinished requests");
        for (i, h) in self.hot.iter().enumerate() {
            assert_eq!(h.lifecycle, Lifecycle::Finished, "{} not finished", self.ids[i]);
            assert_eq!(h.generated, h.output_len, "{} wrong token count", self.ids[i]);
        }
        let expect: u64 = self.hot.iter().map(|h| h.output_len as u64).sum();
        assert_eq!(self.output_tokens, expect, "output token accounting drift");
    }
}

// Test-only constructors over a bare request slice.
#[cfg(test)]
impl RequestPool {
    /// Build the pool from trace requests, attaching predictions via
    /// `predict` (use the oracle or a trained predictor).
    pub(crate) fn new<F: FnMut(&Request) -> u32>(requests: &[Request], predict: F) -> Self {
        Self::with_arrivals(requests, &[], predict)
    }

    /// Like [`Self::new`] with per-request arrival times (empty slice =
    /// all at t = 0).
    pub(crate) fn with_arrivals<F: FnMut(&Request) -> u32>(
        requests: &[Request],
        arrivals: &[f64],
        predict: F,
    ) -> Self {
        let trace = tdpipe_workload::Trace::new(requests.to_vec());
        Self::for_workload(&Workload::Requests { trace: &trace, arrivals }, predict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdpipe_workload::ShareGptLikeConfig;

    fn pool(n: usize) -> RequestPool {
        let t = ShareGptLikeConfig::small(n, 1).generate();
        RequestPool::new(t.requests(), |r| r.output_len) // oracle
    }

    #[test]
    fn lifecycle_happy_path() {
        let mut p = pool(3);
        let out = p.output_len(0);
        p.note_prefill(0, p.input_len(0));
        assert_eq!(p.lifecycle(0), Lifecycle::Decoding);
        for step in 0..out {
            let finished = p.note_decode_step(0, step as f64);
            assert_eq!(finished, step + 1 == out);
        }
        assert_eq!(p.finished(), 1);
        assert_eq!(p.output_tokens, out as u64);
    }

    #[test]
    fn bulk_decode_settles_match_per_step_notes() {
        // The cohort settle paths must be byte-for-byte the same as the
        // equivalent sequence of note_decode_step calls.
        let mut bulk = pool(2);
        let mut step = pool(2);
        for idx in 0..2 {
            bulk.note_prefill(idx, bulk.input_len(idx));
            step.note_prefill(idx, step.input_len(idx));
        }
        let out = bulk.output_len(0);
        // Request 0: settle all but the last step in one call, then finish.
        bulk.advance_decode_steps(0, out - 1);
        bulk.finish_decode(0, 1, 7.25);
        for s in 0..out {
            step.note_decode_step(0, 7.25 + s as f64 * 0.0); // same finish stamp
        }
        // Request 1: finish in a single bulk call.
        let out1 = bulk.output_len(1);
        bulk.finish_decode(1, out1, 9.5);
        for _ in 0..out1 {
            step.note_decode_step(1, 9.5);
        }
        assert_eq!(bulk.finished(), step.finished());
        assert_eq!(bulk.output_tokens, step.output_tokens);
        for idx in 0..2 {
            assert_eq!(bulk.generated(idx), step.generated(idx));
            assert_eq!(bulk.lifecycle(idx), step.lifecycle(idx));
        }
        bulk.assert_conserved();
    }

    #[test]
    fn zero_step_settle_is_a_noop() {
        let mut p = pool(1);
        p.note_prefill(0, p.input_len(0));
        p.advance_decode_steps(0, 0);
        assert_eq!(p.generated(0), 0);
        assert_eq!(p.output_tokens, 0);
    }

    #[test]
    fn eviction_recomputes() {
        let mut p = pool(1);
        let input = p.input_len(0);
        p.note_prefill(0, input);
        p.note_decode_step(0, 0.5); // at least 1 token generated (output_len >= 1)
        if p.lifecycle(0) == Lifecycle::Finished {
            return; // 1-token output: nothing to evict
        }
        p.note_eviction(0);
        assert_eq!(p.lifecycle(0), Lifecycle::Pending);
        assert_eq!(p.prefill_tokens(0), input + 1);
        p.note_prefill(0, input + 1);
        assert_eq!(p.recomputed_tokens, (input + 1) as u64);
        assert_eq!(p.input_tokens, input as u64);
    }

    #[test]
    fn conservation_detects_incomplete_runs() {
        let p = pool(2);
        let r = std::panic::catch_unwind(move || p.assert_conserved());
        assert!(r.is_err());
    }

    /// Pins the `LatencySummary` semantics documented in
    /// `tdpipe-sim::report`: times are measured from each request's
    /// *arrival*, not from t = 0.
    #[test]
    fn latency_summary_is_arrival_relative() {
        let t = ShareGptLikeConfig::small(2, 1).generate();
        let arrivals = [0.0, 10.0];
        let mut p = RequestPool::with_arrivals(t.requests(), &arrivals, |r| r.output_len);
        for idx in 0..2 {
            p.note_prefill(idx, p.input_len(idx));
            // First token exactly 1s after arrival, one token per second
            // after that.
            p.note_first_token(idx, arrivals[idx] + 1.0);
            for step in 0..p.output_len(idx) {
                p.note_decode_step(idx, arrivals[idx] + 1.0 + (step + 1) as f64);
            }
        }
        let s = p.latency_summary().expect("all finished");
        // Both requests saw TTFT 1.0 relative to arrival, even though the
        // second's first token appeared at t = 11 absolute. A t=0-relative
        // summary would report a mean of (1 + 11) / 2 = 6.
        assert!((s.ttft_mean - 1.0).abs() < 1e-12, "ttft {}", s.ttft_mean);
        assert!((s.ttft_p50 - 1.0).abs() < 1e-12);
        assert!((s.ttft_p95 - 1.0).abs() < 1e-12);
        assert!((s.ttft_p99 - 1.0).abs() < 1e-12);
        // One token per virtual second: the decode span is `output_len`
        // seconds over `max(output_len, 2) - 1` post-first tokens, so
        // every per-request TPOT sits in [1, 2] and is arrival-independent.
        assert!(
            s.tpot_p50 >= 1.0 - 1e-12 && s.tpot_p50 <= 2.0 + 1e-12,
            "tpot p50 {}",
            s.tpot_p50
        );
        assert!(s.tpot_p95 >= s.tpot_p50);
        // finished_at lands at arrival + 1 + output_len.
        let mean_expect = (0..2)
            .map(|i| 1.0 + p.output_len(i) as f64)
            .sum::<f64>()
            / 2.0;
        assert!((s.completion_mean - mean_expect).abs() < 1e-9);
    }

    #[test]
    fn predicted_remaining_saturates() {
        let mut p = pool(1);
        p.hot[0].predicted = 5;
        p.hot[0].generated = 9;
        assert_eq!(p.predicted_remaining(0), 0);
    }

    #[test]
    fn reuse_discount_shrinks_prefill_but_not_residency() {
        let mut p = pool(2);
        let input = p.input_len(0);
        assert_eq!(p.reuse_discount(0), 0);
        assert_eq!(p.prefill_tokens(0), input);
        // A retained 10-token prefix: only the fresh suffix is prefilled,
        // but the request still occupies its full prompt once admitted.
        let shared = input.min(10);
        p.set_reuse_discount(0, shared);
        assert_eq!(p.prefill_tokens(0), input - shared);
        assert_eq!(p.resident_tokens(0), input as u64);
        // The sibling request is untouched.
        assert_eq!(p.prefill_tokens(1), p.input_len(1));
        // Revocation restores the full cost.
        p.clear_reuse_discount(0);
        assert_eq!(p.prefill_tokens(0), input);
        // Accounting uses whatever the engine passes to note_prefill, so a
        // fresh-suffix admission records only the suffix as input tokens.
        p.set_reuse_discount(0, shared);
        let fresh = p.prefill_tokens(0);
        p.note_prefill(0, fresh);
        assert_eq!(p.input_tokens, (input - shared) as u64);
    }

    #[test]
    fn infinity_arrivals_release_via_set_arrival() {
        let t = ShareGptLikeConfig::small(2, 1).generate();
        let arrivals = [0.0, f64::INFINITY];
        let mut p = RequestPool::with_arrivals(t.requests(), &arrivals, |r| r.output_len);
        assert!(p.arrival(1).is_infinite());
        p.set_arrival(1, 12.5);
        assert_eq!(p.arrival(1), 12.5);
    }

    #[test]
    fn hot_state_stays_one_third_of_a_cache_line() {
        // The arena's point: a decode sweep reads 24 bytes per request,
        // not a pointer chase. Growing this struct is a perf regression —
        // move anything not read per-step into the cold arrays instead.
        assert!(std::mem::size_of::<HotState>() <= 24);
    }
}
