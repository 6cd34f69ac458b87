//! Request lifecycle tracking shared by every scheduler.
//!
//! A run touches each request for a while and is then done with it, so
//! the pool keeps per-request state in three tiers:
//!
//! * **Untouched** requests — not yet admitted — have no state of their
//!   own: their ids, arrivals and output lengths are read from the
//!   [`Workload`] the run was given. Two dense `u32` columns serve the
//!   reads the §3.5 estimate walk and the packers make over the pending
//!   queue: the prompt length and the predicted output length (filled up
//!   front with one predictor call per request, in id order). Reading
//!   prompt lengths from the 112-byte trace rows instead cost online
//!   TD-Pipe runs about a fifth more CPU time.
//! * **Live** requests carry one record each — output length, generated
//!   tokens, evictions, lifecycle, first-token time and admission stamp —
//!   in an [`IdWindow`] that spans the ids from the oldest unfinished
//!   request to the newest one the run has touched. A decode sweep reads
//!   records in one short `Vec`, not in trace-sized columns.
//! * **Finished** requests leave behind only their three latency results
//!   (TTFT, completion time, TPOT), each a dense column written once at
//!   the finish. Their records retire from the window's front at the next
//!   finish, so a hook can still read a finisher's record right after
//!   [`RequestPool::finish_decode`].
//!
//! Every id keeps its meaning, so no schedule, tie-break or report byte
//! depends on which tier a request is in.

use tdpipe_kvcache::{IdWindow, Slot};
use tdpipe_sim::LatencySummary;
use tdpipe_workload::stats::percentiles_selected;
use tdpipe_workload::{Request, RequestId, Workload};

/// Request `idx` as an admission-queue entry. Queues are filled with
/// every request of a run up front, so they hold `u32`s, half a `usize`
/// each; [`crate::driver::RunState::new`] refuses runs with more requests.
#[inline]
pub fn queued(idx: usize) -> u32 {
    debug_assert!(u32::try_from(idx).is_ok(), "request {idx} past the u32 queue range");
    idx as u32
}

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

/// A touched, unfinished request's state (plus, until the next finish, a
/// just-finished one's).
///
/// `output_len` is the simulator oracle: schedulers must only compare it
/// against `generated` to detect completion (the simulated act of sampling
/// an EOS token), never use it for planning — planning uses `predicted`.
#[derive(Debug, Clone, Copy)]
struct Live {
    /// Oracle output length (EOS position).
    output_len: u32,
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
    /// Virtual time the first output token was produced (NaN until then).
    first_token_at: f64,
    /// Admission sequence number: later admissions are evicted first.
    admission_seq: u64,
}

// One record per request in flight: a field that widens it multiplies into
// every decode sweep, though no longer into the run's peak memory.
const _: () = assert!(std::mem::size_of::<Live>() == 32);

impl Live {
    /// The state of request `r` before the run touches it.
    fn fresh(r: &Request) -> Live {
        Live {
            output_len: r.output_len.max(1),
            generated: 0,
            evictions: 0,
            lifecycle: Lifecycle::Pending,
            swapped: false,
            first_token_at: f64::NAN,
            admission_seq: 0,
        }
    }
}

/// The pool of all requests in a run, with conservation accounting; every
/// scheduler takes one per run.
///
/// Requests are addressed by pool index everywhere (the allocator, the
/// planner, batch membership lists); the pool is the single source of
/// truth for per-request state, and reads it from `work` for requests the
/// run has not touched (see the module docs).
#[derive(Debug, Clone)]
pub struct RequestPool<'w> {
    /// The requests, read for every row the run has not touched.
    work: Workload<'w>,
    /// Prompt tokens per request.
    input_len: Vec<u32>,
    /// Predicted output length per request (filled by the configured
    /// predictor; at least 1).
    predicted: Vec<u32>,
    /// Live records, from the oldest unfinished request to the newest
    /// touched one (see [`Live`]).
    live: IdWindow<Live>,
    /// Each request's arrival once one was re-stamped (a session run's
    /// released turns; empty until then, and for open-loop runs, which
    /// read `work`).
    arrivals: Vec<f64>,
    /// Time to first token per request, from its arrival (written when it
    /// finishes).
    ttft: Vec<f64>,
    /// Completion time per request, from its arrival.
    completion: Vec<f64>,
    /// Time per output token after the first, per request.
    tpot: Vec<f64>,
    next_seq: u64,
    finished: usize,
    /// Output tokens the whole workload generates (its oracle lengths).
    expected_output: u64,
    /// Prompt tokens prefilled for the first time.
    pub input_tokens: u64,
    /// Tokens generated (each decode step of each active request adds 1).
    pub output_tokens: u64,
    /// Tokens prefilled again after recompute-evictions.
    pub recomputed_tokens: u64,
    /// Tokens moved over the host link by swap-preemption (out + in).
    pub swapped_tokens: u64,
}

impl<'w> RequestPool<'w> {
    /// The pool of `work`'s requests, read through its row accessors,
    /// with predictions from `predict` (use the oracle or a trained
    /// predictor). Latency metrics are reported relative to arrival.
    ///
    /// # Panics
    /// Panics if open-loop arrivals are neither empty nor one per request.
    pub fn for_workload<F: FnMut(&Request) -> u32>(work: &Workload<'w>, mut predict: F) -> Self {
        if let Workload::Requests { trace, arrivals } = work {
            assert!(
                arrivals.is_empty() || arrivals.len() == trace.len(),
                "one arrival per request"
            );
        }
        let n = work.len();
        let (mut input_len, mut predicted) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let mut expected_output = 0;
        for i in 0..n {
            let r = work.request(i);
            input_len.push(r.input_len);
            predicted.push(predict(r).max(1));
            expected_output += r.output_len.max(1) as u64;
        }
        // The result columns are written once per request, at its finish:
        // zeroed allocations stay unbacked until then.
        RequestPool {
            work: *work,
            input_len,
            predicted,
            live: IdWindow::new(),
            arrivals: Vec::new(),
            ttft: vec![0.0; n],
            completion: vec![0.0; n],
            tpot: vec![0.0; n],
            next_seq: 0,
            finished: 0,
            expected_output,
            input_tokens: 0,
            output_tokens: 0,
            recomputed_tokens: 0,
            swapped_tokens: 0,
        }
    }

    /// Request `idx`'s live record, touching it (and every untouched
    /// request below it) if the run had not yet. A retired request is
    /// never written again.
    #[inline]
    fn rec_mut(&mut self, idx: usize) -> &mut Live {
        debug_assert!(idx >= self.live.base(), "request {idx} written after it retired");
        let work = &self.work;
        self.live.entry(idx, |i| Live::fresh(work.request(i)))
    }

    /// The most requests the live window ever spanned.
    pub fn window_high_water(&self) -> usize {
        self.live.high_water()
    }

    /// Number of requests in the pool.
    #[inline]
    pub fn len(&self) -> usize {
        self.predicted.len()
    }

    /// Whether the pool is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.predicted.is_empty()
    }

    /// Number of finished requests.
    #[inline]
    pub fn finished(&self) -> usize {
        self.finished
    }

    /// Whether every request has finished.
    #[inline]
    pub fn all_finished(&self) -> bool {
        self.finished == self.len()
    }

    /// Trace-level identity of request `idx`.
    #[inline]
    pub fn id(&self, idx: usize) -> RequestId {
        self.work.id(idx)
    }

    /// Prompt tokens of request `idx`.
    #[inline]
    pub fn input_len(&self, idx: usize) -> u32 {
        self.input_len[idx]
    }

    /// Oracle output length of request `idx` (completion detection only).
    #[inline]
    pub fn output_len(&self, idx: usize) -> u32 {
        match self.live.slot(idx) {
            Slot::Live(r) => r.output_len,
            Slot::Retired | Slot::Untouched => self.work.request(idx).output_len.max(1),
        }
    }

    /// Predicted output length of request `idx`.
    #[inline]
    pub fn predicted(&self, idx: usize) -> u32 {
        self.predicted[idx]
    }

    /// Tokens request `idx` has generated so far: all of its output once
    /// it retired.
    #[inline]
    pub fn generated(&self, idx: usize) -> u32 {
        match self.live.slot(idx) {
            Slot::Live(r) => r.generated,
            Slot::Untouched => 0,
            Slot::Retired => self.output_len(idx),
        }
    }

    /// Lifecycle stage of request `idx`.
    #[inline]
    pub fn lifecycle(&self, idx: usize) -> Lifecycle {
        match self.live.slot(idx) {
            Slot::Live(r) => r.lifecycle,
            Slot::Untouched => Lifecycle::Pending,
            Slot::Retired => Lifecycle::Finished,
        }
    }

    /// Recompute-eviction count of request `idx` (0 once it retired).
    #[inline]
    pub fn evictions(&self, idx: usize) -> u32 {
        match self.live.slot(idx) {
            Slot::Live(r) => r.evictions,
            Slot::Retired | Slot::Untouched => 0,
        }
    }

    /// Whether request `idx`'s KV currently lives in host memory.
    #[inline]
    pub fn swapped(&self, idx: usize) -> bool {
        match self.live.slot(idx) {
            Slot::Live(r) => r.swapped,
            Slot::Retired | Slot::Untouched => false,
        }
    }

    /// Arrival time of request `idx`.
    #[inline]
    pub fn arrival(&self, idx: usize) -> f64 {
        match self.arrivals.get(idx) {
            Some(&at) => at,
            None => self.work.arrival(idx),
        }
    }

    /// Re-stamp request `idx`'s arrival time. Closed-loop session turns
    /// enter the pool with `f64::INFINITY` (not yet arrived) and are
    /// released here when their predecessor finishes plus think time.
    /// Latency metrics measure from the released arrival.
    pub fn set_arrival(&mut self, idx: usize, at: f64) {
        debug_assert!(at.is_finite(), "released arrival must be finite");
        if self.arrivals.is_empty() {
            self.arrivals = (0..self.len()).map(|i| self.work.arrival(i)).collect();
        }
        self.arrivals[idx] = at;
    }

    /// Tokens of KV request `idx` holds while resident.
    #[inline]
    pub fn resident_tokens(&self, idx: usize) -> u64 {
        self.input_len(idx) as u64 + self.generated(idx) as u64
    }

    /// Tokens the *next* prefill of request `idx` must process: prompt
    /// plus any generated tokens being recomputed after an eviction. A
    /// session turn whose prefix is retained computes less: TD-Pipe reads
    /// its discounted count through `estimate::Queue::prefill_tokens`.
    #[inline]
    pub fn prefill_tokens(&self, idx: usize) -> u32 {
        self.input_len(idx) + self.generated(idx)
    }

    /// Predicted tokens request `idx` has still to generate.
    #[inline]
    pub fn predicted_remaining(&self, idx: usize) -> u32 {
        self.predicted[idx].saturating_sub(self.generated(idx))
    }

    /// Record that request `idx` was prefilled (`tokens` processed). The
    /// first prefill counts toward `input_tokens`; re-prefills after
    /// eviction count toward `recomputed_tokens`.
    pub fn note_prefill(&mut self, idx: usize, tokens: u32) {
        let h = self.rec_mut(idx);
        debug_assert_eq!(h.lifecycle, Lifecycle::Pending);
        h.lifecycle = Lifecycle::Decoding;
        let first = h.evictions == 0;
        if first {
            self.input_tokens += tokens as u64;
        } else {
            self.recomputed_tokens += tokens as u64;
        }
    }

    /// Stamp request `idx`'s admission: later admissions are evicted
    /// first.
    pub fn stamp_admission(&mut self, idx: usize) {
        let seq = self.next_seq;
        self.rec_mut(idx).admission_seq = seq;
        self.next_seq += 1;
    }

    /// Request `idx`'s admission stamp (0 before its first admission).
    #[inline]
    pub fn admission_seq(&self, idx: usize) -> u64 {
        match self.live.slot(idx) {
            Slot::Live(r) => r.admission_seq,
            Slot::Retired | Slot::Untouched => 0,
        }
    }

    /// Virtual time request `idx`'s first output token appeared: NaN until
    /// its first prefill completes, and again once it retired (at the
    /// finish after its own).
    #[inline]
    pub fn first_token_at(&self, idx: usize) -> f64 {
        match self.live.slot(idx) {
            Slot::Live(r) => r.first_token_at,
            Slot::Retired | Slot::Untouched => f64::NAN,
        }
    }

    /// Record the virtual time a request's first output token appeared
    /// (the end of its prefill job). Set-once: recomputation after an
    /// eviction does not move the original first-token time.
    pub fn note_first_token(&mut self, idx: usize, at: f64) {
        let t = &mut self.rec_mut(idx).first_token_at;
        if t.is_nan() {
            *t = at;
        }
    }

    /// Advance request `idx` by one generated token at virtual time `now`;
    /// returns `true` when the request just finished.
    pub fn note_decode_step(&mut self, idx: usize, now: f64) -> bool {
        let h = self.rec_mut(idx);
        debug_assert_eq!(h.lifecycle, Lifecycle::Decoding);
        h.generated += 1;
        let done = h.generated >= h.output_len;
        self.output_tokens += 1;
        if done {
            self.finish(idx, now);
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
        let h = self.rec_mut(idx);
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
        let h = self.rec_mut(idx);
        debug_assert_eq!(h.lifecycle, Lifecycle::Decoding);
        h.generated += steps;
        debug_assert_eq!(
            h.generated, h.output_len,
            "finish epoch must land exactly on the last token"
        );
        self.output_tokens += steps as u64;
        self.finish(idx, now);
    }

    /// Request `idx` produced its last token at `now`: retire the records
    /// of earlier finishers at the window's front (`idx` itself stays
    /// readable until the next finish), mark it finished and write its
    /// latency results.
    fn finish(&mut self, idx: usize, now: f64) {
        self.live.retire_front(|r| r.lifecycle == Lifecycle::Finished);
        let arrival = self.arrival(idx);
        let h = self.rec_mut(idx);
        h.lifecycle = Lifecycle::Finished;
        let (first, output_len) = (h.first_token_at, h.output_len);
        self.ttft[idx] = first - arrival;
        self.completion[idx] = now - arrival;
        // Time per output token: the decode span divided by the tokens
        // generated after the first (a single-token request decodes
        // nothing further and contributes 0).
        self.tpot[idx] = (now - first) / (output_len.max(2) - 1) as f64;
        self.finished += 1;
    }

    /// Per-request latency distribution, taking the result columns; `None`
    /// until every request has finished with a first-token timestamp.
    pub fn latency_summary(self) -> Option<LatencySummary> {
        if !self.all_finished() || self.is_empty() || self.ttft.iter().any(|t| t.is_nan()) {
            return None;
        }
        let RequestPool {
            mut ttft,
            completion: mut done,
            mut tpot,
            ..
        } = self;
        // Means sum in request order; then each field's percentiles select
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
        let h = self.rec_mut(idx);
        debug_assert_eq!(h.lifecycle, Lifecycle::Decoding);
        h.lifecycle = Lifecycle::Pending;
        h.evictions += 1;
    }

    /// Record a swap-out: the KV moves to host memory; the request rejoins
    /// the pending queue flagged for swap-in re-admission.
    pub fn note_swap_out(&mut self, idx: usize) {
        let h = self.rec_mut(idx);
        debug_assert_eq!(h.lifecycle, Lifecycle::Decoding);
        h.lifecycle = Lifecycle::Pending;
        h.swapped = true;
        h.evictions += 1;
        let generated = h.generated;
        self.swapped_tokens += self.input_len[idx] as u64 + generated as u64;
    }

    /// Record a swap-in of `tokens` resident tokens (the transfer back).
    pub fn note_swap_in(&mut self, idx: usize, tokens: u64) {
        let h = self.rec_mut(idx);
        debug_assert_eq!(h.lifecycle, Lifecycle::Pending);
        debug_assert!(h.swapped, "swap-in of a non-swapped request");
        h.lifecycle = Lifecycle::Decoding;
        h.swapped = false;
        self.swapped_tokens += tokens;
    }

    /// Panic unless every request finished and the output tokens add up
    /// (conservation check; each finish already checked its own count in
    /// debug builds).
    pub fn assert_conserved(&self) {
        assert_eq!(self.finished, self.len(), "unfinished requests");
        let expect = self.expected_output;
        assert_eq!(self.output_tokens, expect, "output token accounting drift");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tdpipe_workload::{ShareGptLikeConfig, Trace};

    fn trace(n: usize) -> Trace {
        ShareGptLikeConfig::small(n, 1).generate()
    }

    /// The oracle-predicted pool over `t`, all arrivals at 0.
    fn pool(t: &Trace) -> RequestPool<'_> {
        RequestPool::for_workload(&Workload::offline(t), |r| r.output_len)
    }

    #[test]
    fn lifecycle_happy_path() {
        let t = trace(3);
        let mut p = pool(&t);
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
        let t = trace(2);
        let mut bulk = pool(&t);
        let mut step = pool(&t);
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
        let t = trace(1);
        let mut p = pool(&t);
        p.note_prefill(0, p.input_len(0));
        p.advance_decode_steps(0, 0);
        assert_eq!(p.generated(0), 0);
        assert_eq!(p.output_tokens, 0);
    }

    #[test]
    fn eviction_recomputes() {
        let t = trace(1);
        let mut p = pool(&t);
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
        let t = trace(2);
        let p = pool(&t);
        let r = std::panic::catch_unwind(move || p.assert_conserved());
        assert!(r.is_err());
    }

    /// Pins the `LatencySummary` semantics documented in
    /// `tdpipe-sim::report`: times are measured from each request's
    /// *arrival*, not from t = 0.
    #[test]
    fn latency_summary_is_arrival_relative() {
        let t = trace(2);
        let arrivals = [0.0, 10.0];
        let work = Workload::Requests { trace: &t, arrivals: &arrivals };
        let mut p = RequestPool::for_workload(&work, |r| r.output_len);
        for idx in 0..2 {
            p.note_prefill(idx, p.input_len(idx));
            // First token exactly 1s after arrival, one token per second
            // after that.
            p.note_first_token(idx, arrivals[idx] + 1.0);
            for step in 0..p.output_len(idx) {
                p.note_decode_step(idx, arrivals[idx] + 1.0 + (step + 1) as f64);
            }
        }
        // Completion lands at arrival + 1 + output_len.
        let mean_expect = (0..2)
            .map(|i| 1.0 + p.output_len(i) as f64)
            .sum::<f64>()
            / 2.0;
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
        assert!((s.completion_mean - mean_expect).abs() < 1e-9);
    }

    #[test]
    fn predicted_remaining_saturates() {
        let t = trace(1);
        let mut p = pool(&t);
        p.predicted[0] = 5;
        p.rec_mut(0).generated = 9;
        assert_eq!(p.predicted_remaining(0), 0);
    }

    #[test]
    fn infinity_arrivals_release_via_set_arrival() {
        let t = trace(2);
        let arrivals = [0.0, f64::INFINITY];
        let work = Workload::Requests { trace: &t, arrivals: &arrivals };
        let mut p = RequestPool::for_workload(&work, |r| r.output_len);
        assert!(p.arrival(1).is_infinite());
        p.set_arrival(1, 12.5);
        assert_eq!(p.arrival(1), 12.5);
        assert_eq!(p.arrival(0), 0.0);
    }

    #[test]
    fn finished_records_retire_at_the_next_finish() {
        let t = trace(3);
        let mut p = pool(&t);
        for idx in 0..3 {
            p.note_prefill(idx, p.input_len(idx));
            p.note_first_token(idx, 1.0);
        }
        let out0 = p.output_len(0);
        p.finish_decode(0, out0, 5.0);
        // The finisher's record is still readable right after its finish.
        assert_eq!(p.first_token_at(0), 1.0);
        assert_eq!(p.live.base(), 0);
        let out2 = p.output_len(2);
        p.finish_decode(2, out2, 6.0);
        // Request 0 retired at request 2's finish; 1 still decodes, so 2
        // stays in the window behind it.
        assert_eq!((p.live.base(), p.live.end()), (1, 3));
        assert!(p.first_token_at(0).is_nan());
        assert_eq!((p.lifecycle(0), p.generated(0)), (Lifecycle::Finished, out0));
        assert_eq!(p.first_token_at(2), 1.0);
        assert_eq!(p.window_high_water(), 3);
    }

    /// The pool as it was before windows: one dense record and timestamp
    /// per request for the whole run. The windowed pool must read like it
    /// and summarise to the same bits.
    /// One request's state in the dense reference.
    #[derive(Clone, Copy)]
    struct DenseRec {
        input_len: u32,
        output_len: u32,
        generated: u32,
        evictions: u32,
        lifecycle: Lifecycle,
        swapped: bool,
        first_token_at: f64,
        admission_seq: u64,
    }

    struct DensePool {
        recs: Vec<DenseRec>,
        predicted: Vec<u32>,
        arrivals: Vec<f64>,
        finished_at: Vec<f64>,
        next_seq: u64,
        finished: usize,
        input_tokens: u64,
        output_tokens: u64,
        recomputed_tokens: u64,
        swapped_tokens: u64,
    }

    impl DensePool {
        fn new(work: &Workload<'_>, predicted: impl Fn(&Request) -> u32) -> Self {
            let n = work.len();
            DensePool {
                recs: (0..n)
                    .map(|i| {
                        let r = work.request(i);
                        DenseRec {
                            input_len: r.input_len,
                            output_len: r.output_len.max(1),
                            generated: 0,
                            evictions: 0,
                            lifecycle: Lifecycle::Pending,
                            swapped: false,
                            first_token_at: f64::NAN,
                            admission_seq: 0,
                        }
                    })
                    .collect(),
                predicted: (0..n).map(|i| predicted(work.request(i)).max(1)).collect(),
                arrivals: (0..n).map(|i| work.arrival(i)).collect(),
                finished_at: vec![f64::NAN; n],
                next_seq: 0,
                finished: 0,
                input_tokens: 0,
                output_tokens: 0,
                recomputed_tokens: 0,
                swapped_tokens: 0,
            }
        }

        fn prefill_tokens(&self, i: usize) -> u32 {
            self.recs[i].input_len + self.recs[i].generated
        }

        fn note_prefill(&mut self, i: usize, tokens: u32) {
            let h = &mut self.recs[i];
            h.lifecycle = Lifecycle::Decoding;
            if h.evictions == 0 {
                self.input_tokens += tokens as u64;
            } else {
                self.recomputed_tokens += tokens as u64;
            }
        }

        fn stamp_admission(&mut self, i: usize) {
            self.recs[i].admission_seq = self.next_seq;
            self.next_seq += 1;
        }

        fn note_first_token(&mut self, i: usize, at: f64) {
            let t = &mut self.recs[i].first_token_at;
            if t.is_nan() {
                *t = at;
            }
        }

        fn advance(&mut self, i: usize, steps: u32, now: f64) {
            let h = &mut self.recs[i];
            h.generated += steps;
            self.output_tokens += steps as u64;
            if h.generated == h.output_len {
                h.lifecycle = Lifecycle::Finished;
                self.finished_at[i] = now;
                self.finished += 1;
            }
        }

        fn evict(&mut self, i: usize, swap: bool) {
            let h = &mut self.recs[i];
            h.lifecycle = Lifecycle::Pending;
            h.evictions += 1;
            if swap {
                h.swapped = true;
                self.swapped_tokens += h.input_len as u64 + h.generated as u64;
            }
        }

        fn swap_in(&mut self, i: usize, tokens: u64) {
            let h = &mut self.recs[i];
            h.lifecycle = Lifecycle::Decoding;
            h.swapped = false;
            self.swapped_tokens += tokens;
        }

        /// The summary as the dense pool computed it: three fresh vectors
        /// in request order.
        fn latency_summary(&self) -> LatencySummary {
            let n = self.recs.len();
            let (mut ttft, mut done, mut tpot) = (vec![], vec![], vec![]);
            for i in 0..n {
                let (first, fin, arrival) =
                    (self.recs[i].first_token_at, self.finished_at[i], self.arrivals[i]);
                ttft.push(first - arrival);
                done.push(fin - arrival);
                tpot.push((fin - first) / (self.recs[i].output_len.max(2) - 1) as f64);
            }
            let ttft_mean = ttft.iter().sum::<f64>() / n as f64;
            let completion_mean = done.iter().sum::<f64>() / n as f64;
            let [ttft_p50, ttft_p95, ttft_p99] =
                percentiles_selected(&mut ttft, [50.0, 95.0, 99.0]);
            let [tpot_p50, tpot_p95] = percentiles_selected(&mut tpot, [50.0, 95.0]);
            let [completion_p50, completion_p99] =
                percentiles_selected(&mut done, [50.0, 99.0]);
            LatencySummary {
                ttft_mean,
                ttft_p50,
                ttft_p95,
                ttft_p99,
                tpot_p50,
                tpot_p95,
                completion_mean,
                completion_p50,
                completion_p99,
            }
        }
    }

    /// Every accessor of `p` against the dense reference. A retired
    /// request's eviction count, first-token time and admission stamp are
    /// gone, so those are compared only inside the window.
    fn assert_reads_like(p: &RequestPool<'_>, d: &DensePool) -> Result<(), String> {
        prop_assert_eq!(p.len(), d.recs.len());
        prop_assert_eq!(p.finished(), d.finished);
        prop_assert_eq!(
            (p.input_tokens, p.output_tokens, p.recomputed_tokens, p.swapped_tokens),
            (d.input_tokens, d.output_tokens, d.recomputed_tokens, d.swapped_tokens)
        );
        for i in 0..p.len() {
            let r = &d.recs[i];
            prop_assert_eq!(p.input_len(i), r.input_len);
            prop_assert_eq!(p.output_len(i), r.output_len);
            prop_assert_eq!(p.predicted(i), d.predicted[i]);
            prop_assert_eq!(p.generated(i), r.generated, "generated {}", i);
            prop_assert_eq!(p.lifecycle(i), r.lifecycle, "lifecycle {}", i);
            prop_assert_eq!(p.swapped(i), r.swapped);
            prop_assert_eq!(p.resident_tokens(i), r.input_len as u64 + r.generated as u64);
            prop_assert_eq!(p.prefill_tokens(i), d.prefill_tokens(i));
            let remaining = d.predicted[i].saturating_sub(r.generated);
            prop_assert_eq!(p.predicted_remaining(i), remaining);
            prop_assert_eq!(p.arrival(i).to_bits(), d.arrivals[i].to_bits());
            if i >= p.live.base() {
                prop_assert_eq!(p.evictions(i), r.evictions);
                prop_assert_eq!(p.first_token_at(i).to_bits(), r.first_token_at.to_bits());
                prop_assert_eq!(p.admission_seq(i), r.admission_seq);
            } else {
                prop_assert_eq!(r.lifecycle, Lifecycle::Finished, "{} retired unfinished", i);
            }
        }
        Ok(())
    }

    fn summary_bits(s: &LatencySummary) -> [u64; 9] {
        [
            s.ttft_mean,
            s.ttft_p50,
            s.ttft_p95,
            s.ttft_p99,
            s.tpot_p50,
            s.tpot_p95,
            s.completion_mean,
            s.completion_p50,
            s.completion_p99,
        ]
        .map(f64::to_bits)
    }

    /// One scheduling act on the `pick`-th request (modulo the candidates)
    /// in a lifecycle stage.
    #[derive(Debug, Clone, Copy)]
    enum Act {
        /// Admit a pending request (swap-in if it was swapped out).
        Admit(usize),
        /// Settle `steps` decode steps on a decoding request, finishing it
        /// if that reaches its last token.
        Decode(usize, u32),
        /// Recompute-evict a decoding request.
        Evict(usize),
        /// Swap out a decoding request.
        SwapOut(usize),
    }

    fn arb_acts() -> impl Strategy<Value = Vec<Act>> {
        prop::collection::vec(
            prop_oneof![
                (0usize..64).prop_map(Act::Admit),
                (0usize..64, 1u32..400).prop_map(|(k, s)| Act::Decode(k, s)),
                (0usize..64, 1u32..400).prop_map(|(k, s)| Act::Decode(k, s)),
                (0usize..64).prop_map(Act::Evict),
                (0usize..64).prop_map(Act::SwapOut),
            ],
            0..160,
        )
    }

    /// Apply `act` at `now` to both pools, through the same public calls
    /// the schedulers make.
    fn apply(p: &mut RequestPool<'_>, d: &mut DensePool, act: Act, now: f64) {
        let pick = |k: usize, stage: Lifecycle, d: &DensePool| {
            let ids: Vec<usize> =
                (0..d.recs.len()).filter(|&i| d.recs[i].lifecycle == stage).collect();
            (!ids.is_empty()).then(|| ids[k % ids.len()])
        };
        match act {
            Act::Admit(k) => {
                let Some(i) = pick(k, Lifecycle::Pending, d) else { return };
                if d.recs[i].swapped {
                    let tokens = p.resident_tokens(i);
                    p.note_swap_in(i, tokens);
                    d.swap_in(i, tokens);
                } else {
                    let t = p.prefill_tokens(i);
                    p.note_prefill(i, t);
                    d.note_prefill(i, t);
                }
                p.stamp_admission(i);
                d.stamp_admission(i);
                p.note_first_token(i, now);
                d.note_first_token(i, now);
            }
            Act::Decode(k, steps) => {
                let Some(i) = pick(k, Lifecycle::Decoding, d) else { return };
                let left = d.recs[i].output_len - d.recs[i].generated;
                let steps = steps.min(left);
                if steps == left {
                    if steps == 1 {
                        assert!(p.note_decode_step(i, now));
                    } else {
                        p.finish_decode(i, steps, now);
                    }
                } else if steps == 1 {
                    assert!(!p.note_decode_step(i, now));
                } else {
                    p.advance_decode_steps(i, steps);
                }
                d.advance(i, steps, now);
            }
            Act::Evict(k) | Act::SwapOut(k) => {
                let Some(i) = pick(k, Lifecycle::Decoding, d) else { return };
                let swap = matches!(act, Act::SwapOut(_));
                if swap {
                    p.note_swap_out(i);
                } else {
                    p.note_eviction(i);
                }
                d.evict(i, swap);
            }
        }
    }

    proptest! {
        /// The windowed pool against the dense reference over generated
        /// admit / decode / finish / evict / swap sequences: every read
        /// after every act, and the latency summary's bits after a drain
        /// that finishes every request.
        #[test]
        fn windowed_pool_reads_like_the_dense_pool(
            n in 1usize..40,
            seed in 0u64..1000,
            gaps in prop::collection::vec(0.0f64..3.0, 40),
            acts in arb_acts(),
        ) {
            let t = ShareGptLikeConfig::small(n, seed).generate();
            let arrivals: Vec<f64> = gaps[..n]
                .iter()
                .scan(0.0, |at, gap| {
                    *at += gap;
                    Some(*at)
                })
                .collect();
            let work = Workload::Requests { trace: &t, arrivals: &arrivals };
            let predict = |r: &Request| r.output_len / 2 + 3;
            let mut p = RequestPool::for_workload(&work, predict);
            let mut d = DensePool::new(&work, predict);
            let mut now = 0.0;
            for act in acts {
                now += 0.25;
                apply(&mut p, &mut d, act, now);
                assert_reads_like(&p, &d)?;
            }
            // Drain: admit and finish everything still unfinished.
            while d.finished < n {
                now += 0.25;
                apply(&mut p, &mut d, Act::Admit(0), now);
                apply(&mut p, &mut d, Act::Decode(0, u32::MAX), now);
                assert_reads_like(&p, &d)?;
            }
            p.assert_conserved();
            prop_assert!(p.window_high_water() <= n);
            let want = summary_bits(&d.latency_summary());
            let got = p.latency_summary().expect("every request finished");
            prop_assert_eq!(summary_bits(&got), want);
        }
    }
}
