//! Lanes and run-wide request state, shared by both layouts and both
//! batching policies of the baseline loop.
//!
//! The unit of admission is a [`Lane`]: one scheduler instance's private
//! view of memory, its private queue of not-yet-prefilled requests, and the
//! decode cohort of its residents. The tensor layout has a single lane; the
//! pipeline layout has one lane per virtual engine, with requests bound to a
//! lane up front and KV blocks divided evenly — mirroring vLLM 0.5.x, where
//! each virtual engine owns `num_gpu_blocks / pp` and requests never migrate
//! between schedulers. (That static binding is precisely the inter-batch
//! imbalance TD-Pipe's work stealing repairs.)

use std::collections::{BinaryHeap, VecDeque};
use tdpipe_core::cohort::{CohortMembers, DecodeCohort};
use tdpipe_core::config::EngineConfig;
use tdpipe_core::request::{Lifecycle, RequestPool};
use tdpipe_kvcache::BlockAllocator;

/// One scheduler instance's memory, admission queue and running set.
pub struct Lane {
    /// This lane's KV block pool.
    pub alloc: BlockAllocator,
    /// Requests bound to this lane that still need (re-)prefilling.
    pub pending: VecDeque<usize>,
    watermark_blocks: u64,
    /// Prefilled requests decoding one token per step, in admission order.
    pub residents: Vec<usize>,
    /// Running context-token total over `residents`, so decode launches
    /// are priced without rescanning the running set.
    pub ctx: u64,
    /// Event-driven decode state for `residents`: a step is O(finishers),
    /// not O(residents) — see `tdpipe_core::cohort`.
    pub cohort: DecodeCohort,
    /// Hybrid batching's admitted prompts still being chunked:
    /// `(pool index, prompt tokens already chunked)`.
    pub prefilling: VecDeque<(usize, u32)>,
}

impl Lane {
    /// A lane owning `blocks` KV blocks and the given pending requests.
    pub fn new(blocks: u64, block_size: u32, pending: VecDeque<usize>, watermark: f64) -> Self {
        let alloc = BlockAllocator::new(blocks, block_size);
        // analyzer: allow(lossy-float-cast) — watermark ∈ [0,1] and
        // blocks ≤ 2^32, so the ceil stays inside u64; rounding up is
        // the conservative direction for admission.
        let watermark_blocks = (blocks as f64 * watermark).ceil() as u64;
        Lane {
            alloc,
            pending,
            watermark_blocks,
            residents: Vec::new(),
            ctx: 0,
            cohort: DecodeCohort::new(block_size),
            prefilling: VecDeque::new(),
        }
    }
}

/// Global per-run state: the request pool plus admission bookkeeping.
pub struct RunState {
    /// Request lifecycle tracker.
    pub pool: RequestPool,
    /// Admission sequence per request (newest-first eviction order).
    pub admission_seq: Vec<u64>,
    next_seq: u64,
    /// Eviction scratch: lazy max-heap of `(admission_seq, position)` built
    /// on the first overflow of a decode step.
    evict_heap: BinaryHeap<(u64, usize)>,
    /// Eviction scratch: positions already evicted this step.
    evicted: Vec<bool>,
    /// Lifetime recompute-eviction count (for the metrics plane; plain
    /// add, never branched on).
    pub evictions: u64,
    /// Per-request cohort bookkeeping shared by every lane's
    /// [`DecodeCohort`] (see `tdpipe_core::cohort`).
    pub cm: CohortMembers,
    /// Finisher scratch for [`Self::advance_decode_cohort`].
    finishers: Vec<(usize, u32)>,
}

impl RunState {
    /// Initialise for a pool.
    pub fn new(pool: RequestPool) -> Self {
        let n = pool.len();
        RunState {
            pool,
            admission_seq: vec![0; n],
            next_seq: 0,
            evict_heap: BinaryHeap::new(),
            evicted: Vec::new(),
            evictions: 0,
            cm: CohortMembers::new(n),
            finishers: Vec::new(),
        }
    }

    /// Build `lanes` lanes splitting `total_blocks` evenly and binding the
    /// pool's requests round-robin (vLLM assigns each arriving request to
    /// the scheduler with the fewest unfinished requests; for an offline
    /// all-at-once trace that is round-robin).
    pub fn make_lanes(&self, lanes: usize, total_blocks: u64, cfg: &EngineConfig) -> Vec<Lane> {
        assert!(lanes > 0, "need at least one lane");
        let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); lanes];
        for idx in 0..self.pool.len() {
            queues[idx % lanes].push_back(idx);
        }
        let per_lane = total_blocks / lanes as u64;
        queues
            .into_iter()
            .map(|q| {
                let mut lane = Lane::new(per_lane, cfg.block_size, q, cfg.watermark);
                // Ids are pool indices; pre-size each lane's residency
                // table so allocation never grows it mid-run.
                lane.alloc.reserve_ids(self.pool.len());
                lane
            })
            .collect()
    }

    /// Whether the head of `lane`'s pending queue fits its memory now
    /// (respecting the watermark).
    pub fn head_fits(&self, lane: &Lane) -> bool {
        match lane.pending.front() {
            None => false,
            Some(&idx) => {
                let t = self.pool.prefill_tokens(idx) as u64;
                let needed = t.div_ceil(lane.alloc.block_size() as u64);
                lane.alloc.free_blocks() >= needed + lane.watermark_blocks
            }
        }
    }

    /// Whether `lane` can admit its queue head at `now`: it has arrived
    /// and fits.
    pub fn can_admit(&self, lane: &Lane, now: f64) -> bool {
        lane.pending
            .front()
            .is_some_and(|&i| self.pool.arrival(i) <= now)
            && self.head_fits(lane)
    }

    /// Admit the head of `lane`'s queue: allocate its KV, mark it
    /// prefilled, stamp its admission sequence. Returns `(index, tokens)`.
    ///
    /// # Panics
    /// Panics if the head does not fit (callers check [`Self::head_fits`]).
    pub fn admit_head(&mut self, lane: &mut Lane) -> (usize, u32) {
        let idx = lane.pending.pop_front().expect("pending nonempty");
        let t = self.pool.prefill_tokens(idx);
        lane.alloc
            .allocate(idx as u64, t as u64)
            .expect("caller checked head_fits");
        self.pool.note_prefill(idx, t);
        self.admission_seq[idx] = self.next_seq;
        self.next_seq += 1;
        (idx, t)
    }

    /// Pack a separate-batching prefill batch from `lane`'s queue into
    /// `batch` (pool indices) and `lens` (sequence lengths), up to
    /// `token_budget` tokens and `max_new` sequences, stopping early when
    /// memory runs out or the head has not yet arrived by `now`.
    pub fn pack_prefill_batch_into(
        &mut self,
        lane: &mut Lane,
        token_budget: u32,
        max_new: usize,
        now: f64,
        batch: &mut Vec<usize>,
        lens: &mut Vec<u32>,
    ) {
        batch.clear();
        lens.clear();
        let mut tokens = 0u32;
        while batch.len() < max_new && self.head_fits(lane) {
            let head = *lane.pending.front().expect("head fits");
            if self.pool.arrival(head) > now {
                break;
            }
            let t = self.pool.prefill_tokens(head);
            if !batch.is_empty() && tokens + t > token_budget {
                break;
            }
            let (idx, t) = self.admit_head(lane);
            batch.push(idx);
            lens.push(t);
            tokens += t;
        }
    }

    /// `idx`'s prefill completed at `now`: stamp its first token and bank
    /// it into `lane`'s decode cohort.
    pub fn start_decoding(&mut self, lane: &mut Lane, idx: usize, now: f64) {
        self.pool.note_first_token(idx, now);
        let rt = self.pool.resident_tokens(idx);
        let remaining = self.pool.output_len(idx) - self.pool.generated(idx);
        lane.ctx += rt;
        lane.cohort.join(&mut self.cm, idx, rt, remaining);
        lane.residents.push(idx);
    }

    /// One decode step of `lane`'s residents, finishing at `now`: every
    /// member generates one token, the finished retire (freeing KV), the
    /// survivors' KV grows, and on overflow the newest members are evicted
    /// back to the lane's pending queue for recomputation (the §4.1
    /// recompute strategy). `lane.ctx` stays equal to the survivors'
    /// resident tokens.
    ///
    /// The members are banked in `lane.cohort`, so a step is O(finishers)
    /// instead of O(members): finishers drain from their finish-epoch
    /// bucket with their banked state settled on the way out, and the
    /// survivors' KV growth is one aggregate extend. Under memory pressure
    /// the step evicts without un-banking the batch: the walk below visits
    /// only the members that cross a block boundary this step and settles
    /// just the victims, reproducing the per-member reference loop's
    /// eviction schedule (victim choice, requeue order, allocator stats)
    /// exactly.
    ///
    /// Returns the number of requests that finished.
    pub fn advance_decode_cohort(&mut self, lane: &mut Lane, now: f64) -> usize {
        let Lane {
            alloc,
            pending,
            residents: members,
            ctx,
            cohort: coh,
            ..
        } = lane;
        debug_assert_eq!(coh.live(), members.len());
        // Every member generates one token this step.
        *ctx += members.len() as u64;
        coh.begin_step();
        coh.drain_finishers(&mut self.cm, &mut self.finishers);
        let finished_now = self.finishers.len();
        for &(m, extends) in &self.finishers {
            alloc.advance_tokens(m as u64, extends as u64);
            self.pool.finish_decode(m, extends + 1, now);
            // The allocation lags the just-generated token by one.
            let freed = alloc.free(m as u64).expect("finished request resident");
            *ctx -= freed + 1;
        }
        if alloc.free_blocks() >= coh.step_grows() as u64 {
            alloc.extend_cohort(coh.live() as u64, coh.step_grows() as u64);
            if finished_now > 0 {
                let pool = &self.pool;
                members.retain(|&m| pool.lifecycle(m) == Lifecycle::Decoding);
            }
            debug_assert_eq!(coh.live(), members.len());
            return finished_now;
        }
        // Memory pressure: the survivors' block demand exceeds free
        // memory even after the finishers' frees, so this step evicts
        // (§4.1 recompute). Replaying the per-member loop would be
        // O(members); instead walk only the members *growing* a block
        // this step — they alone consume memory, so they alone shape the
        // eviction schedule — and settle each victim individually.
        // Victims are popped newest-admission-first, exactly the
        // per-member loop's order; `pos < i` tells whether the loop
        // would already have granted the victim its step token.
        let mut heap_built = false;
        let mut grows_taken = 0u64;
        let mut extra_extends = 0u64;
        let mut rejections = 0u64;
        let mut i = 0;
        while i < members.len() {
            let m = members[i];
            // Skip drained finishers, evicted members, and members whose
            // residency is not block-aligned this step.
            if !self.cm.in_cohort(m) || !coh.member_grows(&self.cm, m) {
                i += 1;
                continue;
            }
            if alloc.free_blocks() > grows_taken {
                grows_taken += 1;
                i += 1;
                continue;
            }
            if !heap_built {
                self.evicted.clear();
                self.evicted.resize(members.len(), false);
                self.evict_heap.clear();
                let seq = &self.admission_seq;
                let cm = &self.cm;
                self.evict_heap.extend(
                    members
                        .iter()
                        .enumerate()
                        .filter(|&(_, &m)| cm.in_cohort(m))
                        .map(|(p, &m)| (seq[m], p)),
                );
                heap_built = true;
            }
            // The per-call path charges one OutOfMemory rejection per
            // eviction (each failed extend evicts exactly one victim).
            rejections += 1;
            let pos = loop {
                let (_, p) = self.evict_heap.pop().expect("live member to evict");
                if !self.evicted[p] {
                    break p;
                }
            };
            let victim = members[pos];
            self.evicted[pos] = true;
            let p = coh.leave(&mut self.cm, victim);
            let extended = (pos < i) as u32;
            self.pool.advance_decode_steps(victim, p);
            alloc.advance_tokens(victim as u64, (p - 1 + extended) as u64);
            extra_extends += extended as u64;
            alloc.free(victim as u64).expect("victim resident");
            *ctx -= self.pool.resident_tokens(victim);
            self.pool.note_eviction(victim);
            self.evictions += 1;
            pending.push_front(victim);
            // The victim may be the member we were extending (it held
            // the newest admission): its demand is gone — move on.
            // Otherwise the freed blocks let the same member retry.
            if pos == i {
                i += 1;
            }
        }
        alloc.extend_survivors(coh.live() as u64, grows_taken, extra_extends, rejections);
        {
            let pool = &self.pool;
            members.retain(|&m| pool.lifecycle(m) == Lifecycle::Decoding);
        }
        debug_assert_eq!(coh.live(), members.len());
        finished_now
    }

    /// Total pending requests across lanes (deadlock diagnostics).
    pub fn total_pending(lanes: &[Lane]) -> usize {
        lanes.iter().map(|l| l.pending.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdpipe_workload::ShareGptLikeConfig;

    impl RunState {
        /// The per-member reference for
        /// [`RunState::advance_decode_cohort`]: the same step over
        /// `lane.residents`, one request at a time, with no cohort
        /// banking. `cohort_eviction_walk_matches_per_member_loop` checks
        /// the two agree bit for bit.
        fn advance_decode_ctx(&mut self, lane: &mut Lane, now: f64) -> usize {
            let Lane {
                alloc,
                pending,
                residents: members,
                ctx,
                ..
            } = lane;
            let mut finished_now = 0usize;
            // Every member generates one token this step.
            *ctx += members.len() as u64;
            let pool = &mut self.pool;
            members.retain(|&idx| {
                if pool.note_decode_step(idx, now) {
                    // The allocation lags the just-generated token by one.
                    let freed = alloc.free(idx as u64).expect("finished request resident");
                    *ctx -= freed + 1;
                    finished_now += 1;
                    false
                } else {
                    true
                }
            });
            // Extend survivors' KV; evict newest-first on overflow via a lazy
            // max-heap over `admission_seq` (unique, so the peel order is the
            // per-victim max scan's).
            if alloc.free_blocks() >= members.len() as u64 {
                alloc.extend_one_each(members.iter().map(|&m| m as u64));
                return finished_now;
            }
            let mut heap_built = false;
            let mut i = 0;
            while i < members.len() {
                if heap_built && self.evicted[i] {
                    i += 1;
                    continue;
                }
                let idx = members[i];
                if alloc.extend_one(idx as u64).is_ok() {
                    i += 1;
                    continue;
                }
                if !heap_built {
                    self.evicted.clear();
                    self.evicted.resize(members.len(), false);
                    self.evict_heap.clear();
                    let seq = &self.admission_seq;
                    self.evict_heap
                        .extend(members.iter().enumerate().map(|(p, &m)| (seq[m], p)));
                    heap_built = true;
                }
                // Evict the newest member (possibly `idx` itself).
                let pos = loop {
                    let (_, p) = self.evict_heap.pop().expect("live member to evict");
                    if !self.evicted[p] {
                        break p;
                    }
                };
                let victim = members[pos];
                self.evicted[pos] = true;
                alloc.free(victim as u64).expect("victim resident");
                *ctx -= self.pool.resident_tokens(victim);
                self.pool.note_eviction(victim);
                self.evictions += 1;
                pending.push_front(victim);
            }
            if heap_built {
                let mut p = 0;
                let evicted = &self.evicted;
                members.retain(|_| {
                    let keep = !evicted[p];
                    p += 1;
                    keep
                });
            }
            finished_now
        }
    }

    fn state(requests: usize) -> RunState {
        let t = ShareGptLikeConfig::small(requests, 3).generate();
        RunState::new(RequestPool::new(t.requests(), |r| r.output_len))
    }

    fn single_lane(st: &RunState, blocks: u64) -> Lane {
        let mut lanes = st.make_lanes(1, blocks, &EngineConfig::default());
        lanes.pop().expect("one lane")
    }

    /// Admit every head that fits into `lane.residents` (per-member
    /// reference state: no cohort banking).
    fn admit_all(st: &mut RunState, lane: &mut Lane) {
        while st.head_fits(lane) {
            let (idx, tokens) = st.admit_head(lane);
            lane.residents.push(idx);
            lane.ctx += tokens as u64;
        }
    }

    #[test]
    fn lanes_split_blocks_and_requests_evenly() {
        let st = state(10);
        let lanes = st.make_lanes(4, 1000, &EngineConfig::default());
        assert_eq!(lanes.len(), 4);
        assert!(lanes.iter().all(|l| l.alloc.num_blocks() == 250));
        let sizes: Vec<usize> = lanes.iter().map(|l| l.pending.len()).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
        // Round-robin binding: lane 0 gets 0, 4, 8.
        assert_eq!(lanes[0].pending, VecDeque::from(vec![0, 4, 8]));
    }

    #[test]
    fn packing_respects_token_budget_and_memory() {
        let mut st = state(50);
        let mut lane = single_lane(&st, 100_000);
        let (mut batch, mut lens) = (Vec::new(), Vec::new());
        st.pack_prefill_batch_into(&mut lane, 1024, usize::MAX, 0.0, &mut batch, &mut lens);
        assert!(!batch.is_empty());
        let total: u32 = lens.iter().sum();
        assert!(total <= 2048 || batch.len() == 1);
        for &idx in &batch {
            assert!(lane.alloc.contains(idx as u64));
        }
    }

    #[test]
    fn memory_exhaustion_stops_admission() {
        let mut st = state(50);
        let mut lane = single_lane(&st, 10); // 160 tokens of KV
        let (mut batch, mut lens) = (Vec::new(), Vec::new());
        st.pack_prefill_batch_into(&mut lane, u32::MAX, usize::MAX, 0.0, &mut batch, &mut lens);
        assert!(batch.len() < 50, "tiny pool cannot admit everything");
        assert!(!st.head_fits(&lane));
    }

    #[test]
    fn advance_decode_retires_and_extends() {
        let mut st = state(4);
        let mut lane = single_lane(&st, 100_000);
        admit_all(&mut st, &mut lane);
        assert_eq!(lane.residents.len(), 4);
        let fin = st.advance_decode_ctx(&mut lane, 1.0);
        assert_eq!(st.pool.output_tokens, 4);
        assert_eq!(lane.residents.len(), 4 - fin);
        for &idx in &lane.residents {
            assert_eq!(
                lane.alloc.tokens_of(idx as u64).unwrap(),
                st.pool.resident_tokens(idx)
            );
        }
        assert_eq!(lane.alloc.num_residents(), lane.residents.len());
    }

    #[test]
    fn overflow_evicts_newest_to_lane_pending() {
        let mut st = state(3);
        let mut lane = single_lane(&st, 64);
        admit_all(&mut st, &mut lane);
        assert!(!lane.residents.is_empty());
        for _ in 0..5000 {
            if lane.residents.is_empty() {
                break;
            }
            st.advance_decode_ctx(&mut lane, 0.1);
            if (0..st.pool.len()).any(|i| st.pool.evictions(i) > 0) {
                break;
            }
        }
        let any_evicted = (0..st.pool.len()).any(|i| st.pool.evictions(i) > 0);
        assert!(any_evicted || lane.residents.is_empty());
        assert!(lane.alloc.used_blocks() <= lane.alloc.num_blocks());
    }

    /// The banked eviction walk must reproduce the per-member loop
    /// bit-for-bit: same victims in the same requeue order, same
    /// allocator aggregates and stats (including OOM rejections and the
    /// saturated high-water mark), same survivor set, same context total.
    #[test]
    fn cohort_eviction_walk_matches_per_member_loop() {
        let cfg = EngineConfig::default();
        let t = ShareGptLikeConfig::small(24, 7).generate();
        let pool0 = RequestPool::new(t.requests(), |r| r.output_len);
        let bs = cfg.block_size as u64;
        let need: u64 = (0..pool0.len())
            .map(|i| (pool0.prefill_tokens(i) as u64).div_ceil(bs))
            .sum();
        // A handful of slack blocks: decode growth saturates the pool
        // within a few steps, so the walk evicts repeatedly.
        let blocks = need + 6;
        let setup = || {
            let mut st = RunState::new(RequestPool::new(t.requests(), |r| r.output_len));
            let mut lanes = st.make_lanes(1, blocks, &cfg);
            let mut lane = lanes.pop().expect("one lane");
            admit_all(&mut st, &mut lane);
            assert!(lane.residents.len() >= 16, "scenario admits most requests");
            (st, lane)
        };

        let (mut st_a, mut lane_a) = setup();
        let (mut st_b, mut lane_b) = setup();
        for &m in &lane_b.residents {
            lane_b.cohort.join(
                &mut st_b.cm,
                m,
                st_b.pool.resident_tokens(m),
                st_b.pool.output_len(m) - st_b.pool.generated(m),
            );
        }
        for step in 0..600 {
            if lane_a.residents.is_empty() {
                break;
            }
            let now = step as f64;
            let fa = st_a.advance_decode_ctx(&mut lane_a, now);
            let fb = st_b.advance_decode_cohort(&mut lane_b, now);
            assert_eq!(fa, fb, "finishers at step {step}");
            assert_eq!(
                lane_a.residents, lane_b.residents,
                "survivor set at step {step}"
            );
            assert_eq!(lane_a.ctx, lane_b.ctx, "context total at step {step}");
            assert_eq!(
                lane_a.pending, lane_b.pending,
                "requeue order at step {step}"
            );
            assert_eq!(
                lane_a.alloc.free_blocks(),
                lane_b.alloc.free_blocks(),
                "free blocks at step {step}"
            );
            assert_eq!(
                lane_a.alloc.resident_tokens(),
                lane_b.alloc.resident_tokens(),
                "resident tokens at step {step}"
            );
            assert_eq!(
                lane_a.alloc.stats(),
                lane_b.alloc.stats(),
                "stats at step {step}"
            );
            assert_eq!(st_a.evictions, st_b.evictions, "evictions at step {step}");
        }
        assert!(
            st_a.evictions > 0,
            "scenario must exercise the eviction walk"
        );
        assert!(
            lane_a.alloc.stats().oom_rejections > 0,
            "scenario must hit the OOM path"
        );
        // Settle the cohort and compare every request's materialised state.
        for &m in &lane_b.residents {
            let p = lane_b.cohort.leave(&mut st_b.cm, m);
            st_b.pool.advance_decode_steps(m, p);
            lane_b.alloc.advance_tokens(m as u64, p as u64);
        }
        for i in 0..st_a.pool.len() {
            assert_eq!(
                st_a.pool.generated(i),
                st_b.pool.generated(i),
                "generated for {i}"
            );
            assert_eq!(
                st_a.pool.lifecycle(i),
                st_b.pool.lifecycle(i),
                "lifecycle for {i}"
            );
        }
        for &m in &lane_a.residents {
            assert_eq!(
                lane_a.alloc.tokens_of(m as u64).unwrap(),
                lane_b.alloc.tokens_of(m as u64).unwrap(),
                "per-resident tokens for {m}"
            );
        }
    }
}
