//! Lanes, shared by both layouts and both batching policies of the
//! baseline policy.
//!
//! The unit of admission is a [`Lane`]: one scheduler instance's private
//! view of memory, its private queue of not-yet-prefilled requests, and the
//! decode cohort of its residents. The tensor layout has a single lane; the
//! pipeline layout has one lane per virtual engine, with requests bound to a
//! lane up front and KV blocks divided evenly — mirroring vLLM 0.5.x, where
//! each virtual engine owns `num_gpu_blocks / pp` and requests never migrate
//! between schedulers. (That static binding is precisely the inter-batch
//! imbalance TD-Pipe's work stealing repairs.)

use std::collections::VecDeque;
use tdpipe_core::cohort::{DecodeCohort, Recompute, StepEnv};
use tdpipe_core::config::{BLOCK_SIZE, WATERMARK};
use tdpipe_core::driver::RunState;
use tdpipe_core::request::RequestPool;
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

/// Build `lanes` lanes splitting `total_blocks` evenly and binding `n`
/// requests round-robin (vLLM assigns each arriving request to the
/// scheduler with the fewest unfinished requests; for an offline
/// all-at-once trace that is round-robin).
pub fn make_lanes(n: usize, lanes: usize, total_blocks: u64) -> Vec<Lane> {
    assert!(lanes > 0, "need at least one lane");
    let blocks = total_blocks / lanes as u64;
    // analyzer: allow(lossy-float-cast) — watermark ∈ [0,1] and blocks ≤
    // 2^32, so the ceil stays inside u64; rounding up is the conservative
    // direction for admission.
    let watermark_blocks = (blocks as f64 * WATERMARK).ceil() as u64;
    (0..lanes)
        .map(|lane| {
            let mut alloc = BlockAllocator::new(blocks, BLOCK_SIZE);
            // Ids are pool indices; pre-size each lane's residency table
            // so allocation never grows it mid-run.
            alloc.reserve_ids(n);
            Lane {
                alloc,
                pending: (lane..n).step_by(lanes).collect(),
                watermark_blocks,
                residents: Vec::new(),
                ctx: 0,
                cohort: DecodeCohort::new(BLOCK_SIZE),
                prefilling: VecDeque::new(),
            }
        })
        .collect()
}

impl Lane {
    /// Whether the head of the pending queue fits memory now (respecting
    /// the watermark).
    pub fn head_fits(&self, pool: &RequestPool) -> bool {
        match self.pending.front() {
            None => false,
            Some(&idx) => {
                let t = pool.prefill_tokens(idx) as u64;
                let needed = t.div_ceil(self.alloc.block_size() as u64);
                self.alloc.free_blocks() >= needed + self.watermark_blocks
            }
        }
    }

    /// Whether the queue head can be admitted at `now`: it has arrived and
    /// fits.
    pub fn can_admit(&self, pool: &RequestPool, now: f64) -> bool {
        self.pending.front().is_some_and(|&i| pool.arrival(i) <= now) && self.head_fits(pool)
    }

    /// Admit the queue head: allocate its KV, mark it prefilled, stamp its
    /// admission. Returns `(index, tokens)`.
    ///
    /// # Panics
    /// Panics if the head does not fit (callers check [`Self::head_fits`]).
    pub fn admit_head(&mut self, run: &mut RunState) -> (usize, u32) {
        let idx = self.pending.pop_front().expect("pending nonempty");
        let t = run.pool.prefill_tokens(idx);
        self.alloc
            .allocate(idx as u64, t as u64)
            .expect("caller checked head_fits");
        run.pool.note_prefill(idx, t);
        run.stamp_admission(idx);
        (idx, t)
    }

    /// Pack a separate-batching prefill batch from the queue into `batch`
    /// (pool indices) and `lens` (sequence lengths), up to `token_budget`
    /// tokens and `max_new` sequences, stopping early when memory runs out
    /// or the head has not yet arrived by `now`.
    pub fn pack_prefill_batch_into(
        &mut self,
        run: &mut RunState,
        token_budget: u32,
        max_new: usize,
        now: f64,
        batch: &mut Vec<usize>,
        lens: &mut Vec<u32>,
    ) {
        batch.clear();
        lens.clear();
        let mut tokens = 0u32;
        while batch.len() < max_new && self.head_fits(&run.pool) {
            let head = *self.pending.front().expect("head fits");
            if run.pool.arrival(head) > now {
                break;
            }
            let t = run.pool.prefill_tokens(head);
            if !batch.is_empty() && tokens + t > token_budget {
                break;
            }
            let (idx, t) = self.admit_head(run);
            batch.push(idx);
            lens.push(t);
            tokens += t;
        }
    }

    /// `idx`'s prefill completed at `now`: stamp its first token and bank
    /// it into the decode cohort.
    pub fn start_decoding(&mut self, run: &mut RunState, idx: usize, now: f64) {
        run.pool.note_first_token(idx, now);
        self.ctx += run.pool.resident_tokens(idx);
        run.stepper.join(&mut self.cohort, idx, &run.pool);
        self.residents.push(idx);
    }

    /// One decode step of the residents, finishing at `now`, through the
    /// decode step every scheduler shares (`DecodeStepper::step`): every
    /// member generates one token, the finished retire (freeing KV), the
    /// survivors' KV grows, and on overflow the newest members are evicted
    /// back to the pending queue for recomputation (the §4.1 recompute
    /// strategy). `ctx` stays equal to the survivors' resident tokens.
    ///
    /// Returns the number of requests that finished.
    pub fn decode_step(&mut self, run: &mut RunState, now: f64) -> usize {
        let mut env = StepEnv {
            pool: &mut run.pool,
            alloc: &mut self.alloc,
            pending: &mut self.pending,
            admission_seq: &run.admission_seq,
            now,
        };
        run.stepper.step(
            &mut self.cohort,
            &mut self.residents,
            &mut self.ctx,
            &mut env,
            &mut Recompute,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdpipe_workload::ShareGptLikeConfig;

    fn state(requests: usize) -> RunState {
        let t = ShareGptLikeConfig::small(requests, 3).generate();
        RunState::new(&t, &[], |r| r.output_len, false, false)
    }

    fn single_lane(st: &RunState, blocks: u64) -> Lane {
        let mut lanes = make_lanes(st.pool.len(), 1, blocks);
        lanes.pop().expect("one lane")
    }

    /// Admit and start decoding every head that fits.
    fn admit_all(st: &mut RunState, lane: &mut Lane) {
        while lane.head_fits(&st.pool) {
            let (idx, _) = lane.admit_head(st);
            lane.start_decoding(st, idx, 0.0);
        }
    }

    #[test]
    fn lanes_split_blocks_and_requests_evenly() {
        let lanes = make_lanes(10, 4, 1000);
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
        lane.pack_prefill_batch_into(&mut st, 1024, usize::MAX, 0.0, &mut batch, &mut lens);
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
        lane.pack_prefill_batch_into(&mut st, u32::MAX, usize::MAX, 0.0, &mut batch, &mut lens);
        assert!(batch.len() < 50, "tiny pool cannot admit everything");
        assert!(!lane.head_fits(&st.pool));
    }

    #[test]
    fn decode_step_retires_and_extends() {
        let mut st = state(4);
        let mut lane = single_lane(&st, 100_000);
        admit_all(&mut st, &mut lane);
        assert_eq!(lane.residents.len(), 4);
        let fin = lane.decode_step(&mut st, 1.0);
        assert_eq!(lane.residents.len(), 4 - fin);
        // Settle the survivors' banked step before reading per-id state.
        for &idx in &lane.residents {
            st.stepper
                .leave(&mut lane.cohort, idx, &mut st.pool, &mut lane.alloc);
        }
        assert_eq!(st.pool.output_tokens, 4);
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
            if lane.residents.is_empty() || st.stepper.evictions > 0 {
                break;
            }
            lane.decode_step(&mut st, 0.1);
        }
        assert!(st.stepper.evictions > 0 || lane.residents.is_empty());
        if let Some(&victim) = lane.pending.front() {
            // The requeued victim is the newest admission that was live.
            assert!(lane
                .residents
                .iter()
                .all(|&m| st.admission_seq[m] < st.admission_seq[victim]));
        }
        assert!(lane.alloc.used_blocks() <= lane.alloc.num_blocks());
    }
}
