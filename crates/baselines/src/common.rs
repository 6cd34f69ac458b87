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

use std::collections::VecDeque;
use tdpipe_core::cohort::{DecodeCohort, DecodeStepper, Recompute, StepEnv};
use tdpipe_core::config::EngineConfig;
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
    /// The decode step shared with TD-Pipe, holding the per-request cohort
    /// bookkeeping of every lane's [`DecodeCohort`] and the lifetime
    /// recompute-eviction count the metrics plane reports.
    pub decode: DecodeStepper,
}

impl RunState {
    /// Initialise for a pool.
    pub fn new(pool: RequestPool) -> Self {
        let n = pool.len();
        RunState {
            pool,
            admission_seq: vec![0; n],
            next_seq: 0,
            decode: DecodeStepper::new(n),
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
        lane.ctx += self.pool.resident_tokens(idx);
        self.decode.join(&mut lane.cohort, idx, &self.pool);
        lane.residents.push(idx);
    }

    /// One decode step of `lane`'s residents, finishing at `now`, through
    /// the decode step every scheduler shares
    /// ([`DecodeStepper::step`]): every member generates one token, the
    /// finished retire (freeing KV), the survivors' KV grows, and on
    /// overflow the newest members are evicted back to the lane's pending
    /// queue for recomputation (the §4.1 recompute strategy). `lane.ctx`
    /// stays equal to the survivors' resident tokens.
    ///
    /// Returns the number of requests that finished.
    pub fn decode_step(&mut self, lane: &mut Lane, now: f64) -> usize {
        let mut env = StepEnv {
            pool: &mut self.pool,
            alloc: &mut lane.alloc,
            pending: &mut lane.pending,
            admission_seq: &self.admission_seq,
            now,
        };
        self.decode.step(
            &mut lane.cohort,
            &mut lane.residents,
            &mut lane.ctx,
            &mut env,
            &mut Recompute,
        )
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

    fn state(requests: usize) -> RunState {
        let t = ShareGptLikeConfig::small(requests, 3).generate();
        RunState::new(RequestPool::new(t.requests(), |r| r.output_len))
    }

    fn single_lane(st: &RunState, blocks: u64) -> Lane {
        let mut lanes = st.make_lanes(1, blocks, &EngineConfig::default());
        lanes.pop().expect("one lane")
    }

    /// Admit and start decoding every head that fits.
    fn admit_all(st: &mut RunState, lane: &mut Lane) {
        while st.head_fits(lane) {
            let (idx, _) = st.admit_head(lane);
            st.start_decoding(lane, idx, 0.0);
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
    fn decode_step_retires_and_extends() {
        let mut st = state(4);
        let mut lane = single_lane(&st, 100_000);
        admit_all(&mut st, &mut lane);
        assert_eq!(lane.residents.len(), 4);
        let fin = st.decode_step(&mut lane, 1.0);
        assert_eq!(lane.residents.len(), 4 - fin);
        // Settle the survivors' banked step before reading per-id state.
        for &idx in &lane.residents {
            st.decode
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
            if lane.residents.is_empty() || st.decode.evictions > 0 {
                break;
            }
            st.decode_step(&mut lane, 0.1);
        }
        assert!(st.decode.evictions > 0 || lane.residents.is_empty());
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
