//! Event-driven decode cohorts: O(1) per quiet decode step instead of
//! O(batch).
//!
//! The decode inner loop is the simulator's hottest code: every time a
//! batch returns it used to walk every member to bump its generated-token
//! count, extend its KV residency by one token, and test for completion.
//! All three are *predictable the moment a member joins the batch*:
//!
//! * it generates exactly one token per step, so after `k` steps its
//!   pending state is just `k`;
//! * it finishes after exactly `output_len - generated` steps (the engine
//!   decodes to the request's actual length), so finishers can be filed
//!   under their finish epoch up front;
//! * holding `T` resident tokens at join epoch `e`, it crosses a KV block
//!   boundary exactly on epochs `s ≡ e + 1 - T (mod block_size)` — a
//!   fixed residue of the step counter.
//!
//! A [`DecodeCohort`] therefore banks a whole batch's per-step work as
//! arithmetic: finishers drain from a finish bucket, the batch's block
//! demand is one counter lookup feeding
//! `BlockAllocator::extend_cohort`-style aggregate accounting, and
//! per-member state (pool `generated`, allocator tokens, planner
//! advances) is materialised only when a member *leaves* — finish,
//! eviction, work-stealing move, or a batch change at a phase switch — or
//! when a reader needs it settled in place ([`DecodeStepper::settle`]),
//! with `epoch − join_epoch` pending steps. A quiet step touches zero
//! members.
//!
//! Members that leave early invalidate their finish-bucket entry lazily:
//! [`CohortMembers`] keeps a per-request generation counter, bumped on
//! every leave, and stale `(member, generation)` entries are skipped when
//! their epoch drains. The shared [`CohortMembers`] arrays are indexed by
//! pool id so any number of cohorts (one per in-flight decode batch) can
//! share them.
//!
//! A cohort lives as long as its batch slot: TD-Pipe's members stay banked
//! across phase switches (the baselines' lanes never re-partition at
//! all), so a switch costs the members that change batch, not every
//! resident. Storage must therefore not grow with the run: the finish
//! buckets form a ring indexed relative to the current epoch, and each
//! step rotates the drained front bucket to the back, so the ring is as
//! long as the longest remaining output ever filed, plus one. Entries
//! filed in different phases share a bucket, so bucket order is not
//! batch order: every member carries a join ticket, renumbered in batch
//! order whenever the batch is re-partitioned
//! ([`DecodeStepper::bank`]), and each step's finishers drain in ticket
//! order.
//!
//! Bit-identity with the per-member loop is the design contract: every
//! counter is exact integer arithmetic, and every settle applies exactly
//! the increments the per-step loop would have applied. Every scheduler —
//! TD-Pipe and the four baselines — steps its decode batches through the
//! one [`DecodeStepper::step`]. Under KV memory pressure it walks just the
//! members growing a block this step ([`DecodeCohort::member_grows`]) and
//! settles only the victims, which reproduces the per-member loop's
//! eviction schedule exactly. What differs between schedulers (session KV
//! retention, reclaiming retained KV before evicting, swap instead of
//! recompute, journal and planner updates) plugs in through
//! [`StepHooks`].

use crate::request::{queued, RequestPool};
use std::collections::{BinaryHeap, VecDeque};
use tdpipe_kvcache::{BlockAllocator, Blocks};

/// Shared per-request bookkeeping for any number of [`DecodeCohort`]s,
/// indexed by pool id.
#[derive(Debug, Clone)]
pub struct CohortMembers {
    /// Epoch at which the request joined its current cohort;
    /// `u32::MAX` = not in any cohort (fully settled).
    join_epoch: Vec<u32>,
    /// Membership generation: bumped when the request leaves a cohort,
    /// invalidating its filed finish-bucket entry.
    gen: Vec<u32>,
    /// Block-growth residue class the request occupies in its cohort.
    class: Vec<u16>,
    /// Finisher order within the request's cohort: a member's position
    /// in its batch at the last re-partition, or its join order after.
    ticket: Vec<u32>,
}

impl CohortMembers {
    /// Bookkeeping for a pool of `n` requests, all initially settled.
    pub fn new(n: usize) -> Self {
        CohortMembers {
            join_epoch: vec![u32::MAX; n],
            gen: vec![0; n],
            class: vec![0; n],
            ticket: vec![0; n],
        }
    }

    /// Decode steps banked for `m` in a cohort currently at `epoch`
    /// (0 for a settled request) — what a settle would materialise.
    #[inline]
    pub fn pending(&self, m: usize, epoch: u32) -> u32 {
        let je = self.join_epoch[m];
        if je == u32::MAX {
            0
        } else {
            epoch - je
        }
    }

    /// Whether `m` is currently banked in some cohort.
    #[inline]
    pub fn in_cohort(&self, m: usize) -> bool {
        self.join_epoch[m] != u32::MAX
    }
}

/// One decode batch's event-driven step state (see the module docs).
#[derive(Debug, Clone)]
pub struct DecodeCohort {
    /// Steps this cohort has executed since its last reset.
    epoch: u32,
    block_size: u32,
    /// Live members per block-growth residue class; the members growing a
    /// block on epoch `s` are exactly class `s % block_size`.
    classes: Vec<u32>,
    /// `(member, generation)` entries by finish epoch, relative to the
    /// current one: `buckets[k]` finishes on epoch `epoch + k`.
    buckets: VecDeque<Vec<(u32, u32)>>,
    /// The ticket the next joining member draws.
    next_ticket: u32,
    /// Members currently banked in this cohort.
    live: usize,
}

impl DecodeCohort {
    /// An empty cohort for a pool with `block_size`-token KV blocks.
    ///
    /// # Panics
    /// Panics if `block_size == 0`.
    pub fn new(block_size: u32) -> Self {
        assert!(block_size > 0, "block size must be positive");
        DecodeCohort {
            epoch: 0,
            block_size,
            classes: vec![0; block_size as usize],
            buckets: VecDeque::new(),
            next_ticket: 0,
            live: 0,
        }
    }

    /// Members currently banked.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Steps executed since the last reset.
    #[inline]
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Return an empty cohort to epoch 0 and restart its tickets. Callers
    /// settle (or [`leave`](Self::leave)) every member first — asserted
    /// via the live count in debug builds. O(1): entries of members that
    /// left stay filed and are skipped by generation when their bucket
    /// drains, exactly as they are in a live cohort.
    pub fn reset(&mut self) {
        debug_assert_eq!(self.live, 0, "cohort reset with live members");
        debug_assert!(self.classes.iter().all(|&c| c == 0));
        self.epoch = 0;
        self.next_ticket = 0;
    }

    /// Bank request `m` into this cohort: it currently holds
    /// `resident_tokens` KV tokens and will finish after exactly
    /// `remaining` more decode steps (`remaining >= 1`).
    pub fn join(&mut self, cm: &mut CohortMembers, m: usize, resident_tokens: u64, remaining: u32) {
        debug_assert!(remaining >= 1, "a decoding request has a token left");
        debug_assert!(!cm.in_cohort(m), "member already banked");
        debug_assert!(resident_tokens > 0, "resident members hold their prompt");
        let bs = self.block_size as u64;
        // Entering its first step the member holds `resident_tokens`; a
        // block grows on the step whose entering count is a multiple of
        // the block size, i.e. on epochs ≡ join + 1 − tokens (mod bs).
        let r = ((self.epoch as u64 + 1 + bs - resident_tokens % bs) % bs) as usize;
        self.classes[r] += 1;
        cm.class[m] = r as u16;
        cm.join_epoch[m] = self.epoch;
        cm.ticket[m] = self.next_ticket;
        self.next_ticket += 1;
        let k = remaining as usize;
        if self.buckets.len() <= k {
            self.buckets.resize_with(k + 1, Vec::new);
        }
        self.buckets[k].push((m as u32, cm.gen[m]));
        self.live += 1;
    }

    /// Order this cohort's finishers by `members`, its batch's member
    /// list: the `i`-th member draws ticket `i`, later joins draw on from
    /// `members.len()`.
    fn renumber(&mut self, cm: &mut CohortMembers, members: &[usize]) {
        for (i, &m) in members.iter().enumerate() {
            cm.ticket[m] = i as u32;
        }
        self.next_ticket = members.len() as u32;
    }

    /// Advance the cohort by one decode step. Call
    /// [`drain_finishers`](Self::drain_finishers) next, then read
    /// [`step_grows`](Self::step_grows) for the survivors' block demand.
    #[inline]
    pub fn begin_step(&mut self) {
        self.epoch += 1;
        if !self.buckets.is_empty() {
            debug_assert!(self.buckets[0].is_empty(), "finish bucket left undrained");
            self.buckets.rotate_left(1);
        }
    }

    /// Blocks the *current* step's survivors demand (finishers already
    /// drained do not extend on their finish step).
    #[inline]
    pub fn step_grows(&self) -> Blocks {
        let grows = self.classes[(self.epoch % self.block_size) as usize];
        Blocks::new(u64::from(grows))
    }

    /// Whether banked member `m` crosses a KV block boundary on the
    /// *current* epoch (call after [`begin_step`](Self::begin_step);
    /// meaningful only while `m` is banked in this cohort).
    #[inline]
    pub fn member_grows(&self, cm: &CohortMembers, m: usize) -> bool {
        cm.class[m] as u32 == self.epoch % self.block_size
    }

    /// Drain the members finishing on the current epoch into `out`, in
    /// ticket order, as `(member, banked_extends)` pairs, where
    /// `banked_extends` counts the single-token KV extends to settle — the
    /// steps *before* the finish step, which frees instead of extending.
    /// Each drained member leaves the cohort (class removed, generation
    /// bumped, marked settled).
    pub fn drain_finishers(&mut self, cm: &mut CohortMembers, out: &mut Vec<(usize, u32)>) {
        out.clear();
        let Some(bucket) = self.buckets.front_mut() else {
            return;
        };
        for (m, g) in bucket.drain(..) {
            let m = m as usize;
            if cm.gen[m] != g {
                continue; // left early; stale entry
            }
            let banked_extends = self.epoch - 1 - cm.join_epoch[m];
            self.classes[cm.class[m] as usize] -= 1;
            cm.gen[m] = cm.gen[m].wrapping_add(1);
            cm.join_epoch[m] = u32::MAX;
            self.live -= 1;
            out.push((m, banked_extends));
        }
        if out.len() > 1 {
            out.sort_unstable_by_key(|&(m, _)| cm.ticket[m]);
        }
    }

    /// Remove `m` from the cohort early (eviction, work-stealing move,
    /// batch change); returns its banked decode steps, which the caller
    /// settles into pool/allocator/planner state.
    pub fn leave(&mut self, cm: &mut CohortMembers, m: usize) -> u32 {
        debug_assert!(cm.in_cohort(m), "member not banked in a cohort");
        let pending = self.epoch - cm.join_epoch[m];
        self.classes[cm.class[m] as usize] -= 1;
        cm.gen[m] = cm.gen[m].wrapping_add(1);
        cm.join_epoch[m] = u32::MAX;
        self.live -= 1;
        pending
    }

    /// Mark `m`'s banked steps settled without taking it out of the
    /// cohort; returns them for the caller to materialise. Its class and
    /// finish entry stay valid: both depend only on `join_epoch − tokens`
    /// and `join_epoch + remaining`, which a settle leaves unchanged.
    fn settle(&self, cm: &mut CohortMembers, m: usize) -> u32 {
        debug_assert!(cm.in_cohort(m), "member not banked in a cohort");
        let pending = self.epoch - cm.join_epoch[m];
        cm.join_epoch[m] = self.epoch;
        pending
    }

    /// The members banked in this cohort, in filing order — a scan of
    /// every finish bucket, for debug oracles and tests.
    pub fn banked(&self, cm: &CohortMembers) -> Vec<usize> {
        let current = |&&(m, g): &&(u32, u32)| cm.gen[m as usize] == g;
        let live = self.buckets.iter().flatten().filter(current);
        live.map(|&(m, _)| m as usize).collect()
    }
}

/// The run state one [`DecodeStepper::step`] reads and settles, borrowed
/// from the engine for that step.
pub struct StepEnv<'a, 'w> {
    /// Request lifecycle tracker; its newest admission is evicted first.
    pub pool: &'a mut RequestPool<'w>,
    /// The KV pool the stepped batch lives in.
    pub alloc: &'a mut BlockAllocator,
    /// Admission queue: the step requeues preempted members at its front.
    pub pending: &'a mut VecDeque<u32>,
    /// Virtual time the step completes, stamped on its finishers.
    pub now: f64,
}

/// What a scheduler adds to the shared decode step. The defaults are plain
/// vLLM semantics — a finisher frees its KV, nothing outside the batch can
/// be reclaimed, a victim is recomputed — which is all the baselines need
/// ([`Recompute`]).
pub trait StepHooks {
    /// Release finisher `m`'s KV (its pool and allocator records are
    /// already settled) and return the tokens it held, as
    /// [`BlockAllocator::free`] reports them.
    fn retire(&mut self, m: usize, env: &mut StepEnv<'_, '_>) -> u64 {
        env.alloc.free(m as u64).expect("finished request resident")
    }

    /// A member growing a block this step found none free: release memory
    /// that no batch member holds until `env.alloc.free_blocks() >=
    /// target`, and return whether that worked. `false` makes the step
    /// evict.
    fn reclaim(&mut self, _target: Blocks, _env: &mut StepEnv<'_, '_>) -> bool {
        false
    }

    /// Mark `victim` preempted. Its steps are settled and its KV is freed
    /// already; the step requeues it afterwards.
    fn preempt(&mut self, victim: usize, env: &mut StepEnv<'_, '_>) {
        env.pool.note_eviction(victim);
    }
}

/// The default [`StepHooks`]: free on finish, recompute on eviction.
#[derive(Debug, Clone, Copy, Default)]
pub struct Recompute;

impl StepHooks for Recompute {}

/// One run's decode step, shared by all of the run's cohorts: the
/// per-request cohort bookkeeping plus the eviction walk's scratch.
#[derive(Debug, Clone)]
pub struct DecodeStepper {
    /// Per-request bookkeeping shared by every cohort of the run.
    pub cm: CohortMembers,
    /// Lifetime evictions made by [`Self::step`].
    pub evictions: u64,
    /// Lifetime [`Self::join`]s: members banked into a cohort.
    pub joins: u64,
    /// Lifetime [`Self::leave`]s: members taken out of a cohort early.
    pub leaves: u64,
    /// Lifetime [`Self::settle`]s: members settled in place.
    pub settles: u64,
    /// Finisher scratch.
    finishers: Vec<(usize, u32)>,
    /// Lazy max-heap of `(admission_seq, position)`, built on a step's
    /// first overflow.
    evict_heap: BinaryHeap<(u64, usize)>,
    /// Positions already evicted this step.
    evicted: Vec<bool>,
}

impl DecodeStepper {
    /// A stepper for a pool of `n` requests.
    pub fn new(n: usize) -> Self {
        DecodeStepper {
            cm: CohortMembers::new(n),
            evictions: 0,
            joins: 0,
            leaves: 0,
            settles: 0,
            finishers: Vec::new(),
            evict_heap: BinaryHeap::new(),
            evicted: Vec::new(),
        }
    }

    /// Bank decoding request `m` into `coh` at its current pool state.
    pub fn join(&mut self, coh: &mut DecodeCohort, m: usize, pool: &RequestPool) {
        let remaining = pool.output_len(m) - pool.generated(m);
        coh.join(&mut self.cm, m, pool.resident_tokens(m), remaining);
        self.joins += 1;
    }

    /// Take `m` out of `coh` early (work-stealing move, batch change) and
    /// settle its banked steps into the pool and the allocator. Returns
    /// the steps settled, for callers that track more per-request state.
    pub fn leave(
        &mut self,
        coh: &mut DecodeCohort,
        m: usize,
        pool: &mut RequestPool,
        alloc: &mut BlockAllocator,
    ) -> u32 {
        let steps = coh.leave(&mut self.cm, m);
        pool.advance_decode_steps(m, steps);
        alloc.advance_tokens(m as u64, steps as u64);
        self.leaves += 1;
        steps
    }

    /// Settle `m`'s banked steps into the pool and the allocator, keeping
    /// it banked in `coh` (its finish entry and growth class stay valid).
    /// Returns the steps settled, as [`Self::leave`] does.
    pub fn settle(
        &mut self,
        coh: &DecodeCohort,
        m: usize,
        pool: &mut RequestPool,
        alloc: &mut BlockAllocator,
    ) -> u32 {
        let steps = coh.settle(&mut self.cm, m);
        pool.advance_decode_steps(m, steps);
        alloc.advance_tokens(m as u64, steps as u64);
        self.settles += 1;
        steps
    }

    /// Make `members` — a batch fresh from a re-partition — exactly the
    /// members of `coh`: join the ones not yet banked, and order the
    /// cohort's finishers by `members`. Members banked in `coh` from an
    /// earlier phase stay put; members banked elsewhere must have left
    /// first. An empty cohort is reset first. Returns the batch's context
    /// total, banked steps included.
    pub fn bank(&mut self, coh: &mut DecodeCohort, members: &[usize], pool: &RequestPool) -> u64 {
        if coh.live() == 0 {
            coh.reset();
        }
        let mut ctx = 0;
        for &m in members {
            if !self.cm.in_cohort(m) {
                self.join(coh, m, pool);
            }
            ctx += pool.resident_tokens(m) + self.cm.pending(m, coh.epoch()) as u64;
        }
        debug_assert_eq!(coh.live(), members.len(), "a member is banked elsewhere");
        coh.renumber(&mut self.cm, members);
        ctx
    }

    /// One decode step of `members`, all banked in `coh`: every member
    /// generates one token, the finished retire, the survivors' KV grows,
    /// and on overflow the newest members are evicted and requeued (§4.1).
    /// `ctx` is the batch's running context-token total and stays equal to
    /// the survivors' resident tokens.
    ///
    /// The drain and the growth are O(finishers), not O(members):
    /// finishers drain from their finish-epoch bucket with their banked
    /// state settled on the way out, and the survivors' KV growth is one
    /// aggregate extend. But a step in which any member leaves (a finisher
    /// or a victim) then drops the leavers with one `retain` over the
    /// whole batch, so that step costs O(members); only a step nobody
    /// leaves stays O(1). Under memory pressure the batch stays banked:
    /// the walk below visits only the members crossing a block boundary
    /// this step and settles just the victims, reproducing the per-member
    /// loop (victim choice, requeue order, hook calls, allocator stats)
    /// exactly.
    ///
    /// Returns the number of requests that finished.
    pub fn step<H: StepHooks + ?Sized>(
        &mut self,
        coh: &mut DecodeCohort,
        members: &mut Vec<usize>,
        ctx: &mut u64,
        env: &mut StepEnv<'_, '_>,
        hooks: &mut H,
    ) -> usize {
        debug_assert_eq!(coh.live(), members.len());
        // Every member generates one token this step.
        *ctx += members.len() as u64;
        coh.begin_step();
        coh.drain_finishers(&mut self.cm, &mut self.finishers);
        let finished_now = self.finishers.len();
        for &(m, extends) in &self.finishers {
            env.alloc.advance_tokens(m as u64, extends as u64);
            env.pool.finish_decode(m, extends + 1, env.now);
            // The allocation lags the just-generated token by one.
            *ctx -= hooks.retire(m, env) + 1;
        }
        if env.alloc.free_blocks() >= coh.step_grows() {
            env.alloc.extend_cohort(coh.live() as u64, coh.step_grows());
        } else {
            self.evict_walk(coh, members, ctx, env, hooks);
        }
        // Drop the members that left: finishers and victims.
        if coh.live() < members.len() {
            let cm = &self.cm;
            members.retain(|&m| cm.in_cohort(m));
        }
        finished_now
    }

    /// The survivors' block demand exceeds free memory even after the
    /// finishers' frees, so this step preempts. Only members *growing* a
    /// block consume memory, so only they shape the eviction schedule:
    /// each takes a free block if one is left, else the hooks may reclaim
    /// memory outside the batch, else the newest admission is evicted.
    /// Victims pop newest-first, the per-member loop's order, and
    /// `pos < i` tells whether that loop would already have granted the
    /// victim its step token.
    fn evict_walk<H: StepHooks + ?Sized>(
        &mut self,
        coh: &mut DecodeCohort,
        members: &[usize],
        ctx: &mut u64,
        env: &mut StepEnv<'_, '_>,
        hooks: &mut H,
    ) {
        let mut heap_built = false;
        // Blocks granted this step; the allocator sees them only in the
        // closing `extend_survivors`, so the real free count is
        // `free_blocks() - grows_taken`.
        let mut grows_taken = Blocks::ZERO;
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
            if env.alloc.free_blocks() > grows_taken {
                grows_taken += Blocks::new(1);
                i += 1;
                continue;
            }
            // The per-member loop's extend fails here: one OutOfMemory
            // rejection, then memory outside the batch yields first.
            rejections += 1;
            if hooks.reclaim(grows_taken + Blocks::new(1), env) {
                grows_taken += Blocks::new(1);
                i += 1;
                continue;
            }
            if !heap_built {
                self.evicted.clear();
                self.evicted.resize(members.len(), false);
                self.evict_heap.clear();
                let (pool, cm) = (&*env.pool, &self.cm);
                self.evict_heap.extend(
                    members
                        .iter()
                        .enumerate()
                        .filter(|&(_, &m)| cm.in_cohort(m))
                        .map(|(p, &m)| (pool.admission_seq(m), p)),
                );
                heap_built = true;
            }
            let pos = loop {
                let (_, p) = self.evict_heap.pop().expect("live member to evict");
                if !self.evicted[p] {
                    break p;
                }
            };
            let victim = members[pos];
            self.evicted[pos] = true;
            let steps = coh.leave(&mut self.cm, victim);
            let extended = (pos < i) as u32;
            env.pool.advance_decode_steps(victim, steps);
            env.alloc
                .advance_tokens(victim as u64, (steps - 1 + extended) as u64);
            extra_extends += extended as u64;
            env.alloc.free(victim as u64).expect("victim resident");
            *ctx -= env.pool.resident_tokens(victim);
            hooks.preempt(victim, env);
            env.pending.push_front(queued(victim));
            self.evictions += 1;
            // The victim may be the member we were extending (it held the
            // newest admission): its demand is gone — move on. Otherwise
            // the freed blocks let the same member retry.
            if pos == i {
                i += 1;
            }
        }
        env.alloc
            .extend_survivors(coh.live() as u64, grows_taken, extra_extends, rejections);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Lifecycle;
    use tdpipe_workload::{ShareGptLikeConfig, Workload};

    /// Reference per-member state for the equivalence check.
    #[derive(Clone)]
    struct Member {
        tokens: u64,
        remaining: u32,
        generated: u64,
    }

    /// Drive a cohort and a naive per-member loop over the same schedule
    /// of joins/steps/leaves and assert every observable agrees.
    #[test]
    fn cohort_matches_per_member_loop() {
        let bs = 4u32;
        let mut coh = DecodeCohort::new(bs);
        let mut cm = CohortMembers::new(16);
        let mut fast = BlockAllocator::new(Blocks::new(1000), bs);
        let mut slow = BlockAllocator::new(Blocks::new(1000), bs);
        let mut naive: Vec<Option<Member>> = vec![None; 16];
        let mut finishers = Vec::new();

        // Deterministic "random" schedule: xorshift over join sizes.
        let mut rng = 0x9e3779b9u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut alive: Vec<usize> = Vec::new();
        for m in 0..8usize {
            let tokens = 1 + next() % 19;
            let remaining = 1 + (next() % 7) as u32;
            fast.allocate(m as u64, tokens).unwrap();
            slow.allocate(m as u64, tokens).unwrap();
            coh.join(&mut cm, m, tokens, remaining);
            naive[m] = Some(Member {
                tokens,
                remaining,
                generated: 0,
            });
            alive.push(m);
        }
        let mut settled_generated = vec![0u64; 16];
        for step in 0..64 {
            if alive.is_empty() {
                break;
            }
            // Occasionally pull a member out early (a steal/evict stand-in).
            if step % 5 == 3 && alive.len() > 1 {
                let m = alive.remove((next() % alive.len() as u64) as usize);
                let pending = coh.leave(&mut cm, m);
                fast.advance_tokens(m as u64, pending as u64);
                settled_generated[m] += pending as u64;
                let memb = naive[m].take().expect("alive member");
                assert_eq!(settled_generated[m], memb.generated, "settle drift");
                assert_eq!(fast.tokens_of(m as u64), slow.tokens_of(m as u64));
                // Release both copies so the pools keep matching.
                assert_eq!(fast.free(m as u64).unwrap(), slow.free(m as u64).unwrap());
                continue;
            }
            coh.begin_step();
            coh.drain_finishers(&mut cm, &mut finishers);
            // Naive side, in engine order: one token each, finishers free
            // first, then the surviving members extend.
            let mut naive_finished = Vec::new();
            alive.retain(|&m| {
                let memb = naive[m].as_mut().expect("alive member");
                memb.generated += 1;
                memb.remaining -= 1;
                if memb.remaining == 0 {
                    slow.free(m as u64).unwrap();
                    naive_finished.push(m);
                    false
                } else {
                    true
                }
            });
            for &m in &alive {
                slow.extend_one(m as u64).unwrap();
                naive[m].as_mut().expect("alive member").tokens += 1;
            }
            let mut fast_finished: Vec<usize> = Vec::new();
            for &(m, extends) in &finishers {
                fast.advance_tokens(m as u64, extends as u64);
                settled_generated[m] += extends as u64 + 1;
                let memb = naive[m].take().expect("finisher was alive");
                assert_eq!(settled_generated[m], memb.generated);
                assert_eq!(
                    fast.tokens_of(m as u64).unwrap(),
                    memb.tokens,
                    "finisher KV drift"
                );
                fast.free(m as u64).unwrap();
                fast_finished.push(m);
            }
            assert_eq!(fast_finished, naive_finished, "finish schedule drift");
            assert_eq!(coh.live(), alive.len());
            assert!(coh.step_grows().get() <= coh.live() as u64);
            fast.extend_cohort(coh.live() as u64, coh.step_grows());
            assert_eq!(fast.used_blocks(), slow.used_blocks(), "step {step}");
            assert_eq!(fast.resident_tokens(), slow.resident_tokens());
        }
        // Settle the stragglers and compare final per-id state.
        for &m in &alive {
            let pending = coh.leave(&mut cm, m);
            fast.advance_tokens(m as u64, pending as u64);
            assert_eq!(
                fast.tokens_of(m as u64).unwrap(),
                slow.tokens_of(m as u64).unwrap()
            );
        }
        assert_eq!(coh.live(), 0);
        assert_eq!(
            fast.stats(),
            slow.stats(),
            "fast={:?} slow={:?}",
            fast.stats(),
            slow.stats()
        );
    }

    #[test]
    fn growth_classes_follow_block_boundaries() {
        // A member holding a full block grows on its very first step.
        let mut coh = DecodeCohort::new(4);
        let mut cm = CohortMembers::new(4);
        coh.join(&mut cm, 0, 8, 10); // 8 % 4 == 0: grows on step 1, 5, 9…
        coh.join(&mut cm, 1, 7, 10); // grows on step 2 (7→8 fills, 8 grows)…
        coh.begin_step();
        assert_eq!(coh.step_grows(), Blocks::new(1));
        coh.begin_step();
        assert_eq!(coh.step_grows(), Blocks::new(1));
        coh.begin_step();
        assert_eq!(coh.step_grows(), Blocks::ZERO);
        coh.begin_step();
        assert_eq!(coh.step_grows(), Blocks::ZERO);
        coh.begin_step();
        assert_eq!(coh.step_grows(), Blocks::new(1)); // step 5 ≡ 1 (mod 4) again
    }

    #[test]
    fn stale_bucket_entries_are_skipped() {
        let mut coh = DecodeCohort::new(4);
        let mut cm = CohortMembers::new(2);
        let mut out = Vec::new();
        coh.join(&mut cm, 0, 5, 1);
        coh.join(&mut cm, 1, 5, 1);
        assert_eq!(coh.leave(&mut cm, 0), 0);
        coh.begin_step();
        coh.drain_finishers(&mut cm, &mut out);
        assert_eq!(out, vec![(1, 0)]);
        assert_eq!(coh.live(), 0);
    }

    #[test]
    fn rejoin_after_leave_reindexes_cleanly() {
        let mut coh = DecodeCohort::new(4);
        let mut cm = CohortMembers::new(1);
        let mut out = Vec::new();
        coh.join(&mut cm, 0, 5, 3);
        coh.begin_step();
        coh.drain_finishers(&mut cm, &mut out);
        assert!(out.is_empty());
        assert_eq!(coh.leave(&mut cm, 0), 1);
        // Re-join with one step settled: finishes two steps later.
        coh.join(&mut cm, 0, 6, 2);
        coh.begin_step();
        coh.drain_finishers(&mut cm, &mut out);
        assert!(out.is_empty());
        coh.begin_step();
        coh.drain_finishers(&mut cm, &mut out);
        assert_eq!(out, vec![(0, 1)]);
    }

    #[test]
    fn reset_leaves_no_stale_entry_to_resurface() {
        let mut coh = DecodeCohort::new(4);
        let mut cm = CohortMembers::new(1);
        coh.join(&mut cm, 0, 5, 7);
        coh.begin_step();
        coh.leave(&mut cm, 0);
        coh.reset();
        assert_eq!(coh.epoch(), 0);
        assert_eq!(coh.live(), 0);
        let mut out = Vec::new();
        // The old entry, six steps out, must not resurface after a rejoin.
        coh.join(&mut cm, 0, 5, 9);
        for _ in 0..8 {
            coh.begin_step();
            coh.drain_finishers(&mut cm, &mut out);
            assert!(out.is_empty(), "stale finish entry resurfaced");
        }
        coh.begin_step();
        coh.drain_finishers(&mut cm, &mut out);
        assert_eq!(out, vec![(0, 8)]);
    }

    /// A cohort that is never reset — a baseline lane, or a TD-Pipe batch
    /// slot across phase switches — keeps its finish buckets bounded by
    /// the longest remaining output ever filed, however far its epoch
    /// runs, and still drains every member exactly on its finish epoch.
    #[test]
    fn buckets_stay_bounded_without_a_reset() {
        let n = 8usize;
        let mut coh = DecodeCohort::new(16);
        let mut cm = CohortMembers::new(n);
        let mut out = Vec::new();
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        // Half the members finish within a few steps, half up to 3,000
        // steps out; every finisher or early leaver rejoins at once.
        // Files `m` to finish `r` steps out; returns its finish epoch and
        // the longest remaining filed so far.
        let mut longest = 0u32;
        let mut file = |coh: &mut DecodeCohort, cm: &mut CohortMembers, m: usize, r: u32| {
            coh.join(cm, m, 1 + m as u64, r);
            longest = longest.max(r);
            (coh.epoch() + r, longest)
        };
        let span = |m: usize| if m.is_multiple_of(2) { 4 } else { 3_000 };
        let mut due = vec![0u32; n];
        let mut bound = 0;
        for (m, d) in due.iter_mut().enumerate() {
            (*d, bound) = file(&mut coh, &mut cm, m, 1 + (next() % span(m)) as u32);
        }
        for step in 1..=50_000u32 {
            if step % 7 == 0 {
                let m = (next() % n as u64) as usize;
                coh.leave(&mut cm, m);
                (due[m], bound) = file(&mut coh, &mut cm, m, 1 + (next() % 4) as u32);
            }
            coh.begin_step();
            coh.drain_finishers(&mut cm, &mut out);
            let mut got: Vec<usize> = out.iter().map(|&(m, _)| m).collect();
            got.sort_unstable();
            let want: Vec<usize> = (0..n).filter(|&m| due[m] == step).collect();
            assert_eq!(got, want, "step {step}: wrong finishers");
            for m in got {
                (due[m], bound) = file(&mut coh, &mut cm, m, 1 + (next() % span(m)) as u32);
            }
            assert!(
                coh.buckets.len() as u32 <= bound + 1,
                "step {step}: {} buckets for a longest remaining of {bound}",
                coh.buckets.len()
            );
        }
        assert_eq!(coh.epoch(), 50_000);
        assert_eq!(coh.live(), n);
    }

    /// Entries filed in different phases share a bucket, so a bucket's
    /// filing order is not its batch's member order: finishers must drain
    /// in ticket order, which a re-partition renumbers to member order.
    #[test]
    fn finishers_drain_in_member_order_not_filing_order() {
        let mut coh = DecodeCohort::new(4);
        let mut cm = CohortMembers::new(3);
        let mut out = Vec::new();
        // Filed 0, 1, 2 — all finishing on epoch 3.
        coh.join(&mut cm, 0, 5, 3);
        coh.begin_step();
        coh.drain_finishers(&mut cm, &mut out);
        coh.join(&mut cm, 1, 6, 2);
        coh.join(&mut cm, 2, 7, 2);
        // A re-partition lists the batch as [2, 0, 1].
        coh.renumber(&mut cm, &[2, 0, 1]);
        coh.begin_step();
        coh.drain_finishers(&mut cm, &mut out);
        assert!(out.is_empty());
        coh.begin_step();
        coh.drain_finishers(&mut cm, &mut out);
        let order: Vec<usize> = out.iter().map(|&(m, _)| m).collect();
        assert_eq!(order, vec![2, 0, 1], "finishers must follow member order");
    }

    /// Settling in place materialises the banked steps but keeps the
    /// member's finish epoch and growth class: the cohort steps exactly as
    /// an unsettled twin, and the finisher settles only what is left.
    #[test]
    fn settle_in_place_keeps_finish_and_growth() {
        let mut a = DecodeCohort::new(4);
        let mut b = DecodeCohort::new(4);
        let mut cm_a = CohortMembers::new(3);
        let mut cm_b = CohortMembers::new(3);
        for (m, (tokens, remaining)) in [(5, 9), (8, 6), (3, 11)].into_iter().enumerate() {
            a.join(&mut cm_a, m, tokens, remaining);
            b.join(&mut cm_b, m, tokens, remaining);
        }
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        let mut settled = [0u32; 3];
        for step in 1..=11 {
            if step == 4 {
                for (m, s) in settled.iter_mut().enumerate() {
                    *s = b.settle(&mut cm_b, m);
                    assert_eq!(cm_b.pending(m, b.epoch()), 0);
                }
                assert_eq!(settled, [3, 3, 3]);
            }
            a.begin_step();
            b.begin_step();
            a.drain_finishers(&mut cm_a, &mut out_a);
            b.drain_finishers(&mut cm_b, &mut out_b);
            assert_eq!(a.step_grows(), b.step_grows(), "step {step}");
            assert_eq!(out_a.len(), out_b.len(), "step {step}");
            for (&(ma, ea), &(mb, eb)) in out_a.iter().zip(&out_b) {
                assert_eq!(ma, mb);
                assert_eq!(ea, eb + settled[mb], "settled steps counted twice");
            }
        }
        assert_eq!((a.live(), b.live()), (0, 0));
    }

    /// Test hooks exercising every extension point: finishers free, a
    /// reserve of donor allocations (ids past the pool, like retained
    /// session KV) is reclaimed oldest-first, and victims alternate
    /// between recompute and swap. Every call is logged so both sides'
    /// effect orders can be compared.
    struct Logged {
        donors: VecDeque<u64>,
        log: Vec<(char, u64)>,
    }

    impl StepHooks for Logged {
        fn retire(&mut self, m: usize, env: &mut StepEnv<'_, '_>) -> u64 {
            self.log.push(('f', m as u64));
            env.alloc.free(m as u64).unwrap()
        }

        fn reclaim(&mut self, target: Blocks, env: &mut StepEnv<'_, '_>) -> bool {
            while env.alloc.free_blocks() < target {
                let Some(d) = self.donors.pop_front() else {
                    return false;
                };
                env.alloc.free(d).unwrap();
                self.log.push(('r', d));
            }
            true
        }

        fn preempt(&mut self, victim: usize, env: &mut StepEnv<'_, '_>) {
            self.log.push(('e', victim as u64));
            if victim.is_multiple_of(2) {
                env.pool.note_eviction(victim);
            } else {
                env.pool.note_swap_out(victim);
            }
        }
    }

    /// The per-member reference for [`DecodeStepper::step`]: one request
    /// at a time, no cohort banking, and a full rescan for every victim.
    fn reference_step<H: StepHooks>(
        members: &mut Vec<usize>,
        ctx: &mut u64,
        env: &mut StepEnv<'_, '_>,
        hooks: &mut H,
    ) -> usize {
        *ctx += members.len() as u64;
        let mut finished = 0;
        let mut k = 0;
        while k < members.len() {
            let m = members[k];
            if env.pool.note_decode_step(m, env.now) {
                *ctx -= hooks.retire(m, env) + 1;
                members.remove(k);
                finished += 1;
            } else {
                k += 1;
            }
        }
        let mut i = 0;
        while i < members.len() {
            let m = members[i];
            if env.alloc.extend_one(m as u64).is_ok()
                || (hooks.reclaim(Blocks::new(1), env) && env.alloc.extend_one(m as u64).is_ok())
            {
                i += 1;
                continue;
            }
            let pos = (0..members.len())
                .max_by_key(|&p| env.pool.admission_seq(members[p]))
                .unwrap();
            let victim = members.remove(pos);
            env.alloc.free(victim as u64).unwrap();
            *ctx -= env.pool.resident_tokens(victim);
            hooks.preempt(victim, env);
            env.pending.push_front(queued(victim));
            if pos < i {
                i -= 1;
            }
        }
        finished
    }

    /// The banked eviction walk must reproduce the per-member loop bit for
    /// bit: same finishers, victims and requeue order, same hook calls in
    /// the same order, same allocator aggregates and stats (OOM rejections
    /// and the saturated high-water mark included), same survivors and
    /// context total, and the same per-request state once settled.
    #[test]
    fn step_matches_the_per_member_reference() {
        for donors in [0u64, 4] {
            let t = ShareGptLikeConfig::small(24, 7).generate();
            let bs = 16u32;
            let setup = || {
                let mut pool =
                    RequestPool::for_workload(&Workload::offline(&t), |r| r.output_len);
                let n = pool.len();
                let need: u64 = (0..n)
                    .map(|i| (pool.prefill_tokens(i) as u64).div_ceil(bs as u64))
                    .sum();
                // A handful of slack blocks: decode growth saturates the
                // pool within a few steps, so the walk evicts repeatedly.
                let mut alloc = BlockAllocator::new(Blocks::new(need + 6 + 3 * donors), bs);
                let mut members = Vec::new();
                let mut ctx = 0;
                for i in 0..n {
                    let tokens = pool.prefill_tokens(i);
                    alloc.allocate(i as u64, tokens as u64).unwrap();
                    pool.note_prefill(i, tokens);
                    members.push(i);
                    ctx += tokens as u64;
                }
                // Admission order is reversed pool order, so victims are
                // not simply the tail of the member list.
                for i in (0..n).rev() {
                    pool.stamp_admission(i);
                }
                let donor_ids: VecDeque<u64> = (0..donors).map(|d| n as u64 + d).collect();
                for &d in &donor_ids {
                    alloc.allocate(d, 3 * bs as u64).unwrap();
                }
                let hooks = Logged {
                    donors: donor_ids,
                    log: Vec::new(),
                };
                (pool, alloc, members, ctx, VecDeque::new(), hooks)
            };
            let (mut pool_a, mut alloc_a, mut members_a, mut ctx_a, mut pend_a, mut hooks_a) =
                setup();
            let (mut pool_b, mut alloc_b, mut members_b, mut ctx_b, mut pend_b, mut hooks_b) =
                setup();
            let mut stepper = DecodeStepper::new(pool_b.len());
            let mut coh = DecodeCohort::new(bs);
            for &m in &members_b {
                stepper.join(&mut coh, m, &pool_b);
            }
            for step in 0..600 {
                if members_a.is_empty() {
                    break;
                }
                let now = step as f64;
                let fa = reference_step(
                    &mut members_a,
                    &mut ctx_a,
                    &mut StepEnv {
                        pool: &mut pool_a,
                        alloc: &mut alloc_a,
                        pending: &mut pend_a,
                        now,
                    },
                    &mut hooks_a,
                );
                let fb = stepper.step(
                    &mut coh,
                    &mut members_b,
                    &mut ctx_b,
                    &mut StepEnv {
                        pool: &mut pool_b,
                        alloc: &mut alloc_b,
                        pending: &mut pend_b,
                        now,
                    },
                    &mut hooks_b,
                );
                assert_eq!(fa, fb, "finishers at step {step}");
                assert_eq!(members_a, members_b, "survivors at step {step}");
                assert_eq!(ctx_a, ctx_b, "context total at step {step}");
                assert_eq!(pend_a, pend_b, "requeue order at step {step}");
                assert_eq!(hooks_a.log, hooks_b.log, "hook calls at step {step}");
                assert_eq!(alloc_a.free_blocks(), alloc_b.free_blocks(), "step {step}");
                assert_eq!(alloc_a.resident_tokens(), alloc_b.resident_tokens());
                assert_eq!(alloc_a.stats(), alloc_b.stats(), "stats at step {step}");
            }
            let evictions = hooks_a.log.iter().filter(|(c, _)| *c == 'e').count();
            assert!(evictions > 0, "scenario must exercise the eviction walk");
            assert_eq!(stepper.evictions, evictions as u64);
            assert!(alloc_a.stats().oom_rejections > 0);
            let reclaimed = hooks_a.log.iter().any(|(c, _)| *c == 'r');
            assert_eq!(reclaimed, donors > 0, "reclaim runs exactly when it can");
            // Settle the cohort and compare every request's state.
            for &m in &members_b {
                stepper.leave(&mut coh, m, &mut pool_b, &mut alloc_b);
            }
            for i in 0..pool_a.len() {
                assert_eq!(pool_a.generated(i), pool_b.generated(i), "generated {i}");
                assert_eq!(pool_a.lifecycle(i), pool_b.lifecycle(i), "lifecycle {i}");
                assert_eq!(pool_a.swapped(i), pool_b.swapped(i), "swapped {i}");
                if pool_a.lifecycle(i) == Lifecycle::Decoding {
                    let id = i as u64;
                    assert_eq!(alloc_a.tokens_of(id), alloc_b.tokens_of(id), "tokens {i}");
                }
            }
            assert_eq!(pool_a.output_tokens, pool_b.output_tokens);
            assert_eq!(pool_a.swapped_tokens, pool_b.swapped_tokens);
        }
    }
}
