//! Property tests: the allocator conserves blocks under arbitrary
//! operation sequences and never misaccounts, on the per-call path and
//! on the banked cohort path the engines take; an [`IdWindow`] reads
//! like the dense table it stands for.

use crate::allocator::BlockAllocator;
use crate::window::{IdWindow, Slot};
use crate::Blocks;
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Alloc { id: u64, tokens: u64 },
    Extend { id: u64, tokens: u64 },
    Free { id: u64 },
    /// `steps` banked decode steps over the residents among `ids`: pool
    /// counters move through `extend_cohort` each step, the records settle
    /// through `advance_tokens` at the end.
    Bank { ids: Vec<u64>, steps: u64 },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..20, 0u64..200).prop_map(|(id, tokens)| Op::Alloc { id, tokens }),
            (0u64..20, 1u64..50).prop_map(|(id, tokens)| Op::Extend { id, tokens }),
            (0u64..20).prop_map(|id| Op::Free { id }),
            (prop::collection::vec(0u64..20, 1..8), 1u64..40)
                .prop_map(|(ids, steps)| Op::Bank { ids, steps }),
        ],
        1..200,
    )
}

proptest! {
    #[test]
    fn allocator_conserves_blocks(ops in arb_ops(), num_blocks in 1u64..64, block_size in 1u32..32) {
        let mut a = BlockAllocator::new(Blocks::new(num_blocks), block_size);
        // Shadow model: id -> tokens.
        let mut shadow: HashMap<u64, u64> = HashMap::new();
        for op in ops {
            match op {
                Op::Alloc { id, tokens } => {
                    let ok = a.allocate(id, tokens).is_ok();
                    if ok {
                        prop_assert!(!shadow.contains_key(&id));
                        shadow.insert(id, tokens);
                    }
                }
                Op::Extend { id, tokens } => {
                    for _ in 0..tokens {
                        if a.extend_one(id).is_err() {
                            break;
                        }
                        *shadow.get_mut(&id).expect("extend succeeded on unknown id") += 1;
                    }
                }
                Op::Free { id } => {
                    match a.free(id) {
                        Ok(freed) => {
                            let expect = shadow.remove(&id).expect("free succeeded on unknown id");
                            prop_assert_eq!(freed, expect);
                        }
                        Err(_) => prop_assert!(!shadow.contains_key(&id)),
                    }
                }
                Op::Bank { mut ids, steps } => {
                    ids.sort_unstable();
                    ids.dedup();
                    ids.retain(|id| shadow.contains_key(id));
                    let bs = block_size as u64;
                    let mut banked = 0;
                    for _ in 0..steps {
                        // A member grows when its count entering the step
                        // is a multiple of the block size; the engines
                        // guard the step's growth before taking it.
                        let grows = Blocks::new(ids.iter().filter(|id| shadow[id] % bs == 0).count() as u64);
                        if grows > a.free_blocks() {
                            break;
                        }
                        a.extend_cohort(ids.len() as u64, grows);
                        for id in &ids {
                            *shadow.get_mut(id).unwrap() += 1;
                        }
                        banked += 1;
                    }
                    for &id in &ids {
                        a.advance_tokens(id, banked);
                    }
                }
            }
            // Invariants after every operation.
            let expect_blocks: Blocks = shadow
                .values()
                .map(|&t| Blocks::for_tokens(t, block_size))
                .sum();
            prop_assert_eq!(a.used_blocks(), expect_blocks);
            prop_assert!(a.used_blocks() <= a.num_blocks());
            prop_assert_eq!(a.free_blocks(), a.num_blocks() - expect_blocks);
            prop_assert_eq!(a.num_residents(), shadow.len());
            prop_assert_eq!(a.resident_tokens(), shadow.values().sum::<u64>());
            for id in 0u64..20 {
                match shadow.get(&id) {
                    Some(&t) => prop_assert_eq!(a.tokens_of(id), Ok(t)),
                    None => prop_assert!(a.tokens_of(id).is_err() && !a.contains(id)),
                }
            }
        }
        // Drain and verify the pool returns to empty.
        let ids: Vec<u64> = shadow.keys().copied().collect();
        for id in ids {
            a.free(id).unwrap();
        }
        prop_assert_eq!(a.used_blocks(), Blocks::ZERO);
    }
}

/// Ids the window tests address.
const IDS: usize = 48;
/// The value a retired id reads as, and the value that marks an entry
/// retirable.
const RETIRED: u32 = u32::MAX - 1;
/// The value an untouched id reads as.
const UNTOUCHED: u32 = u32::MAX;

/// Window operations, addressed relative to the window's base so that
/// writes land below, inside and past it, and retirements happen.
#[derive(Debug, Clone)]
enum WindowOp {
    /// Write `value` at `base + off - 8`.
    Write { off: usize, value: u32 },
    /// Mark `base + off` done: it retires once every id before it has.
    Kill { off: usize },
    Retire,
    Reserve { n: usize },
    Clear,
}

fn arb_window_ops() -> impl Strategy<Value = Vec<WindowOp>> {
    prop::collection::vec(
        prop_oneof![
            (0usize..24, 0u32..100).prop_map(|(off, value)| WindowOp::Write { off, value }),
            (0usize..24, 0u32..100).prop_map(|(off, value)| WindowOp::Write { off, value }),
            (0usize..4).prop_map(|off| WindowOp::Kill { off }),
            (0usize..4).prop_map(|off| WindowOp::Kill { off }),
            Just(WindowOp::Retire),
            Just(WindowOp::Retire),
            (0..2 * IDS).prop_map(|n| WindowOp::Reserve { n }),
            Just(WindowOp::Clear),
        ],
        1..160,
    )
}

proptest! {
    #[test]
    fn id_window_reads_like_a_dense_table(ops in arb_window_ops()) {
        let mut w = IdWindow::new();
        let mut dense = vec![UNTOUCHED; IDS];
        for op in ops {
            let base = w.base();
            let mut write = |w: &mut IdWindow<u32>, id: usize, value: u32| {
                let id = id.min(IDS - 1);
                *w.entry(id, |k| if k < base { RETIRED } else { UNTOUCHED }) = value;
                dense[id] = value;
            };
            match op {
                WindowOp::Write { off, value } => write(&mut w, (base + off).saturating_sub(8), value),
                WindowOp::Kill { off } => write(&mut w, base + off, RETIRED),
                WindowOp::Retire => w.retire_front(|&v| v == RETIRED),
                WindowOp::Reserve { n } => w.reserve(n),
                WindowOp::Clear => {
                    w.clear();
                    dense.fill(UNTOUCHED);
                }
            }
            prop_assert!(w.span() <= w.high_water());
            prop_assert_eq!(w.end(), w.base() + w.span());
            for (id, &want) in dense.iter().enumerate() {
                prop_assert_eq!(w.read(id, RETIRED, UNTOUCHED), want, "id {}", id);
                let live = matches!(w.slot(id), Slot::Live(_));
                prop_assert_eq!(live, (w.base()..w.end()).contains(&id));
                prop_assert_eq!(w.get_mut(id).is_some(), live);
            }
        }
    }
}
