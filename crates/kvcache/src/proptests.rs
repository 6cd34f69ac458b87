//! Property tests: the allocator conserves blocks under arbitrary
//! operation sequences and never misaccounts, on the per-call path and
//! on the banked cohort path the engines take.

use crate::allocator::BlockAllocator;
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
        let mut a = BlockAllocator::new(num_blocks, block_size);
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
                        let grows = ids.iter().filter(|id| shadow[id] % bs == 0).count() as u64;
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
            let expect_blocks: u64 = shadow
                .values()
                .map(|&t| t.div_ceil(block_size as u64))
                .sum();
            prop_assert_eq!(a.used_blocks(), expect_blocks);
            prop_assert!(a.used_blocks() <= num_blocks);
            prop_assert_eq!(a.free_blocks(), num_blocks - expect_blocks);
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
        prop_assert_eq!(a.used_blocks(), 0);
    }
}
