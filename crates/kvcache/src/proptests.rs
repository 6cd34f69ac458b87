//! Property tests: the allocator conserves blocks under arbitrary
//! operation sequences and never misaccounts.

use crate::allocator::BlockAllocator;
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Alloc { id: u64, tokens: u64 },
    Extend { id: u64, tokens: u64 },
    Free { id: u64 },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..20, 0u64..200).prop_map(|(id, tokens)| Op::Alloc { id, tokens }),
            (0u64..20, 1u64..50).prop_map(|(id, tokens)| Op::Extend { id, tokens }),
            (0u64..20).prop_map(|id| Op::Free { id }),
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
        }
        // Drain and verify the pool returns to empty.
        let ids: Vec<u64> = shadow.keys().copied().collect();
        for id in ids {
            a.free(id).unwrap();
        }
        prop_assert_eq!(a.used_blocks(), 0);
    }
}
