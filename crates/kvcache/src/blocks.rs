//! Block counts as a type of their own.

use serde::{DeError, Deserialize, Deserializer, Serialize, Serializer};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A count of KV blocks: a pool's size, its used or free blocks, a
/// request's demand, a retention budget.
///
/// Tokens stay plain integers, so a block count and a token count never
/// meet in arithmetic or a comparison: the two conversions,
/// [`Blocks::for_tokens`] and [`Blocks::tokens`], are the only ways
/// across, each with the block size spelled out. [`Blocks::new`] and
/// [`Blocks::get`] wrap and unwrap a count that is already in blocks (a
/// planned pool size, a serialized statistic, a fraction's numerator).
/// It serializes as the bare integer.
///
/// Adding a pool's free blocks to its resident tokens does not compile:
///
/// ```compile_fail,E0277
/// use tdpipe_kvcache::{BlockAllocator, Blocks};
///
/// let alloc = BlockAllocator::new(Blocks::new(100), 16);
/// let _ = alloc.resident_tokens() + alloc.free_blocks();
/// ```
///
/// Converting the blocks to tokens first does:
///
/// ```
/// use tdpipe_kvcache::{BlockAllocator, Blocks};
///
/// let alloc = BlockAllocator::new(Blocks::new(100), 16);
/// assert_eq!(alloc.resident_tokens() + alloc.free_blocks().tokens(16), 1600);
/// ```
///
/// Nor does comparing a token demand with free blocks:
///
/// ```compile_fail,E0308
/// use tdpipe_kvcache::{BlockAllocator, Blocks};
///
/// let alloc = BlockAllocator::new(Blocks::new(100), 16);
/// let need_tokens = 300u64;
/// assert!(need_tokens <= alloc.free_blocks());
/// ```
///
/// Rounding the demand up to blocks first does:
///
/// ```
/// use tdpipe_kvcache::{BlockAllocator, Blocks};
///
/// let alloc = BlockAllocator::new(Blocks::new(100), 16);
/// let need_tokens = 300u64;
/// assert!(Blocks::for_tokens(need_tokens, 16) <= alloc.free_blocks());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Blocks(u64);

impl Blocks {
    /// No blocks.
    pub const ZERO: Blocks = Blocks(0);

    /// `n` blocks.
    #[inline]
    pub const fn new(n: u64) -> Blocks {
        Blocks(n)
    }

    /// The count as a bare integer.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The blocks `tokens` tokens occupy at `block_size` tokens per block:
    /// the trailing block may be partly filled, so this rounds up.
    #[inline]
    pub fn for_tokens(tokens: u64, block_size: u32) -> Blocks {
        Blocks(tokens.div_ceil(u64::from(block_size)))
    }

    /// The tokens these blocks hold at `block_size` tokens per block.
    #[inline]
    pub fn tokens(self, block_size: u32) -> u64 {
        self.0 * u64::from(block_size)
    }

    /// `self - rhs`, or zero when `rhs` is larger.
    #[inline]
    pub fn saturating_sub(self, rhs: Blocks) -> Blocks {
        Blocks(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Blocks {
    type Output = Blocks;
    #[inline]
    fn add(self, rhs: Blocks) -> Blocks {
        Blocks(self.0 + rhs.0)
    }
}

impl Sub for Blocks {
    type Output = Blocks;
    #[inline]
    fn sub(self, rhs: Blocks) -> Blocks {
        Blocks(self.0 - rhs.0)
    }
}

impl AddAssign for Blocks {
    #[inline]
    fn add_assign(&mut self, rhs: Blocks) {
        self.0 += rhs.0;
    }
}

impl SubAssign for Blocks {
    #[inline]
    fn sub_assign(&mut self, rhs: Blocks) {
        self.0 -= rhs.0;
    }
}

impl Sum for Blocks {
    fn sum<I: Iterator<Item = Blocks>>(iter: I) -> Blocks {
        Blocks(iter.map(Blocks::get).sum())
    }
}

impl std::fmt::Display for Blocks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl Serialize for Blocks {
    fn serialize(&self, ser: &mut Serializer<'_>) {
        self.0.serialize(ser);
    }
}

impl Deserialize for Blocks {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, DeError> {
        u64::deserialize(de).map(Blocks)
    }
}
