//! Decode batches: the unit the decode phase pipelines.

/// A decode batch: a set of resident requests that step together. With `n`
/// pipeline stages the engine keeps `n` batches in flight so every stage
/// has work (paper §3.4: "we divide the requests into batches equal to the
/// number of GPUs").
#[derive(Debug, Clone, Default)]
pub struct DecodeBatch {
    /// Pool indices of member requests.
    pub members: Vec<usize>,
}

impl DecodeBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Batch size.
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the batch has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// Partition `members` into `n` batches as evenly as possible, preserving
/// order (round-robin would interleave admission order; contiguous chunks
/// keep each batch's requests age-adjacent, which makes the newest-first
/// eviction policy coherent). Writes into a caller-owned batch list: the
/// member vectors keep their capacity across phase switches, so the
/// steady-state engine allocates nothing per switch once every batch has
/// reached its high-water size.
pub fn partition_even_into(members: &[usize], n: usize, out: &mut Vec<DecodeBatch>) {
    assert!(n > 0, "need at least one batch");
    out.resize_with(n, DecodeBatch::new);
    for (i, batch) in out.iter_mut().enumerate() {
        batch.members.clear();
        batch.members.extend_from_slice(&members[even_range(members.len(), n, i)]);
    }
}

/// The positions batch `i` of [`partition_even_into`]'s `n` takes from `len`
/// members: contiguous, with the first `len % n` batches one longer.
pub fn even_range(len: usize, n: usize, i: usize) -> std::ops::Range<usize> {
    let (base, extra) = (len / n, len % n);
    let start = i * base + i.min(extra);
    start..start + base + usize::from(i < extra)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn partition(members: &[usize], n: usize) -> Vec<DecodeBatch> {
        let mut out = Vec::new();
        partition_even_into(members, n, &mut out);
        out
    }

    #[test]
    fn partition_is_even_and_complete() {
        let members: Vec<usize> = (0..10).collect();
        let batches = partition(&members, 4);
        let sizes: Vec<usize> = batches.iter().map(|b| b.len()).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
        let mut all: Vec<usize> = batches.iter().flat_map(|b| b.members.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, members);
    }

    #[test]
    fn partition_handles_fewer_members_than_batches() {
        let batches = partition(&[7, 8], 4);
        let sizes: Vec<usize> = batches.iter().map(|b| b.len()).collect();
        assert_eq!(sizes, vec![1, 1, 0, 0]);
    }

    #[test]
    fn empty_partition() {
        let batches = partition(&[], 3);
        assert!(batches.iter().all(|b| b.is_empty()));
    }

    #[test]
    fn partition_into_reuses_and_repartitions() {
        let mut out = Vec::new();
        partition_even_into(&(0..10).collect::<Vec<_>>(), 4, &mut out);
        let caps: Vec<usize> = out.iter().map(|b| b.members.capacity()).collect();
        // Repartitioning a smaller set must clear, keep capacity, and
        // produce exactly the fresh result.
        partition_even_into(&[1, 2, 3], 4, &mut out);
        let sizes: Vec<usize> = out.iter().map(|b| b.len()).collect();
        assert_eq!(sizes, vec![1, 1, 1, 0]);
        for (b, cap) in out.iter().zip(caps) {
            assert!(b.members.capacity() >= cap.min(b.len()));
        }
        let fresh = partition(&[1, 2, 3], 4);
        for (a, b) in out.iter().zip(&fresh) {
            assert_eq!(a.members, b.members);
        }
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_batches_panics() {
        partition(&[1], 0);
    }
}
