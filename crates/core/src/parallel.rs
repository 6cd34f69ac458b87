//! The lock-free parallel map every multi-run sweep and the fleet's
//! replica execution run on.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Map `f` over `items` on `threads` scoped workers, returning results in
/// input order.
///
/// Workers claim item indices off a shared atomic counter (so long items
/// do not serialise behind short ones), buffer `(index, result)` pairs
/// locally, and the scope's join handles deliver each worker's buffer back
/// to the caller, which scatters them into input order. No mutex is held
/// anywhere, and nothing is contended but the counter. Because each item's
/// computation is independent and deterministic, the result vector is
/// byte-identical to a serial map for *any* `threads`.
pub fn map_indexed_parallel<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        done.push((i, f(i, &items[i])));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("worker panicked") {
                results[i] = Some(r);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_indexed_parallel_preserves_input_order_for_any_thread_count() {
        let items: Vec<usize> = (0..37).collect();
        let want: Vec<usize> = (0..37).map(|i| i * 1001).collect();
        for threads in [1, 2, 5, 64] {
            let out = map_indexed_parallel(&items, threads, |i, &x| i * 1000 + x);
            assert_eq!(out, want, "{threads} threads");
        }
        let empty: Vec<usize> = Vec::new();
        assert!(map_indexed_parallel(&empty, 4, |i, _| i).is_empty());
    }
}
