//! The scoped worker pool the request funnel runs scenarios on.
//!
//! Plain scoped threads with an atomic work index — no external dependency —
//! so a batch of k scenarios executes on `min(k, threads)` workers while the
//! registered history and its states `D` and `H(D)` stay borrowed, never
//! cloned.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// `0` means "use the machine's available parallelism"; the thread count is
/// never larger than the number of work items.
pub(crate) fn resolve_parallelism(requested: usize, items: usize) -> usize {
    let threads = if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    };
    threads.clamp(1, items.max(1))
}

/// Runs `f(0..count)` on `threads` scoped workers with work stealing
/// (atomic index), preserving result order.
pub(crate) fn run_indexed<T, E, F>(count: usize, threads: usize, f: F) -> Vec<Result<T, E>>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let threads = threads.clamp(1, count.max(1));
    if threads <= 1 || count <= 1 {
        return (0..count).map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<T, E>>>> = (0..count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let result = f(i);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every index is claimed by exactly one worker")
        })
        .collect()
}

/// First error wins (in item order); otherwise unwraps all results.
pub(crate) fn collect_results<T, E>(results: Vec<Result<T, E>>) -> Result<Vec<T>, E> {
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_indexed_preserves_order_and_reports_errors() {
        let results: Vec<Result<usize, String>> = run_indexed(8, 4, |i| {
            if i == 5 {
                Err("boom".to_string())
            } else {
                Ok(i * 10)
            }
        });
        assert_eq!(results.len(), 8);
        assert_eq!(*results[3].as_ref().unwrap(), 30);
        assert!(results[5].is_err());
        assert!(collect_results(results).is_err());
    }

    #[test]
    fn resolve_parallelism_bounds() {
        assert_eq!(resolve_parallelism(4, 2), 2);
        assert_eq!(resolve_parallelism(1, 100), 1);
        assert!(resolve_parallelism(0, 100) >= 1);
    }
}
