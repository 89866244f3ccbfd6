//! The workspace's one thread fan-out primitive.
//!
//! Every parallel campaign, mining shard, and validation sweep in the
//! workspace funnels through [`stream_map`]: a fixed pool of scoped
//! worker threads pulling tasks from a shared iterator and streaming
//! results back over a bounded channel. Centralizing the fan-out here
//! keeps worker-count policy ([`default_workers`]), backpressure, and
//! panic propagation in one place — no other crate spawns campaign
//! threads.

use std::sync::mpsc;
use std::sync::Mutex;

/// The workspace-wide default worker count: one per available hardware
/// thread, falling back to 8 when parallelism cannot be queried.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(8, |n| n.get())
}

/// Runs every task from `tasks` on a pool of `workers` scoped threads
/// and streams results to `each` **on the caller's thread**, in
/// completion order, tagged with the task's submission index.
///
/// * `tasks` is consumed lazily: a worker pulls the next task only when
///   it goes idle, so an exhaustive cross-product source never has to be
///   materialized up front.
/// * `init` builds one context per worker (state reused across that
///   worker's tasks).
/// * The result channel is bounded, so a slow consumer back-pressures
///   the workers instead of buffering unboundedly.
///
/// # Panics
///
/// Propagates worker panics to the caller (via scoped-thread join).
pub fn stream_map<I, T, R, C, IF, F, E>(tasks: I, workers: usize, init: IF, run: F, mut each: E)
where
    I: IntoIterator<Item = T>,
    I::IntoIter: Send,
    T: Send,
    R: Send,
    IF: Fn() -> C + Sync,
    F: Fn(&mut C, T) -> R + Sync,
    E: FnMut(u64, R),
{
    let workers = workers.max(1);
    // Fused: Iterator::next after None is otherwise unspecified, and the
    // pool polls the shared source once per worker after exhaustion.
    let source = Mutex::new(tasks.into_iter().fuse().enumerate());
    let (tx, rx) = mpsc::sync_channel::<(u64, R)>(2 * workers);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let source = &source;
            let init = &init;
            let run = &run;
            scope.spawn(move || {
                let mut ctx = init();
                loop {
                    let next = source.lock().expect("task source poisoned").next();
                    let Some((index, task)) = next else { break };
                    let result = run(&mut ctx, task);
                    // The receiver only disconnects when the consumer
                    // side is done (it drains until all senders drop), so
                    // a send error just means there is nothing left to do.
                    if tx.send((index as u64, result)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        for (index, result) in rx {
            each(index, result);
        }
    });
}

/// Submission-indexed result buffer: the shared order-restoring core of
/// [`parallel_map`] and the collecting campaign sinks.
#[derive(Debug)]
pub(crate) struct IndexedSlots<T> {
    slots: Vec<Option<T>>,
}

// Manual impl: the derive would needlessly require `T: Default`.
impl<T> Default for IndexedSlots<T> {
    fn default() -> Self {
        IndexedSlots::new()
    }
}

impl<T> IndexedSlots<T> {
    pub(crate) fn new() -> Self {
        IndexedSlots { slots: Vec::new() }
    }

    /// Stores `value` (possibly absent) at submission index `index`.
    pub(crate) fn set(&mut self, index: u64, value: Option<T>) {
        let index = index as usize;
        if self.slots.len() <= index {
            self.slots.resize_with(index + 1, || None);
        }
        self.slots[index] = value;
    }

    /// Stores `value` at submission index `index`.
    pub(crate) fn put(&mut self, index: u64, value: T) {
        self.set(index, Some(value));
    }

    /// The values in submission order, panicking with `missing` on gaps.
    pub(crate) fn into_vec(self, missing: &str) -> Vec<T> {
        self.slots.into_iter().map(|slot| slot.expect(missing)).collect()
    }
}

/// [`stream_map`] with results restored to submission order — the
/// drop-in parallel version of `tasks.map(f).collect()`.
pub fn parallel_map<I, T, R, F>(tasks: I, workers: usize, f: F) -> Vec<R>
where
    I: IntoIterator<Item = T>,
    I::IntoIter: Send,
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let mut slots = IndexedSlots::new();
    stream_map(tasks, workers, || (), |(), task| f(task), |index, result| slots.put(index, result));
    slots.into_vec("every task produces a result")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn parallel_map_restores_submission_order() {
        for workers in [1, 2, 8] {
            let out = parallel_map(0..100u64, workers, |x| x * x);
            assert_eq!(out, (0..100u64).map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn stream_map_sees_every_index_once() {
        let mut seen = vec![0usize; 50];
        stream_map(
            0..50usize,
            4,
            || (),
            |(), x| x,
            |i, x| {
                assert_eq!(i as usize, x);
                seen[x] += 1;
            },
        );
        assert!(seen.iter().all(|&n| n == 1));
    }

    #[test]
    fn worker_contexts_are_reused_within_a_worker() {
        // With one worker, a single context must serve every task.
        let mut counts = Vec::new();
        stream_map(
            0..10,
            1,
            || 0u64,
            |ctx, _task| {
                *ctx += 1;
                *ctx
            },
            |_i, c| counts.push(c),
        );
        counts.sort_unstable();
        assert_eq!(counts, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn lazy_sources_are_not_materialized() {
        // An effectively unbounded source works as long as the consumer
        // stops the world by bounding the job count upstream.
        let taken = (0..u64::MAX).take(100);
        let out = parallel_map(taken, 4, |x| x);
        assert_eq!(out.len(), 100);
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        stream_map(
            0..4,
            2,
            || (),
            |(), x: i32| {
                assert!(x < 2, "boom");
                x
            },
            |_, _| {},
        );
    }
}
