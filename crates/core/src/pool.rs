//! The one fan-out helper of the pipeline: [`chunked_map`] on
//! `std::thread::scope`, with [`reduce_pairwise`] and
//! [`resolve_threads`] beside it.
//!
//! Three sites divide enough work per call to win on two cores and go
//! through here: rank simulation (`parallel::run_spmd`), column decode
//! (`expdb::decode_all`) and the ensemble union
//! (`ensemble::build_union`). Everything else — correlation, query
//! atoms, rank summaries, the ensemble statistics — is a plain loop: a
//! sub-millisecond fan-out loses to one, and a memoized correlator
//! beats two shards of an unmemoized one (DESIGN.md §13).
//!
//! A fan-out of *n* chunks is *n* runnable threads: the caller runs
//! chunk 0 and *n* − 1 scoped threads run the rest, so chunks borrow
//! from the caller's frame and nothing outlives the call. Results come
//! back in chunk order whatever the scheduling, which is what makes
//! every caller's output independent of the thread count.
//!
//! `callpath-obs` depends on this crate, so the helper counts its own
//! chunks in two relaxed atomics ([`stats`]) that the obs snapshot
//! folds in as `pool.*` counters.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};

/// Ceiling on the chunks of one fan-out, far above any sane
/// `CALLPATH_THREADS` — a guard on outside input, not a tuning knob.
const MAX_CHUNKS: usize = 256;

static CHUNKS_SPAWNED: AtomicU64 = AtomicU64::new(0);
static CHUNKS_ON_CALLER: AtomicU64 = AtomicU64::new(0);

/// How many chunks ran where, over the life of the process. Only calls
/// that fan out count: a single-chunk call is a plain function call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Chunks run on spawned threads.
    pub tasks_run: u64,
    /// Chunks run by the thread that called [`chunked_map`].
    pub tasks_stolen: u64,
}

impl PoolStats {
    /// The stats as `(name, value)` pairs, for the obs counter bridge.
    pub fn named(&self) -> [(&'static str, u64); 2] {
        [
            ("pool.tasks_run", self.tasks_run),
            ("pool.tasks_stolen", self.tasks_stolen),
        ]
    }
}

/// Current values of the fan-out counters.
pub fn stats() -> PoolStats {
    PoolStats {
        tasks_run: CHUNKS_SPAWNED.load(Relaxed),
        tasks_stolen: CHUNKS_ON_CALLER.load(Relaxed),
    }
}

/// Resolve a requested thread count. An explicit nonzero request is
/// used as given; `0` means the `CALLPATH_THREADS` environment variable
/// when it holds a positive integer (read once per process: set it
/// before the first fan-out), otherwise the available parallelism
/// capped at 8 — and 1 on a host that cannot say how many cores it has.
pub fn resolve_threads(threads: usize) -> usize {
    static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();
    let env = *ENV_THREADS
        .get_or_init(|| parse_threads_env(std::env::var("CALLPATH_THREADS").ok().as_deref()));
    resolve_threads_from(threads, env)
}

/// The policy behind [`resolve_threads`] with the environment's
/// contribution injected, so tests mutate no process-global state.
fn resolve_threads_from(threads: usize, env_override: Option<usize>) -> usize {
    if threads != 0 {
        return threads;
    }
    env_override.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|p| p.get().min(8))
            .unwrap_or(1)
    })
}

/// A `CALLPATH_THREADS` value: a positive integer overrides the
/// automatic choice; unset, zero or garbage means no override.
fn parse_threads_env(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// Split `items` into at most `threads` contiguous chunks
/// (0 = [`resolve_threads`]' choice), run `map(chunk_index, chunk)` on
/// each — chunk 0 on the calling thread, the others on scoped threads —
/// and return the results **in chunk order**.
///
/// An empty `items` yields an empty vec; a single chunk runs inline. If
/// chunks panic, the lowest-index payload is re-raised on the caller
/// after every chunk has finished. A thread that cannot be spawned
/// costs parallelism, not the result: its chunk runs on the caller.
pub fn chunked_map<T, A, F>(items: &[T], threads: usize, map: F) -> Vec<A>
where
    T: Sync,
    A: Send,
    F: Fn(usize, &[T]) -> A + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let threads = resolve_threads(threads).min(MAX_CHUNKS);
    let chunk_len = items.len().div_ceil(threads);
    let (first, rest) = items.split_at(chunk_len);
    if rest.is_empty() {
        return vec![map(0, first)];
    }
    let map = &map;
    // The scope joins every thread before it returns or unwinds, and an
    // unwind out of its closure wins over a thread's unjoined panic —
    // so the first payload met in chunk order is the one re-raised.
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..)
            .zip(rest.chunks(chunk_len))
            .map(|(ci, chunk)| {
                std::thread::Builder::new()
                    .spawn_scoped(scope, move || map(ci, chunk))
                    .map_err(|_| (ci, chunk))
            })
            .collect();
        let on_threads = spawned.iter().filter(|s| s.is_ok()).count();
        CHUNKS_SPAWNED.fetch_add(on_threads as u64, Relaxed);
        CHUNKS_ON_CALLER.fetch_add((1 + spawned.len() - on_threads) as u64, Relaxed);
        let mut out = Vec::with_capacity(1 + spawned.len());
        out.push(map(0, first));
        for chunk in spawned {
            out.push(match chunk {
                Ok(thread) => thread
                    .join()
                    .unwrap_or_else(|payload| resume_unwind(payload)),
                Err((ci, chunk)) => map(ci, chunk),
            });
        }
        out
    })
}

/// Reduce `items` to one value by merging adjacent pairs level by
/// level, a level's pairs running concurrently. `merge` is always
/// called as `merge(left, right)` with `left` the lower-index operand,
/// and an odd item out passes to the next level in its position — so
/// for any merge where `merge(a, b)` extends `a` in `b`'s order, the
/// result equals the sequential left-to-right fold. `None` only for an
/// empty input.
pub fn reduce_pairwise<T, F>(mut items: Vec<T>, merge: F) -> Option<T>
where
    T: Send,
    F: Fn(T, T) -> T + Sync,
{
    while items.len() > 1 {
        // A chunk sees its pairs by reference; the cell lets it take them.
        let mut pairs = Vec::with_capacity(items.len().div_ceil(2));
        let mut it = items.into_iter();
        while let Some(a) = it.next() {
            pairs.push(Mutex::new(Some((a, it.next()))));
        }
        let merge_pair = |pair: &Mutex<Option<(T, Option<T>)>>| {
            let taken = pair.lock().expect("a pair is locked once").take();
            match taken.expect("a pair is merged once") {
                (a, Some(b)) => merge(a, b),
                (a, None) => a,
            }
        };
        items = chunked_map(&pairs, pairs.len(), |_, chunk| {
            chunk.iter().map(merge_pair).collect::<Vec<T>>()
        })
        .into_iter()
        .flatten()
        .collect();
    }
    items.pop()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::thread::{current, ThreadId};

    fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn results_come_back_in_chunk_order_under_uneven_durations() {
        let items: Vec<usize> = (0..32).collect();
        let out = chunked_map(&items, 32, |ci, chunk| {
            if ci % 3 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            (ci, chunk[0] * 2)
        });
        assert_eq!(out, (0..32).map(|i| (i, i * 2)).collect::<Vec<_>>());
    }

    #[test]
    fn every_item_is_mapped_once_in_order_at_any_width() {
        let items: Vec<u32> = (0..103).collect();
        for threads in [1, 2, 3, 8, 64, 1000] {
            let parts = chunked_map(&items, threads, |_, chunk| chunk.to_vec());
            assert!(parts.len() <= threads.min(items.len()), "threads={threads}");
            assert_eq!(parts.concat(), items, "threads={threads}");
        }
        assert!(chunked_map(&[0u32; 0], 4, |_, c| c.len()).is_empty());
    }

    #[test]
    fn chunks_borrow_from_the_caller() {
        let data: Vec<u64> = (0..1000).collect();
        let seen = AtomicUsize::new(0);
        let sums = chunked_map(&data, 7, |_, chunk| {
            seen.fetch_add(chunk.len(), Relaxed);
            chunk.iter().sum::<u64>()
        });
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
        assert_eq!(seen.load(Relaxed), data.len());
    }

    #[test]
    fn chunk_zero_runs_on_the_caller_and_the_rest_on_threads_of_their_own() {
        let items = [0u8; 6];
        let ids: Vec<ThreadId> = chunked_map(&items, 6, |_, _| current().id());
        assert_eq!(ids[0], current().id());
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(distinct.len(), 6, "n chunks are n runnable threads");
    }

    #[test]
    fn a_fan_out_nested_inside_a_chunk_completes() {
        let outer: Vec<usize> = (0..4).collect();
        let out = chunked_map(&outer, 4, |_, chunk| {
            let inner: Vec<usize> = (0..4).map(|j| chunk[0] * 10 + j).collect();
            chunked_map(&inner, 4, |_, c| c[0])
                .into_iter()
                .sum::<usize>()
        });
        assert_eq!(out, vec![6, 46, 86, 126]);
    }

    #[test]
    fn the_chunk_count_has_a_ceiling() {
        let items: Vec<u32> = (0..2 * MAX_CHUNKS as u32 + 1).collect();
        let parts = chunked_map(&items, usize::MAX, |_, chunk| chunk.to_vec());
        assert!(parts.len() <= MAX_CHUNKS);
        assert_eq!(parts.concat(), items);
    }

    #[test]
    fn the_lowest_chunks_panic_reaches_the_caller_with_its_message() {
        let items: Vec<u32> = (0..64).collect();
        for failing in [[0, 5], [3, 6]] {
            let err = std::panic::catch_unwind(|| {
                chunked_map(&items, 8, |ci, _| {
                    if failing.contains(&ci) {
                        panic!("chunk {ci} exploded");
                    }
                    ci
                })
            })
            .expect_err("a chunk's panic must reach the caller");
            assert_eq!(panic_message(err), format!("chunk {} exploded", failing[0]));
        }
    }

    #[test]
    fn every_chunk_finishes_even_when_one_panics() {
        let items = [0u8; 8];
        for failing in [0, 4] {
            let ran = AtomicUsize::new(0);
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                chunked_map(&items, 8, |ci, _| {
                    ran.fetch_add(1, Relaxed);
                    assert_ne!(ci, failing, "one chunk dies");
                })
            }));
            assert_eq!(ran.load(Relaxed), 8, "a panic must not cancel other chunks");
        }
    }

    #[test]
    fn reduce_pairwise_preserves_left_to_right_order() {
        // Concatenation is order-sensitive: the pairwise tree must
        // still produce the sequential fold's result.
        for n in [0usize, 1, 2, 3, 7, 8, 13, 64, 2 * MAX_CHUNKS + 3] {
            let items: Vec<String> = (0..n).map(|i| format!("{i},")).collect();
            let expect = (n > 0).then(|| items.concat());
            assert_eq!(reduce_pairwise(items, |a, b| a + &b), expect, "n={n}");
        }
    }

    #[test]
    fn explicit_count_beats_the_environment_beats_the_host() {
        assert_eq!(resolve_threads_from(5, Some(3)), 5);
        assert_eq!(resolve_threads_from(0, Some(3)), 3);
        assert!((1..=8).contains(&resolve_threads_from(0, None)));
        // The cached read is stable and explicit requests still win.
        assert_eq!(resolve_threads(0), resolve_threads(0));
        assert_eq!(resolve_threads(7), 7);
    }

    #[test]
    fn env_parse_accepts_positive_integers_only() {
        assert_eq!(parse_threads_env(Some("3")), Some(3));
        assert_eq!(parse_threads_env(Some("  16 ")), Some(16));
        for no_override in [None, Some("0"), Some("not a number"), Some("-2"), Some("")] {
            assert_eq!(parse_threads_env(no_override), None);
        }
    }
}
