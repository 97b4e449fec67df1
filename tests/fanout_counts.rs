//! What a fan-out costs, as a count: *n* chunks are *n* − 1 spawned
//! threads and the caller, and a call that does not fan out spawns
//! nothing.
//!
//! Alone in its file: `pool::stats()` is process-wide, and any other test
//! fanning out in this process would add to it.

use callpath_core::pool::{chunked_map, reduce_pairwise, stats};

#[test]
fn a_fan_out_of_n_is_the_caller_and_n_minus_one_threads() {
    let items: Vec<u32> = (0..40).collect();
    let delta = |run: &dyn Fn()| {
        let before = stats();
        run();
        let after = stats();
        (
            after.tasks_run - before.tasks_run,
            after.tasks_stolen - before.tasks_stolen,
        )
    };
    for n in [2u64, 3, 5, 8] {
        let spawned_and_on_caller = delta(&|| {
            let parts = chunked_map(&items, n as usize, |_, chunk| chunk.len());
            assert_eq!(parts.len() as u64, n);
        });
        assert_eq!(spawned_and_on_caller, (n - 1, 1), "n = {n}");
    }
    // One chunk — one thread asked for, or fewer items than a chunk
    // holds — is a plain call.
    assert_eq!(
        delta(&|| drop(chunked_map(&items, 1, |_, c| c.len()))),
        (0, 0)
    );
    assert_eq!(
        delta(&|| drop(chunked_map(&items[..1], 8, |_, c| c.len()))),
        (0, 0)
    );
    // A fan-out inside each of 3 chunks is 3 more fan-outs, not a queue.
    let nested = delta(&|| {
        chunked_map(&items, 3, |_, chunk| chunked_map(chunk, 2, |_, c| c.len()));
    });
    assert_eq!(nested, (2 + 3, 1 + 3));
    // Eight items reduce over levels of 4, 2 and 1 pairs; a level of one
    // pair is a plain call.
    let reduce = delta(&|| {
        assert_eq!(
            reduce_pairwise((0..8).collect(), |a: u32, b| a + b),
            Some(28)
        );
    });
    assert_eq!(reduce, (3 + 1, 1 + 1));
}
