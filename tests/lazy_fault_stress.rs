//! Concurrency stress test for lazy column faulting: N reader threads
//! race the *first* read of the same lazily backed column. The
//! `OnceLock` slot must admit exactly one block decode (observed through
//! the new per-column fault counter and the obs registry), and every
//! thread must see data identical to an eager open.

use callpath_core::prelude::*;
use callpath_expdb::{open_lazy, to_binary_v21};
use callpath_workloads::generator;

const READERS: usize = 8;

#[test]
fn racing_first_reads_decode_the_column_exactly_once() {
    callpath_obs::reset();

    let eager = generator::random_experiment(7, 400, 16);
    let lazy = open_lazy(to_binary_v21(&eager)).unwrap();
    let n_nodes = eager.cct.len() as u32;
    let col = ColumnId(0);

    let expected: Vec<f64> = (0..n_nodes).map(|n| eager.columns.get(col, n)).collect();
    assert!(
        expected.iter().any(|&v| v != 0.0),
        "column 0 must carry data for the race to be meaningful"
    );

    // A barrier lines every reader up on the very first read, so the
    // fault itself is contended rather than one thread winning by
    // starting early.
    let barrier = std::sync::Barrier::new(READERS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..READERS)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    (0..n_nodes)
                        .map(|n| lazy.columns.get(col, n))
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        for h in handles {
            let got = h.join().expect("reader panicked");
            assert_eq!(got, expected, "a racing reader saw divergent data");
        }
    });

    // The OnceLock slot ran its init closure exactly once, no matter
    // how many readers raced it.
    assert_eq!(lazy.columns.fault_count(col), 1);
    assert!(lazy.columns.lazy_errors().is_empty());

    if callpath_obs::enabled() {
        // The obs registry agrees: one column fault, zero failures.
        // (This file holds a single test, so the process-global counter
        // sees only this race.)
        assert_eq!(callpath_obs::counter_value("expdb.lazy.fault.column"), 1);
        assert_eq!(callpath_obs::counter_value("expdb.lazy.fault.failed"), 0);
    }
}
