//! Property tests for the v2.1 aligned container: the zero-copy borrow
//! path must be indistinguishable from the owned decode, bit for bit,
//! under randomized tree shapes and column layouts — and corruption
//! must stay detectable through the new section kinds.
//!
//! Three claims are pinned here:
//!
//! 1. **Round trip / fixed point** — `write_v21 → read → write_v21`
//!    reproduces the exact bytes, for random models whose per-column
//!    nnz straddles the fixed/varint cutover.
//! 2. **Borrow ≡ decode** — reads served from a [`MappedCol`] borrow of
//!    the file image return the same `f64::to_bits` as the eager owned
//!    decode of the same file.
//! 3. **Corruption is rejected** — every truncation fails to open, and
//!    every bit flip is caught by the eager reader and by
//!    [`verify_container`] (the lazy open deliberately defers cost-block
//!    checksums to first fault; its topology gap is exactly what
//!    `verify_container` exists to close — see DESIGN.md §11).

use callpath_core::prelude::*;
use callpath_expdb::model::{DbMetric, DbModel, DbNode};
use callpath_expdb::{bin2, decode_all, from_binary, open_lazy, verify_container};
use proptest::prelude::*;

/// splitmix64, so models are a pure function of the proptest scalars.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A finite f64 with arbitrary mantissa/sign bits, so value equality
/// checks exercise the full bit pattern (subnormals and -0.0 included).
fn finite(r: u64) -> f64 {
    f64::from_bits(r & 0xffef_ffff_ffff_ffff)
}

/// Random model: frames only (structure rules don't constrain the
/// storage layer under test), random recent-ancestor parents, and
/// per-metric columns whose nnz is `max_nnz`-bounded — chosen to
/// straddle [`bin2::FIXED_CUTOVER`] so both block encodings appear.
fn random_model(seed: u64, n_nodes: usize, n_metrics: usize, max_nnz: usize) -> DbModel {
    let nodes = (0..n_nodes)
        .map(|i| {
            let r = mix(seed, i as u64);
            DbNode {
                parent: (i as u32) - (r as u32) % (i as u32 + 1).min(9),
                scope: ScopeKind::Frame {
                    proc: ProcId((r >> 8) as u32 % 7),
                    module: LoadModuleId((r >> 16) as u32 % 2),
                    def: SourceLoc::new(FileId((r >> 24) as u32 % 3), 1 + (r >> 32) as u32 % 90),
                    call_site: (r & 1 == 0).then_some(SourceLoc::new(
                        FileId((r >> 24) as u32 % 3),
                        (r >> 40) as u32 % 500,
                    )),
                },
            }
        })
        .collect();
    let metrics = (0..n_metrics)
        .map(|m| {
            let ms = seed ^ (m as u64).rotate_left(23);
            let nnz = (mix(ms, 0) as usize % (max_nnz + 1)).min(n_nodes);
            let mut keys: Vec<u32> = (1..=n_nodes as u32).collect();
            // Partial shuffle, take nnz, sort: a uniformly random
            // ascending subset of the node ids.
            for k in 0..nnz {
                let j = k + mix(ms, k as u64 + 1) as usize % (n_nodes - k);
                keys.swap(k, j);
            }
            keys.truncate(nnz);
            keys.sort_unstable();
            DbMetric {
                name: format!("M{m}"),
                unit: "ev".into(),
                period: 1.0,
                costs: keys
                    .into_iter()
                    .enumerate()
                    .map(|(k, key)| (key, finite(mix(ms, 1000 + k as u64))))
                    .collect(),
            }
        })
        .collect();
    DbModel {
        procs: (0..7).map(|i| format!("p{i}")).collect(),
        files: (0..3).map(|i| format!("f{i}.c")).collect(),
        modules: vec!["app".into(), "libm.so".into()],
        nodes,
        metrics,
        derived: vec![],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn v21_write_read_is_a_fixed_point(
        seed in 0u64..1000, n_nodes in 1usize..120, max_nnz in 0usize..70
    ) {
        let model = random_model(seed, n_nodes, 5, max_nnz);
        let bytes = bin2::write_v21(&model);
        verify_container(&bytes).unwrap();
        let back = bin2::read(&bytes).unwrap();
        prop_assert_eq!(&back, &model);
        prop_assert_eq!(bin2::write_v21(&back), bytes);
    }

    #[test]
    fn borrowed_reads_match_owned_decodes_bit_for_bit(
        seed in 0u64..1000, n_nodes in 1usize..120, max_nnz in 0usize..70
    ) {
        let model = random_model(seed, n_nodes, 5, max_nnz);
        let bytes = bin2::write_v21(&model);
        let lazy = open_lazy(bytes.clone()).unwrap();
        let eager = from_binary(&bytes).unwrap();
        for (m, metric) in model.metrics.iter().enumerate() {
            let id = MetricId::from_usize(m);
            // Every stored entry, bit for bit, through the borrow...
            for &(k, v) in &metric.costs {
                prop_assert_eq!(lazy.raw.column(id).get(k).to_bits(), v.to_bits());
                prop_assert_eq!(eager.raw.column(id).get(k).to_bits(), v.to_bits());
            }
            // ...and zero where the column stores nothing.
            let stored: Vec<u32> = metric.costs.iter().map(|c| c.0).collect();
            for n in 0..=(n_nodes as u32) {
                if !stored.contains(&n) {
                    prop_assert_eq!(lazy.raw.column(id).get(n), 0.0);
                }
            }
        }
        prop_assert!(lazy.raw.lazy_errors().is_empty());
    }

    #[test]
    fn fixed_and_varint_encodings_agree_around_the_cutover(
        seed in 0u64..200, nnz in 24usize..44
    ) {
        // Force the column size right at the encoding boundary: the two
        // on-disk layouts must be externally indistinguishable.
        let mut model = random_model(seed, 50, 1, 0);
        model.metrics[0].costs = (0..nnz as u32)
            .map(|k| (k + 1, finite(mix(seed, 77 + k as u64))))
            .collect();
        let v21 = bin2::write_v21(&model);
        prop_assert_eq!(&bin2::read(&v21).unwrap(), &model);
        let lazy = open_lazy(v21).unwrap();
        for &(k, v) in &model.metrics[0].costs {
            prop_assert_eq!(lazy.raw.column(MetricId(0)).get(k).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn every_v21_truncation_errors(seed in 0u64..20) {
        let bytes = bin2::write_v21(&random_model(seed, 30, 4, 50));
        for cut in 0..bytes.len() {
            prop_assert!(from_binary(&bytes[..cut]).is_err(), "eager prefix {cut}");
            prop_assert!(open_lazy(bytes[..cut].to_vec()).is_err(), "lazy prefix {cut}");
            prop_assert!(verify_container(&bytes[..cut]).is_err(), "verify prefix {cut}");
        }
    }

    #[test]
    fn v21_byte_flips_are_rejected(
        seed in 0u64..20, victim in 0usize..100_000, mask in 1u8..255
    ) {
        let bytes = bin2::write_v21(&random_model(seed, 30, 4, 50));
        let mut bad = bytes;
        let i = victim % bad.len();
        bad[i] ^= mask;
        if i == 4 {
            // Flipping the version byte re-routes the file to another
            // reader; no-panic is all that can be promised there.
            let _ = from_binary(&bad);
        } else {
            // The eager reader checksums every section it decodes, and
            // verify_container checksums all of them: both must notice.
            prop_assert!(from_binary(&bad).is_err(), "flip at {i}");
            prop_assert!(verify_container(&bad).is_err(), "verify missed flip at {i}");
            // The lazy open skips topology checksums by design, so a
            // flipped link may legitimately open; it must never panic,
            // and cost-block flips must surface as a fault error.
            if let Ok(lazy) = open_lazy(bad.clone()) {
                decode_all(&lazy, 1);
            }
        }
    }
}
