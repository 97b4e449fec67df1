//! What correlating repeated contexts costs, as a count: the correlator
//! consults the structure once per distinct (frame node, address) pair
//! it meets, not once per raw frame or leaf sample.
//!
//! Alone in its file: `prof.static_descents` is a process-wide counter,
//! and any other test correlating in this process would add to it.

use callpath_prof::Correlator;
use callpath_profiler::{execute, lower, ExecConfig, RawProfile};
use callpath_structure::recover;
use callpath_workloads::generator::{random_program, GenConfig};

#[test]
fn repeated_contexts_descend_once() {
    if !callpath_obs::enabled() {
        return;
    }
    // 20 ranks of a program of `batch_job`'s shape (150 procedures),
    // each with its own work scale and jitter.
    let program = random_program(GenConfig {
        seed: 48,
        n_procs: 150,
        ..Default::default()
    });
    let bin = lower(&program);
    let structure = recover(&bin).unwrap();
    let base = ExecConfig::default();
    let rank = |r: u64| {
        let mut cfg = base.clone();
        cfg.work_scale = 0.5 + (r % 8) as f64 / 16.0;
        cfg.jitter_seed = Some(3 + r);
        execute(&bin, &cfg).unwrap().profile
    };
    let ranks: Vec<RawProfile> = (0..20).map(rank).collect();
    // Static descents and contexts of one correlation of `profiles`.
    let descents = |profiles: &[RawProfile]| {
        let before = callpath_obs::counter_value("prof.static_descents");
        let mut corr = Correlator::new(&structure, base.periods);
        profiles.iter().for_each(|p| drop(corr.add(p)));
        let after = callpath_obs::counter_value("prof.static_descents");
        (after - before, corr.cct().len())
    };

    let (one, one_nodes) = descents(&ranks[..1]);
    let clones = vec![ranks[0].clone(); 20];
    assert_eq!(descents(&clones), (one, one_nodes), "20 clones of a rank");
    let (distinct, nodes) = descents(&ranks);
    println!("one rank: {one} descents, {one_nodes} contexts; 20 ranks: {distinct}, {nodes}");
    assert!(one <= distinct && distinct <= nodes as u64);
}
