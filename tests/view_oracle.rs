//! The Callers and Flat Views against one obviously-right oracle.
//!
//! The oracle restates DESIGN.md §6 over a plain parent array, with no
//! cleverness to get wrong. Per CCT node: Eq. 2 inclusive cost (every
//! direct cost added to each ancestor in turn), Eq. 1 displayed exclusive
//! cost and frame-direct cost. Per view row: the set S of CCT instances
//! the row stands for, built by definition —
//!
//! * Callers View: a top-level entry is every frame of one procedure; a
//!   caller line under a row is those of the row's instances whose next
//!   caller up is that (procedure, call site);
//! * Flat View: a module, file or procedure row is every frame of that
//!   module / defining file / procedure; a row inside a procedure is the
//!   CCT children of its parent row's instances that are the same loop,
//!   statement, inlined body or (call site, callee), and a call-site row
//!   is a leaf
//!
//! — and its values: over the members of S with no proper ancestor in S
//! (checked by walking every member's chain to the root), the sum of
//! their inclusive costs, and of their exclusive costs — except that a
//! call-site row's exclusive is the sum of their frame-direct costs and a
//! file's or module's the sum of its child rows' exclusives. A derived
//! column is its formula over the row's own values. Siblings come in the
//! order of their lowest instance. A zero is a blank cell. Flattening a
//! Flat View N times (§III-C) replaces each row that has children by its
//! children, N times or until every row is a leaf.
//!
//! Costs are small integers, so every sum is exact in any order and
//! "equal" means equal bits. CCTs are random, with direct and mutual
//! recursion (three procedures over a long chain), inlined bodies, loops,
//! and one procedure spread over two load modules. Each is presented
//! through `Experiment::build` and through every way a database of it
//! opens, in one process: XML (`from_xml`), the eager decode
//! (`from_binary`), and the lazy open from both file images — mapped by
//! path (`open_lazy_path`) and read from bytes (`open_lazy`). Each is
//! read in a seed-drawn order: some columns row by row while the tree is
//! being expanded (each before or after its row's expansion), the rest
//! for the first time once everything is expanded — a column filled on
//! its first read and a node filled on its expansion must come to the
//! same numbers whichever happens first. Each open is also flattened 0
//! to 6 times, each time from a new, unforced Flat View.
//!
//! Mutation check (done once, by hand, when this file was written): with
//! the exposure filter dropped — `ViewTree::push_instance` and
//! `set_instances` keeping every instance — all three tests fail, Fig. 2
//! with the textbook `ga = 14` for 9; with only the expansion's filter
//! dropped (`set_instances`) both properties fail at a caller line. In
//! `FlatView::flatten_once` keeping a parent beside its children, and in
//! `FlatView::flatten` stopping one level early, fail both properties and
//! Fig. 2 at level 1; dropping `flatten`'s fixed-point check fails
//! `flattening_stops_at_a_fixed_point` on its timeout.

use callpath_core::prelude::*;
use callpath_expdb::model::{DbMetric, DbModel, DbNode};
use callpath_expdb::{bin2, from_binary, from_xml, open_lazy, open_lazy_path, xml};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// splitmix64: models and read orders are pure functions of the scalars.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const N_PROCS: u32 = 4;

/// Line `line` of file `file`.
fn at(file: u32, line: u32) -> SourceLoc {
    SourceLoc::new(FileId(file), line)
}

/// A location in the model's own ids, as the oracle's keys hold it.
fn ids(l: SourceLoc) -> (u32, u32) {
    (l.file.0, l.line)
}

/// Derived columns 4, 5 and 6: source text, and the same formula as
/// plain arithmetic over (the row's values, the program's aggregates).
type Formula = fn(&[f64], &[f64]) -> f64;
const DERIVED: [(&str, &str, Formula); 3] = [
    ("waste", "$0 * 2 - $3", |v, _| v[0] * 2.0 - v[3]),
    ("share", "$2 / @2", |v, a| {
        if a[2] == 0.0 {
            0.0
        } else {
            v[2] / a[2]
        }
    }),
    ("both", "$4 + $1 * @5", |v, a| v[4] + v[1] * a[5]),
];

/// A random CCT: a call chain `chain` scopes deep, then `bushy` scopes
/// hung off random earlier ones. Procedures 0 to 2 recur along the chain,
/// directly and through one another; lines are few, so the same loop,
/// statement and call site turn up under many activations. Two metrics
/// with integer costs at random scopes of every kind.
fn random_model(seed: u64, chain: usize, bushy: usize, nnz: usize) -> DbModel {
    let mut nodes: Vec<DbNode> = Vec::new();
    let mut hosts: Vec<u32> = vec![0];
    let mut framed = vec![false];
    for i in 0..chain + bushy {
        let id = i as u32 + 1;
        let r = mix(seed, i as u64);
        let parent = if i < chain {
            id - 1
        } else {
            hosts[(r >> 40) as usize % hosts.len()]
        };
        let pick = if !framed[parent as usize] {
            0
        } else if i < chain {
            r % 6
        } else {
            r % 10
        };
        let proc = (r >> 8) as u32 % N_PROCS;
        let line = 2 + (r >> 48) as u32 % 4;
        let (def, here) = (
            at(proc % 2, 10 * (proc + 1)),
            at((r >> 20) as u32 % 2, line),
        );
        let scope = match pick {
            0..=3 => ScopeKind::Frame {
                proc: ProcId(proc),
                // Procedure 3 was linked into both modules.
                module: LoadModuleId(if proc == 3 { (r >> 16) as u32 % 2 } else { 0 }),
                def,
                call_site: (r & 3 != 0).then_some(here),
            },
            4 => ScopeKind::InlinedFrame {
                proc: ProcId(proc),
                def,
                call_site: here,
            },
            5 | 6 => ScopeKind::Loop { header: here },
            _ => ScopeKind::Stmt { loc: here },
        };
        if pick < 7 {
            hosts.push(id);
        }
        framed.push(framed[parent as usize] || pick <= 4);
        nodes.push(DbNode { parent, scope });
    }
    let n = nodes.len() as u64 + 1;
    let metric = |m: u64| {
        let mut at: Vec<u32> = (0..nnz as u64)
            .map(|k| (mix(seed ^ (0xc057 + m), k) % n) as u32)
            .collect();
        at.sort_unstable();
        at.dedup();
        DbMetric {
            name: format!("M{m}"),
            unit: "ev".into(),
            period: 1.0,
            costs: at
                .into_iter()
                .map(|node| (node, 1.0 + (mix(seed ^ m, node as u64) % 100) as f64))
                .collect(),
        }
    };
    DbModel {
        procs: (0..N_PROCS).map(|i| format!("p{i}")).collect(),
        files: vec!["a.c".into(), "b.c".into()],
        modules: vec!["app".into(), "lib.so".into()],
        nodes,
        metrics: vec![metric(0), metric(1)],
        derived: DERIVED
            .iter()
            .map(|&(name, formula, _)| (name.into(), formula.into()))
            .collect(),
    }
}

// ---------------------------------------------------------------- oracle

/// What a view row presents, in the model's own ids.
#[derive(Debug, Clone, PartialEq)]
enum Key {
    ProcTop(u32),
    Caller(u32, Option<(u32, u32)>),
    Module(u32),
    File(u32),
    Procedure(u32),
    Loop(u32, u32),
    Stmt(u32, u32),
    Inlined(u32, (u32, u32)),
    CallSite(u32, Option<(u32, u32)>),
}

/// A dynamic frame's node and its (module, defining file, procedure).
type Frame = (u32, [u32; 3]);

/// One row of a view, by definition: the instances it stands for and the
/// rows under it.
struct Row {
    key: Key,
    set: Vec<u32>,
    children: Vec<Row>,
}

struct Oracle<'m> {
    model: &'m DbModel,
    /// Per metric, per CCT node: Eq. 2, Eq. 1, frame-direct cost.
    inclusive: Vec<Vec<f64>>,
    exclusive: Vec<Vec<f64>>,
    frame_direct: Vec<Vec<f64>>,
    /// `@c` per column.
    aggregates: Vec<f64>,
}

impl<'m> Oracle<'m> {
    fn new(model: &'m DbModel) -> Self {
        let n = model.nodes.len() + 1;
        let mut o = Oracle {
            model,
            inclusive: Vec::new(),
            exclusive: Vec::new(),
            frame_direct: Vec::new(),
            aggregates: Vec::new(),
        };
        for metric in &model.metrics {
            let (mut incl, mut excl, mut own) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
            for &(y, d) in &metric.costs {
                // Eq. 2: y is in its own subtree and in each ancestor's.
                let mut x = Some(y);
                while let Some(a) = x {
                    incl[a as usize] += d;
                    x = o.parent(a);
                }
                // Eq. 1. The root displays no exclusive cost.
                let Some(scope) = o.scope(y) else { continue };
                excl[y as usize] += d;
                if o.is_frame_like(y) {
                    own[y as usize] += d;
                    continue;
                }
                let p = o.parent(y).expect("a static scope has a parent");
                // Rule 2: a loop shows its direct child statements.
                if matches!(scope, ScopeKind::Stmt { .. })
                    && matches!(o.scope(p), Some(ScopeKind::Loop { .. }))
                {
                    excl[p as usize] += d;
                }
                // Rule 1: a frame shows everything down to the next frame;
                // what sits directly in its body is its frame-direct cost.
                let mut f = Some(p);
                while f.is_some_and(|a| !o.is_frame_like(a)) {
                    f = o.parent(f.unwrap());
                }
                if let Some(f) = f {
                    excl[f as usize] += d;
                    if f == p {
                        own[f as usize] += d;
                    }
                }
            }
            o.aggregates.extend([incl[0], incl[0]]);
            o.inclusive.push(incl);
            o.exclusive.push(excl);
            o.frame_direct.push(own);
        }
        for (_, _, formula) in DERIVED {
            let a = formula(&o.aggregates, &o.aggregates);
            o.aggregates.push(a);
        }
        o
    }

    fn parent(&self, x: u32) -> Option<u32> {
        (x != 0).then(|| self.model.nodes[x as usize - 1].parent)
    }

    fn scope(&self, x: u32) -> Option<&'m ScopeKind> {
        (x != 0).then(|| &self.model.nodes[x as usize - 1].scope)
    }

    fn is_frame_like(&self, x: u32) -> bool {
        matches!(
            self.scope(x),
            Some(ScopeKind::Frame { .. } | ScopeKind::InlinedFrame { .. })
        )
    }

    /// Every dynamic frame, ascending.
    fn frames(&self) -> Vec<Frame> {
        (1..=self.model.nodes.len() as u32)
            .filter_map(|x| match self.scope(x)? {
                ScopeKind::Frame {
                    proc, module, def, ..
                } => Some((x, [module.0, def.file.0, proc.0])),
                _ => None,
            })
            .collect()
    }

    /// The nearest dynamic frame properly above `x`.
    fn caller_frame(&self, x: u32) -> Option<u32> {
        let mut a = self.parent(x);
        while a.is_some_and(|a| !matches!(self.scope(a), Some(ScopeKind::Frame { .. }))) {
            a = self.parent(a.unwrap());
        }
        a.filter(|&a| a != 0)
    }

    /// The Callers View, fully expanded.
    fn callers(&self) -> Vec<Row> {
        let frames = self.frames();
        let mut procs: Vec<u32> = Vec::new();
        for &(_, [.., p]) in &frames {
            if !procs.contains(&p) {
                procs.push(p);
            }
        }
        let entry = |p: u32| {
            let members = frames.iter().filter(|f| f.1[2] == p).map(|f| (f.0, f.0));
            self.caller_row(Key::ProcTop(p), members.collect())
        };
        procs.into_iter().map(entry).collect()
    }

    /// A Callers row over `(instance, the frame of it whose caller is
    /// next)` pairs, ascending by instance.
    fn caller_row(&self, key: Key, members: Vec<(u32, u32)>) -> Row {
        let mut lines: Vec<(Key, Vec<(u32, u32)>)> = Vec::new();
        for &(inst, at) in &members {
            let Some(caller) = self.caller_frame(at) else {
                continue;
            };
            let (Some(ScopeKind::Frame { proc, .. }), Some(ScopeKind::Frame { call_site, .. })) =
                (self.scope(caller), self.scope(at))
            else {
                unreachable!("both are dynamic frames");
            };
            let key = Key::Caller(proc.0, call_site.map(ids));
            match lines.iter_mut().find(|l| l.0 == key) {
                Some(line) => line.1.push((inst, caller)),
                None => lines.push((key, vec![(inst, caller)])),
            }
        }
        Row {
            key,
            set: members.iter().map(|&(inst, _)| inst).collect(),
            children: lines
                .into_iter()
                .map(|(key, members)| self.caller_row(key, members))
                .collect(),
        }
    }

    /// The Flat View, fully expanded.
    fn flat(&self) -> Vec<Row> {
        // Frames grouped level by level, each level in order of its
        // lowest frame.
        fn group(frames: &[Frame], level: usize) -> Vec<(u32, Vec<Frame>)> {
            let mut groups: Vec<(u32, Vec<Frame>)> = Vec::new();
            for &f in frames {
                match groups.iter_mut().find(|g| g.0 == f.1[level]) {
                    Some(g) => g.1.push(f),
                    None => groups.push((f.1[level], vec![f])),
                }
            }
            groups
        }
        let set = |frames: &[Frame]| frames.iter().map(|f| f.0).collect::<Vec<u32>>();
        let modules = group(&self.frames(), 0).into_iter().map(|(m, in_module)| {
            let files = group(&in_module, 1).into_iter().map(|(f, in_file)| {
                let procedures = group(&in_file, 2).into_iter().map(|(p, of_proc)| Row {
                    key: Key::Procedure(p),
                    children: self.interior(&set(&of_proc)),
                    set: set(&of_proc),
                });
                Row {
                    key: Key::File(f),
                    set: set(&in_file),
                    children: procedures.collect(),
                }
            });
            Row {
                key: Key::Module(m),
                set: set(&in_module),
                children: files.collect(),
            }
        });
        modules.collect()
    }

    /// The rows under a Flat row standing for `set`: the CCT children of
    /// its instances, ascending, grouped by what they are.
    fn interior(&self, set: &[u32]) -> Vec<Row> {
        let mut rows: Vec<(Key, Vec<u32>)> = Vec::new();
        for c in 1..=self.model.nodes.len() as u32 {
            if !set.contains(&self.parent(c).unwrap()) {
                continue;
            }
            let key = match *self.scope(c).unwrap() {
                ScopeKind::Frame {
                    proc, call_site, ..
                } => Key::CallSite(proc.0, call_site.map(ids)),
                ScopeKind::InlinedFrame {
                    proc, call_site, ..
                } => Key::Inlined(proc.0, ids(call_site)),
                ScopeKind::Loop { header } => Key::Loop(header.file.0, header.line),
                ScopeKind::Stmt { loc } => Key::Stmt(loc.file.0, loc.line),
                ScopeKind::Root => unreachable!("the root is no node's child"),
            };
            match rows.iter_mut().find(|r| r.0 == key) {
                Some(row) => row.1.push(c),
                None => rows.push((key, vec![c])),
            }
        }
        let row = |(key, set): (Key, Vec<u32>)| Row {
            children: match key {
                Key::CallSite(..) => Vec::new(),
                _ => self.interior(&set),
            },
            key,
            set,
        };
        rows.into_iter().map(row).collect()
    }

    /// `per_node` summed over the members of `set` that have no proper
    /// ancestor in `set`.
    fn exposed_sum(&self, set: &[u32], per_node: &[f64]) -> f64 {
        let exposed = |&&x: &&u32| {
            let mut a = self.parent(x);
            while let Some(up) = a {
                if set.contains(&up) {
                    return false;
                }
                a = self.parent(up);
            }
            true
        };
        set.iter()
            .filter(exposed)
            .map(|&x| per_node[x as usize])
            .sum()
    }

    /// The row's value in every column.
    fn values(&self, row: &Row) -> Vec<f64> {
        let mut v = Vec::new();
        for m in 0..self.model.metrics.len() {
            v.push(self.exposed_sum(&row.set, &self.inclusive[m]));
            v.push(match row.key {
                Key::CallSite(..) => self.exposed_sum(&row.set, &self.frame_direct[m]),
                Key::Module(_) | Key::File(_) => {
                    let children = row.children.iter();
                    children.map(|c| self.values(c)[2 * m + 1]).sum()
                }
                _ => self.exposed_sum(&row.set, &self.exclusive[m]),
            });
        }
        for (_, _, formula) in DERIVED {
            let d = formula(&v, &self.aggregates);
            v.push(d);
        }
        v
    }
}

/// §III-C's flattening by definition: `rows` with each row that has
/// children replaced by its children, `times` times or until no row has
/// any.
fn flatten(rows: &[Row], times: usize) -> Vec<&Row> {
    let mut cur: Vec<&Row> = rows.iter().collect();
    for _ in 0..times {
        if cur.iter().all(|r| r.children.is_empty()) {
            break;
        }
        let mut next = Vec::new();
        for r in cur {
            if r.children.is_empty() {
                next.push(r);
            } else {
                next.extend(&r.children);
            }
        }
        cur = next;
    }
    cur
}

// ------------------------------------------------------------ comparison

fn key_of(view: &View<'_>, n: u32) -> Key {
    let tree = match view {
        View::Callers { view, .. } => &view.tree,
        View::Flat { view, .. } => &view.tree,
        View::CallingContext(_) => unreachable!("the oracle covers the two derived views"),
    };
    match *tree.scope(ViewNodeId(n)) {
        ViewScope::ProcTop { proc } => Key::ProcTop(proc.0),
        ViewScope::Caller { proc, call_site } => Key::Caller(proc.0, call_site.map(ids)),
        ViewScope::Module { module } => Key::Module(module.0),
        ViewScope::File { file } => Key::File(file.0),
        ViewScope::Procedure { proc } => Key::Procedure(proc.0),
        ViewScope::Loop { header } => Key::Loop(header.file.0, header.line),
        ViewScope::Stmt { loc: l } => Key::Stmt(l.file.0, l.line),
        ViewScope::Inlined { callee, call_site } => Key::Inlined(callee.0, ids(call_site)),
        ViewScope::CallSite { callee, loc: l } => Key::CallSite(callee.0, l.map(ids)),
    }
}

/// Row `n` of `view` against the oracle's `row` in `columns`.
fn check_row(how: &str, view: &View<'_>, oracle: &Oracle<'_>, n: u32, row: &Row, columns: &[u32]) {
    let want = oracle.values(row);
    for &c in columns {
        // Blank means zero, and zero means +0.0.
        let want = if want[c as usize] == 0.0 {
            0.0
        } else {
            want[c as usize]
        };
        let got = view.value(ColumnId(c), n);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{how}: {:?} column {c}: got {got}, want {want} over instances {:?}",
            row.key,
            row.set
        );
        assert_eq!(format::metric_value(got).is_empty(), want == 0.0);
    }
}

/// Walk `view` and the oracle's rows side by side, expanding everything
/// and comparing the columns `reads(row number)` names — those listed
/// before the split ahead of the row's expansion, the rest after it.
fn compare(
    how: &str,
    view: &mut View<'_>,
    oracle: &Oracle<'_>,
    rows: &[Row],
    reads: &mut dyn FnMut(u64) -> (Vec<u32>, usize),
) {
    let mut visited = 0;
    let mut pending: Vec<(Vec<u32>, &[Row])> = vec![(view.roots(), rows)];
    while let Some((nodes, rows)) = pending.pop() {
        let keys: Vec<Key> = nodes.iter().map(|&n| key_of(view, n)).collect();
        let want: Vec<Key> = rows.iter().map(|r| r.key.clone()).collect();
        assert_eq!(keys, want, "{how}: sibling rows, in order");
        for (&n, row) in nodes.iter().zip(rows) {
            let (columns, split) = reads(visited);
            visited += 1;
            check_row(how, view, oracle, n, row, &columns[..split]);
            let children = view.children(n);
            check_row(how, view, oracle, n, row, &columns[split..]);
            pending.push((children, &row.children));
        }
    }
}

/// Both views of `exp` against the oracle: a first pass that expands
/// everything while reading the columns of `early` in a drawn order
/// around each expansion, a second that reads every column.
fn check_views(how: &str, exp: &Experiment, oracle: &Oracle<'_>, order: u64, early: u32) {
    let n_columns = 4 + DERIVED.len() as u32;
    assert_eq!(exp.columns.column_count(), n_columns as usize, "{how}");
    assert_eq!(exp.aggregates(), oracle.aggregates.as_slice(), "{how}");
    for (mut view, rows) in [
        (View::callers(exp), oracle.callers()),
        (View::flat(exp), oracle.flat()),
    ] {
        compare(how, &mut view, oracle, &rows, &mut |row| {
            let r = mix(order, row);
            let mut columns: Vec<u32> = (0..n_columns).filter(|c| early >> c & 1 == 1).collect();
            for i in (1..columns.len()).rev() {
                columns.swap(i, (mix(r, i as u64) % (i as u64 + 1)) as usize);
            }
            let split = r as usize % (columns.len() + 1);
            (columns, split)
        });
        let before = view.node_count();
        compare(how, &mut view, oracle, &rows, &mut |_| {
            ((0..n_columns).collect(), 0)
        });
        assert_eq!(
            view.node_count(),
            before,
            "{how}: the first pass expanded it all"
        );
    }
    check_flatten(how, exp, oracle, 0..=6);
    assert!(exp.columns.lazy_errors().is_empty() && exp.raw.lazy_errors().is_empty());
}

/// The Flat View flattened `levels` times, each from a new, unforced
/// shell, against the oracle's rows flattened as often: the same rows in
/// the same order, with the same value in every column.
fn check_flatten(
    how: &str,
    exp: &Experiment,
    oracle: &Oracle<'_>,
    levels: impl IntoIterator<Item = usize>,
) {
    let rows = oracle.flat();
    let columns: Vec<u32> = (0..exp.columns.column_count() as u32).collect();
    for level in levels {
        let mut view = View::flat(exp);
        let View::Flat { view: flat, .. } = &mut view else {
            unreachable!("View::flat builds a Flat View")
        };
        let roots = flat.tree.roots();
        let nodes: Vec<u32> = flat
            .flatten(exp, &roots, level)
            .iter()
            .map(|n| n.0)
            .collect();
        let want = flatten(&rows, level);
        let keys: Vec<Key> = nodes.iter().map(|&n| key_of(&view, n)).collect();
        let want_keys: Vec<Key> = want.iter().map(|r| r.key.clone()).collect();
        assert_eq!(keys, want_keys, "{how}: flattened {level} times");
        for (&n, row) in nodes.iter().zip(want) {
            check_row(how, &view, oracle, n, row, &columns);
        }
    }
}

/// Scratch files of the mapped opens, one name per model.
static FILES: AtomicUsize = AtomicUsize::new(0);

/// Both views of the built experiment and of every open of its
/// database, against the oracle.
fn check_model(model: &DbModel, order: u64, early: u32) {
    let oracle = Oracle::new(model);
    let bytes = bin2::write_v21(model);
    let path = std::env::temp_dir().join(format!(
        "callpath-view-oracle-{}-{}.cpdb",
        std::process::id(),
        FILES.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, &bytes).unwrap();
    let mapped = open_lazy_path(&path).unwrap();
    std::fs::remove_file(&path).ok();
    for (how, exp) in [
        ("built", model.clone().into_experiment().unwrap()),
        ("xml", from_xml(&xml::write(model)).unwrap()),
        ("from_binary", from_binary(&bytes).unwrap()),
        ("open_lazy_path", mapped),
        ("open_lazy", open_lazy(bytes).unwrap()),
    ] {
        check_views(how, &exp, &oracle, order, early);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn views_match_the_definition_on_random_ccts(
        seed in 0u64..100_000, bushy in 1usize..120, nnz in 0usize..60,
        order in 0u64..1_000, early in 0u32..128
    ) {
        check_model(&random_model(seed, 0, bushy, nnz), order, early);
    }

    #[test]
    fn views_match_the_definition_under_recursion(
        seed in 0u64..100_000, chain in 2usize..40, bushy in 0usize..60, nnz in 1usize..60,
        order in 0u64..1_000, early in 0u32..128
    ) {
        check_model(&random_model(seed, chain, bushy, nnz), order, early);
    }
}

/// Asked for more layers than the tree has, flattening stops at its
/// fixed point, every row a leaf, rather than stepping on in place. The
/// walk runs on its own thread, so a flatten that never stops fails here
/// instead of hanging the suite.
#[test]
fn flattening_stops_at_a_fixed_point() {
    let (done, stopped) = mpsc::channel();
    let walk = std::thread::spawn(move || {
        let model = random_model(7, 30, 60, 40);
        let oracle = Oracle::new(&model);
        let exp = model.clone().into_experiment().unwrap();
        check_flatten("built", &exp, &oracle, [usize::MAX]);
        done.send(()).ok();
    });
    let waited = stopped.recv_timeout(Duration::from_secs(10));
    assert!(
        !matches!(waited, Err(RecvTimeoutError::Timeout)),
        "flattening usize::MAX times never reached a fixed point"
    );
    if let Err(panic) = walk.join() {
        std::panic::resume_unwind(panic);
    }
}

/// Fig. 2 by hand, so that a failure of the properties above has a small
/// case next to it: `m → f → g → g → h`, `m → g`; costs 1, 1, 1, 3 in the
/// bodies of `f`, `g1`, `g2`, `g3` and 4 in `h`'s inner loop.
#[test]
fn the_oracle_reproduces_fig2() {
    let frame = |proc, def_file, call_site: Option<(u32, u32)>| ScopeKind::Frame {
        proc: ProcId(proc),
        module: LoadModuleId(0),
        def: at(def_file, 1),
        call_site: call_site.map(|(file, line)| at(file, line)),
    };
    let node = |parent, scope| DbNode { parent, scope };
    let stmt = |file, line| ScopeKind::Stmt {
        loc: at(file, line),
    };
    let mut model = random_model(0, 0, 0, 0);
    model.nodes = vec![
        node(0, frame(0, 0, None)),         // 1 m
        node(1, frame(1, 0, Some((0, 7)))), // 2 f
        node(2, frame(2, 1, Some((0, 2)))), // 3 g1
        node(3, frame(2, 1, Some((1, 3)))), // 4 g2
        node(4, frame(3, 1, Some((1, 4)))), // 5 h
        node(1, frame(2, 1, Some((0, 8)))), // 6 g3
        node(2, stmt(0, 2)),
        node(3, stmt(1, 3)),
        node(4, stmt(1, 4)),
        node(6, stmt(1, 3)),
        node(5, ScopeKind::Loop { header: at(1, 8) }),
        node(11, ScopeKind::Loop { header: at(1, 9) }),
        node(12, stmt(1, 9)),
    ];
    model.metrics[0].costs = vec![(7, 1.0), (8, 1.0), (9, 1.0), (10, 3.0), (13, 4.0)];
    let oracle = Oracle::new(&model);
    let callers = oracle.callers();
    let g = callers.iter().find(|r| r.key == Key::ProcTop(2)).unwrap();
    assert_eq!(g.set, [3, 4, 6]);
    assert_eq!(oracle.values(g)[..2], [9.0, 4.0], "ga: exposed g1 + g3");
    let gg = &g.children[1];
    assert_eq!(
        (&gg.key, &gg.set[..]),
        (&Key::Caller(2, Some((1, 3))), &[4][..])
    );
    assert_eq!(
        oracle.values(gg)[..2],
        [5.0, 1.0],
        "g←g is g2, exposed there"
    );
    let flat = oracle.flat();
    let file2 = &flat[0].children[1];
    assert_eq!(
        oracle.values(file2)[..2],
        [9.0, 8.0],
        "file2.e = gx.e + hx.e"
    );
    let gx = &file2.children[0];
    let hy = gx
        .children
        .iter()
        .find(|r| r.key == Key::CallSite(3, Some((1, 4))));
    assert_eq!(
        oracle.values(hy.unwrap())[..2],
        [4.0, 0.0],
        "h's cost is all in loops"
    );
    check_model(&model, 1, 0b101);
}
