//! Hot path analysis (Section V-C, Equation 3).
//!
//! Starting from a selected scope `x` and metric column, the hot path
//! extends to the child with the maximum inclusive value whenever that
//! child accounts for at least a threshold fraction `t` of `x`'s value:
//!
//! ```text
//! H(x) = H(Cmax(x))   if m(Cmax(x)) >= t * m(x)
//!      = x            otherwise
//! ```
//!
//! The paper found `t = 50%` most useful in practice and lets the user
//! adjust it in a preferences dialog; `HotPathConfig::default` mirrors
//! that. The implementation is generic over any tree (CCT, Callers View,
//! Flat View — "it is not just something that one applies to the root of
//! the calling context tree"), expressed as closures so lazily constructed
//! views can materialize children during the descent.

use crate::viewtree::SortDir;

/// Hot-path parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotPathConfig {
    /// Threshold fraction `t` in (0, 1].
    pub threshold: f64,
    /// Safety bound on path length (recursion in views could otherwise
    /// descend indefinitely when lazily expanding).
    pub max_depth: usize,
}

impl Default for HotPathConfig {
    fn default() -> Self {
        HotPathConfig {
            threshold: 0.5,
            max_depth: 512,
        }
    }
}

impl HotPathConfig {
    /// A config with the given threshold and default depth bound.
    pub fn with_threshold(threshold: f64) -> Self {
        assert!(
            threshold > 0.0 && threshold <= 1.0,
            "hot path threshold must be in (0, 1]"
        );
        HotPathConfig {
            threshold,
            ..Default::default()
        }
    }
}

/// Compute the hot path from `start` (inclusive) down the tree.
///
/// * `children(n)` returns the children of `n` (any iterable: a borrowed
///   walk over the CCT, or a list a lazy view materialized).
/// * `value(n)` returns the selected column's (inclusive) value at `n`.
///
/// Returns the nodes along the hot path, starting with `start` and ending
/// at the scope where the path goes cold. Cmax is the child the
/// navigation pane ranks first (`SortDir::Descending`, NaN last); ties
/// between equal-valued children resolve to the first child in tree
/// order, keeping results deterministic.
pub fn hot_path<N: Copy, I: IntoIterator<Item = N>>(
    start: N,
    config: HotPathConfig,
    mut children: impl FnMut(N) -> I,
    mut value: impl FnMut(N) -> f64,
) -> Vec<N> {
    let mut path = vec![start];
    let mut cur = start;
    let mut cur_value = value(start);
    for _ in 0..config.max_depth {
        let mut best: Option<(N, f64)> = None;
        for k in children(cur) {
            let v = value(k);
            // First max in the navigation pane's ranking: NaN after every
            // number, so a NaN child is Cmax only among NaNs.
            if best.is_none_or(|(_, bv)| SortDir::Descending.cmp_values(v, bv).is_lt()) {
                best = Some((k, v));
            }
        }
        match best {
            Some((k, v)) if cur_value > 0.0 && v >= config.threshold * cur_value => {
                path.push(k);
                cur = k;
                cur_value = v;
            }
            _ => break,
        }
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny adjacency-list tree for testing: `kids[n]` are children of n,
    /// `vals[n]` the metric values.
    fn run(kids: &[Vec<usize>], vals: &[f64], start: usize, t: f64) -> Vec<usize> {
        hot_path(
            start,
            HotPathConfig::with_threshold(t),
            |n| kids[n].clone(),
            |n| vals[n],
        )
    }

    #[test]
    fn follows_dominant_child() {
        // 0 -> {1: 90, 2: 10}; 1 -> {3: 80}; 3 -> {4: 10}
        let kids = vec![vec![1, 2], vec![3], vec![], vec![4], vec![]];
        let vals = vec![100.0, 90.0, 10.0, 80.0, 10.0];
        assert_eq!(run(&kids, &vals, 0, 0.5), vec![0, 1, 3]);
    }

    #[test]
    fn stops_when_cost_disperses() {
        // Root 100 with three children of ~33 each: no child reaches 50%.
        let kids = vec![vec![1, 2, 3], vec![], vec![], vec![]];
        let vals = vec![100.0, 34.0, 33.0, 33.0];
        assert_eq!(run(&kids, &vals, 0, 0.5), vec![0]);
    }

    #[test]
    fn threshold_changes_the_answer() {
        let kids = vec![vec![1], vec![2], vec![]];
        let vals = vec![100.0, 40.0, 39.0];
        assert_eq!(run(&kids, &vals, 0, 0.5), vec![0], "40 < 50% of 100");
        assert_eq!(
            run(&kids, &vals, 0, 0.3),
            vec![0, 1, 2],
            "40 >= 30% of 100, 39 >= 30% of 40"
        );
    }

    #[test]
    fn applies_from_any_subtree() {
        let kids = vec![vec![1, 2], vec![3], vec![], vec![]];
        let vals = vec![100.0, 20.0, 80.0, 19.0];
        // From the root the hot path goes to node 2.
        assert_eq!(run(&kids, &vals, 0, 0.5), vec![0, 2]);
        // But the analyst can apply it inside the cold subtree too.
        assert_eq!(run(&kids, &vals, 1, 0.5), vec![1, 3]);
    }

    #[test]
    fn tie_breaks_to_first_child() {
        let kids = vec![vec![1, 2], vec![], vec![]];
        let vals = vec![100.0, 60.0, 60.0];
        assert_eq!(run(&kids, &vals, 0, 0.5), vec![0, 1]);
    }

    #[test]
    fn zero_valued_start_is_a_fixed_point() {
        let kids = vec![vec![1], vec![]];
        let vals = vec![0.0, 0.0];
        assert_eq!(run(&kids, &vals, 0, 0.5), vec![0]);
    }

    #[test]
    fn leaf_start() {
        let kids = vec![vec![]];
        let vals = vec![42.0];
        assert_eq!(run(&kids, &vals, 0, 0.5), vec![0]);
    }

    #[test]
    fn max_depth_bounds_descent() {
        // A unary chain where every child retains 100% of the cost.
        let n = 1000;
        let kids: Vec<Vec<usize>> = (0..n)
            .map(|i| if i + 1 < n { vec![i + 1] } else { vec![] })
            .collect();
        let vals = vec![1.0; n];
        let cfg = HotPathConfig {
            threshold: 0.5,
            max_depth: 10,
        };
        let path = hot_path(0usize, cfg, |x| kids[x].clone(), |x| vals[x]);
        assert_eq!(path.len(), 11, "start plus max_depth steps");
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn rejects_invalid_threshold() {
        let _ = HotPathConfig::with_threshold(0.0);
    }
}
