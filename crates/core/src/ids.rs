//! Strongly-typed index newtypes used throughout the canonical CCT and its
//! derived views.
//!
//! All trees in this crate are arena-backed (`Vec<Node>`), so node
//! references are plain `u32` indices wrapped in newtypes. This keeps nodes
//! `Copy`, makes accidental cross-tree indexing a type error, and keeps the
//! arena compact (a node id is 4 bytes, not a fat pointer).

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Construct from a raw `usize` index (panics if it exceeds `u32`).
            #[inline]
            pub fn from_usize(i: usize) -> Self {
                debug_assert!(i <= u32::MAX as usize, "index overflow");
                $name(i as u32)
            }

            /// The raw index, for arena lookups.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }
    };
}

define_id!(
    /// A node in a canonical calling context tree (`Cct`).
    NodeId
);
define_id!(
    /// A node in a presentation view tree (Callers View / Flat View).
    ViewNodeId
);
define_id!(
    /// An interned procedure name.
    ProcId
);
define_id!(
    /// An interned source file name.
    FileId
);
define_id!(
    /// An interned load module (binary / shared library) name.
    LoadModuleId
);
define_id!(
    /// A *raw* measured metric (e.g. `PAPI_TOT_CYC`). Each raw metric
    /// contributes an inclusive and an exclusive presentation column.
    MetricId
);
define_id!(
    /// A presentation column in the metric pane: inclusive or exclusive
    /// projection of a raw metric, a summary statistic, or a derived metric.
    ColumnId
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_usize() {
        let id = NodeId::from_usize(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id, NodeId(42));
    }

    #[test]
    fn ordering_follows_index() {
        assert!(NodeId(1) < NodeId(2));
        assert!(ColumnId(0) < ColumnId(7));
    }

    #[test]
    fn debug_and_display() {
        assert_eq!(format!("{:?}", ProcId(3)), "ProcId(3)");
        assert_eq!(format!("{}", ProcId(3)), "3");
    }

    #[test]
    fn ids_are_distinct_types() {
        // Compile-time property: this test exists to document intent; the
        // macro generates distinct types so NodeId cannot index a view tree.
        fn takes_node(_: NodeId) {}
        takes_node(NodeId(0));
    }
}
