//! The bounded session table: many independent viewer [`Session`]s
//! multiplexed over shared immutable [`Experiment`]s, with eviction
//! once the table is full.
//!
//! # Who pays for a full table
//!
//! Every session remembers its *owner* — the connection that opened it
//! (0 for callers that have none: `Engine::handle_line`, the tests).
//! When the table is full, [`SessionTable::insert`] evicts the
//! least-recently-used session *of the owner that holds the most
//! sessions* (owners tied on the count: the least-recently-used session
//! among theirs). A connection that churns through sessions therefore
//! recycles its own stale ones and cannot push out another
//! connection's only live session. With a single owner this is plain
//! LRU, and the cap is hard either way: when every owner holds one
//! session, one of those goes. Ownership decides eviction only — any
//! connection may use any live session id. DESIGN.md §14 has the
//! arithmetic that made plain LRU fail once a request cost 30 µs.
//!
//! # Why the `'static` lifetime hack is sound
//!
//! `Session<'e>` borrows `&'e Experiment`. A table of sessions opened
//! at arbitrary times over arbitrary databases can't express those
//! borrows in the type system, so each slot erases the lifetime: the
//! session is stored as `Session<'static>` pointing into an
//! `Arc<Experiment>` held by the same slot. This is sound because:
//!
//! 1. the `Experiment` lives on the heap behind an `Arc`, so its
//!    address is stable for the `Arc`'s whole life — moving the slot
//!    (e.g. when the `HashMap` rehashes) moves the pointer, not the
//!    pointee;
//! 2. `_exp` is declared *after* `session`, so the session (and every
//!    internal borrow) drops before the `Arc` it points into;
//! 3. a `Session` never takes `&mut Experiment`: lazy column faults
//!    and attribution caches go through `OnceLock`/`RwLock` interior
//!    mutability, which is exactly what makes sharing one experiment
//!    across many sessions safe in the first place (DESIGN.md §10).

use callpath_core::prelude::{Experiment, SourceStore};
use callpath_viewer::Session;
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One resident session plus the experiment that keeps it alive.
pub struct SessionSlot {
    /// The interactive session, lifetime-erased (see module docs).
    /// Field order matters: must drop before `_exp`.
    pub session: Mutex<Session<'static>>,
    /// Database path the session was opened on (reported by `stats`).
    pub path: String,
    /// The connection that opened the session (see the module docs).
    owner: u64,
    /// Logical-clock stamp of the last request that touched this slot
    /// (atomic so `touch` can stamp through a shared `Arc`).
    last_used: AtomicU64,
    /// Keeps the experiment (and the mmap behind it) alive.
    _exp: Arc<Experiment>,
}

impl SessionSlot {
    fn new(owner: u64, exp: Arc<Experiment>, path: String, now: u64) -> Self {
        // SAFETY: see the module-level soundness argument. The borrow
        // is created from the Arc's stable heap pointer and outlived
        // by `_exp` in the same struct; declaration order guarantees
        // the session drops first.
        let session = {
            let exp_static: &'static Experiment = unsafe { &*Arc::as_ptr(&exp) };
            Session::new(exp_static, SourceStore::new())
        };
        SessionSlot {
            session: Mutex::new(session),
            path,
            owner,
            last_used: AtomicU64::new(now),
            _exp: exp,
        }
    }
}

/// Bounded id → slot map; a full table evicts the least-recently-used
/// session of the owner holding the most.
pub struct SessionTable {
    slots: HashMap<u64, Arc<SessionSlot>>,
    next_id: u64,
    clock: u64,
    capacity: usize,
    evictions: u64,
}

impl SessionTable {
    /// An empty table holding at most `capacity` live sessions.
    pub fn new(capacity: usize) -> Self {
        SessionTable {
            slots: HashMap::new(),
            next_id: 1,
            clock: 0,
            capacity: capacity.max(1),
            evictions: 0,
        }
    }

    /// Open a new session over `exp` for `owner`; evicts first if the
    /// table is full. Returns the new session id.
    pub fn insert(&mut self, owner: u64, exp: Arc<Experiment>, path: String) -> u64 {
        while self.slots.len() >= self.capacity {
            let Some(victim) = self.victim() else { break };
            self.slots.remove(&victim);
            self.evictions += 1;
        }
        self.clock += 1;
        let id = self.next_id;
        self.next_id += 1;
        let slot = SessionSlot::new(owner, exp, path, self.clock);
        self.slots.insert(id, Arc::new(slot));
        id
    }

    /// The session to evict: the least-recently-used one among the
    /// owners holding the most sessions.
    fn victim(&self) -> Option<u64> {
        let mut held: HashMap<u64, usize> = HashMap::new();
        for slot in self.slots.values() {
            *held.entry(slot.owner).or_default() += 1;
        }
        self.slots
            .iter()
            .min_by_key(|(_, slot)| {
                let last_used = slot.last_used.load(Ordering::Relaxed);
                (Reverse(held[&slot.owner]), last_used)
            })
            .map(|(&id, _)| id)
    }

    /// Look up a session and stamp it most-recently-used. The returned
    /// `Arc` keeps the slot alive even if a concurrent `open` evicts it
    /// from the table mid-request.
    pub fn touch(&mut self, id: u64) -> Option<Arc<SessionSlot>> {
        self.clock += 1;
        let slot = self.slots.get(&id)?;
        slot.last_used.store(self.clock, Ordering::Relaxed);
        Some(Arc::clone(slot))
    }

    /// Drop a session explicitly. Returns `true` if it existed.
    pub fn remove(&mut self, id: u64) -> bool {
        self.slots.remove(&id).is_some()
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// How many slots eviction has reclaimed since startup.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use callpath_core::prelude::{Cct, MetricDesc, NameTable, RawMetrics, StorageKind};

    /// A root-only experiment: the table never looks inside it.
    fn exp() -> Arc<Experiment> {
        let mut raw = RawMetrics::new(StorageKind::Csr);
        raw.add_metric(MetricDesc::new("cycles", "cycles", 1.0));
        let cct = Cct::new(NameTable::new());
        Arc::new(Experiment::build(cct, raw, StorageKind::Csr))
    }

    fn open(table: &mut SessionTable, owner: u64) -> u64 {
        table.insert(owner, exp(), "x.cpdb".into())
    }

    fn live(table: &SessionTable) -> Vec<u64> {
        let mut ids: Vec<u64> = table.slots.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn one_owner_evicts_in_exact_lru_order() {
        let mut table = SessionTable::new(3);
        let ids: Vec<u64> = (0..3).map(|_| open(&mut table, 7)).collect();
        // Recency, oldest first: ids[1], ids[2], ids[0].
        assert!(table.touch(ids[0]).is_some());
        let fourth = open(&mut table, 7);
        assert_eq!(live(&table), vec![ids[0], ids[2], fourth]);
        let fifth = open(&mut table, 7);
        assert_eq!(live(&table), vec![ids[0], fourth, fifth]);
        let sixth = open(&mut table, 7);
        assert_eq!(live(&table), vec![fourth, fifth, sixth]);
        assert_eq!(table.evictions(), 3);
        assert!(table.touch(ids[1]).is_none());
    }

    #[test]
    fn a_churning_owner_recycles_its_own_sessions() {
        for capacity in [3, 4, 16] {
            let mut table = SessionTable::new(capacity);
            let a = open(&mut table, 1);
            let opens = 3 * capacity;
            for _ in 0..opens {
                open(&mut table, 2);
            }
            // A's session is the least recently used of all, and stays.
            assert!(table.touch(a).is_some(), "capacity {capacity}");
            assert_eq!(table.len(), capacity);
            assert_eq!(table.evictions(), (opens - (capacity - 1)) as u64);
        }
    }

    #[test]
    fn owners_at_equal_counts_lose_the_globally_least_recent() {
        let mut table = SessionTable::new(4);
        let a1 = open(&mut table, 1);
        let b1 = open(&mut table, 2);
        let a2 = open(&mut table, 1);
        let b2 = open(&mut table, 2);
        assert!(table.touch(a1).is_some());
        // Two each; oldest first: b1, a2, b2, a1. A third owner's open
        // takes b1, which leaves owner 1 holding the most.
        let c1 = open(&mut table, 3);
        assert_eq!(live(&table), vec![a1, a2, b2, c1]);
        assert!(table.touch(b1).is_none());
        let c2 = open(&mut table, 3);
        assert_eq!(live(&table), vec![a1, b2, c1, c2]);
    }

    #[test]
    fn the_cap_is_hard_when_every_owner_holds_one() {
        let mut table = SessionTable::new(2);
        let a = open(&mut table, 1);
        let b = open(&mut table, 2);
        let c = open(&mut table, 3);
        assert_eq!(live(&table), vec![b, c]);
        assert!(table.touch(a).is_none());
        assert_eq!((table.len(), table.evictions()), (2, 1));
    }
}
