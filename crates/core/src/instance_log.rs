//! A table keyed by instance number, stored densely.
//!
//! Every per-instance table on the commit path — a learner's decided
//! log, a proposer's pinned proposals and outstanding accepts, an
//! acceptor's accepted values — is keyed by instance numbers that are
//! handed out in order and retired from the bottom by truncation. An
//! ordered map pays a tree search for each of those operations;
//! [`InstanceLog`] indexes instead. It holds a `base` instance and one
//! slot per instance from the oldest live entry to the newest:
//!
//! * an in-order insert is a `push_back`, a lookup is one subtraction;
//! * [`InstanceLog::remove`] trims empty slots at both ends, so the slots
//!   always span exactly the live entries' range;
//! * [`InstanceLog::drain_below`] is the truncation floor: it drops the
//!   prefix and hands back the removed values in instance order;
//! * iteration is ascending, so whatever is built from a log (a prepare
//!   response, an acceptor change's uncommitted proposals, re-queued
//!   orphans) keeps the order an ordered map gave it.
//!
//! Memory is bounded by the span between the oldest and the newest live
//! instance, which the truncation floor bounds exactly as it bounded the
//! maps. An insert far ahead of everything else allocates the hole in
//! between, so the table suits dense keys only. The protocols feed it
//! instance numbers straight from peer messages, which the crash-fault
//! model trusts; an insert more than [`MAX_GAP`] instances beyond either
//! end of the live span is taken for a corrupt instance number: it
//! panics, saying so, rather than aborting on allocation.
//!
//! The read API uses [`BTreeMap`](std::collections::BTreeMap)'s names
//! (`len`, `is_empty`, `get`, `contains_key`, `keys`, `values`, `iter`),
//! with keys by value. Equality compares content — the ascending
//! `(instance, value)` sequence — not slot layout.

use std::collections::{vec_deque, VecDeque};
use std::fmt;

use crate::types::Instance;

/// The widest hole an insert may open beyond either end of the live
/// span; see the [module docs](self).
pub const MAX_GAP: u64 = 1 << 24;

/// A dense instance-indexed table; see the [module docs](self).
#[derive(Clone)]
pub struct InstanceLog<T> {
    /// The instance of `slots[0]`.
    base: Instance,
    /// One slot per instance from the oldest live entry to the newest;
    /// the first and the last are always occupied.
    slots: VecDeque<Option<T>>,
    /// Occupied slots.
    len: usize,
}

impl<T> InstanceLog<T> {
    /// An empty log.
    pub const fn new() -> Self {
        InstanceLog {
            base: 0,
            slots: VecDeque::new(),
            len: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the log holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// How many slots lie below `inst`: its slot index, clamped to the
    /// span.
    fn slots_below(&self, inst: Instance) -> usize {
        usize::try_from(inst.saturating_sub(self.base))
            .unwrap_or(usize::MAX)
            .min(self.slots.len())
    }

    /// The slot index of `inst`, if it lies inside the live span.
    fn index(&self, inst: Instance) -> Option<usize> {
        let i = usize::try_from(inst.checked_sub(self.base)?).ok()?;
        (i < self.slots.len()).then_some(i)
    }

    /// The entry at `inst`.
    pub fn get(&self, inst: Instance) -> Option<&T> {
        self.slots[self.index(inst)?].as_ref()
    }

    /// Whether an entry exists at `inst`.
    pub fn contains_key(&self, inst: Instance) -> bool {
        self.get(inst).is_some()
    }

    /// The newest live instance.
    pub fn last_key(&self) -> Option<Instance> {
        (self.len > 0).then(|| self.base + self.slots.len() as Instance - 1)
    }

    /// Stores `value` at `inst`, returning the entry it replaced. An
    /// insert just past the newest entry is a `push_back`; one below the
    /// oldest or beyond the newest fills the gap with empty slots.
    pub fn insert(&mut self, inst: Instance, value: T) -> Option<T> {
        if self.slots.is_empty() {
            self.base = inst;
        } else if inst < self.base {
            check_gap(self.base - inst);
            let gap = (self.base - inst) as usize;
            self.slots.reserve(gap);
            for _ in 1..gap {
                self.slots.push_front(None);
            }
            self.slots.push_front(Some(value));
            self.base = inst;
            self.len += 1;
            return None;
        }
        let i = (inst - self.base) as usize;
        if let Some(slot) = self.slots.get_mut(i) {
            let prior = slot.replace(value);
            self.len += usize::from(prior.is_none());
            return prior;
        }
        check_gap((i - self.slots.len()) as u64);
        self.slots.resize_with(i, || None);
        self.slots.push_back(Some(value));
        self.len += 1;
        None
    }

    /// Removes and returns the entry at `inst`, trimming the empty slots
    /// this leaves at either end.
    pub fn remove(&mut self, inst: Instance) -> Option<T> {
        let i = self.index(inst)?;
        let value = self.slots[i].take()?;
        self.len -= 1;
        self.trim();
        Some(value)
    }

    /// Drops empty slots at both ends.
    fn trim(&mut self) {
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        while let Some(None) = self.slots.back() {
            self.slots.pop_back();
        }
    }

    /// Removes every entry below `floor` and returns the removed values
    /// in instance order.
    pub fn drain_below(&mut self, floor: Instance) -> Vec<T> {
        let cut = self.slots_below(floor);
        let below: Vec<T> = self.slots.drain(..cut).flatten().collect();
        self.base += cut as Instance;
        self.len -= below.len();
        self.trim();
        below
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.len = 0;
    }

    /// The entries in ascending instance order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            next: self.base,
            slots: self.slots.iter(),
        }
    }

    /// The entries at or above `from`, in ascending instance order.
    pub fn range_from(&self, from: Instance) -> Iter<'_, T> {
        let skip = self.slots_below(from);
        Iter {
            next: self.base + skip as Instance,
            slots: self.slots.range(skip..),
        }
    }

    /// The live instances, ascending.
    pub fn keys(&self) -> impl Iterator<Item = Instance> + '_ {
        self.iter().map(|(i, _)| i)
    }

    /// The live values, in instance order.
    pub fn values(&self) -> impl Iterator<Item = &T> + '_ {
        self.iter().map(|(_, v)| v)
    }
}

impl<T> Default for InstanceLog<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: PartialEq> PartialEq for InstanceLog<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: Eq> Eq for InstanceLog<T> {}

impl<T: fmt::Debug> fmt::Debug for InstanceLog<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Ascending iterator over an [`InstanceLog`]'s `(instance, value)`
/// entries.
#[derive(Debug)]
pub struct Iter<'a, T> {
    /// The instance of the next slot from the front.
    next: Instance,
    slots: vec_deque::Iter<'a, Option<T>>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = (Instance, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        for slot in self.slots.by_ref() {
            let inst = self.next;
            self.next += 1;
            if let Some(v) = slot {
                return Some((inst, v));
            }
        }
        None
    }
}

impl<'a, T> IntoIterator for &'a InstanceLog<T> {
    type Item = (Instance, &'a T);
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

/// Panics if an insert would open a hole wider than [`MAX_GAP`].
fn check_gap(gap: u64) {
    assert!(
        gap <= MAX_GAP,
        "instance log: an insert {gap} instances beyond the live span (more than {MAX_GAP}); corrupt instance number?"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_inserts_append_and_removes_trim_both_ends() {
        let mut log = InstanceLog::new();
        for i in 5..10u64 {
            assert_eq!(log.insert(i, i * 10), None);
        }
        assert_eq!(log.len(), 5);
        assert_eq!(log.insert(7, 71), Some(70));
        assert_eq!(log.remove(5), Some(50));
        assert_eq!(log.remove(9), Some(90));
        assert_eq!(log.remove(9), None);
        assert_eq!((log.base, log.slots.len()), (6, 3));
        assert_eq!(log.remove(7), Some(71));
        assert_eq!(log.keys().collect::<Vec<_>>(), vec![6, 8]);
        assert_eq!(log.slots.len(), 3, "an inner hole keeps its slot");
        log.remove(6);
        log.remove(8);
        assert!(log.is_empty() && log.slots.is_empty());
    }

    #[test]
    fn inserts_below_the_base_and_far_ahead_leave_holes() {
        let mut log = InstanceLog::new();
        log.insert(10, 'a');
        log.insert(4, 'b');
        log.insert(20, 'c');
        assert_eq!(
            log.iter().collect::<Vec<_>>(),
            vec![(4, &'b'), (10, &'a'), (20, &'c')]
        );
        assert_eq!(log.last_key(), Some(20));
        assert!(!log.contains_key(5) && !log.contains_key(3) && !log.contains_key(21));
        assert_eq!(
            log.range_from(5).collect::<Vec<_>>(),
            vec![(10, &'a'), (20, &'c')]
        );
    }

    #[test]
    #[should_panic(expected = "corrupt instance number")]
    fn an_insert_far_beyond_the_span_panics() {
        let mut log = InstanceLog::new();
        log.insert(10, 'a');
        log.insert(11 + MAX_GAP + 1, 'b');
    }

    #[test]
    #[should_panic(expected = "corrupt instance number")]
    fn an_insert_far_below_the_base_panics() {
        let mut log = InstanceLog::new();
        log.insert(MAX_GAP + 10, 'a');
        log.insert(1, 'b');
    }

    #[test]
    fn drain_below_returns_the_prefix_in_order() {
        let mut log = InstanceLog::new();
        for i in [3u64, 1, 7, 4, 9] {
            log.insert(i, i);
        }
        assert_eq!(log.drain_below(5), vec![1, 3, 4]);
        assert_eq!(log.keys().collect::<Vec<_>>(), vec![7, 9]);
        assert!(log.drain_below(2).is_empty());
        assert_eq!(log.drain_below(100), vec![7, 9]);
        assert!(log.is_empty());
        log.insert(50, 50);
        assert_eq!(log.iter().collect::<Vec<_>>(), vec![(50, &50)]);
    }

    #[test]
    fn equality_compares_content_not_layout() {
        let mut a = InstanceLog::new();
        let mut b = InstanceLog::new();
        a.insert(1, 'x');
        a.insert(2, 'y');
        a.remove(2);
        b.insert(0, 'z');
        b.insert(1, 'x');
        b.remove(0);
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), "{1: 'x'}");
        b.insert(3, 'w');
        assert_ne!(a, b);
    }
}
