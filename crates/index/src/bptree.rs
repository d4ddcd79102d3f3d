//! An in-memory B+-tree with copy-on-write structural sharing.
//!
//! The paper obtains its headline `O(log u)` search "assuming a tree
//! structure for the searchable representations" (§5.1). The server in this
//! workspace keeps exactly that structure: a B+-tree mapping the PRF tag
//! `f_kw(w)` to the keyword's searchable representation. The tree is
//! instrumented — [`BpTree::get_with_stats`] reports the number of node
//! visits — so experiment E1 can *measure* the logarithmic depth rather
//! than assert it.
//!
//! Values live only in leaves; internal nodes hold copies of separator keys.
//! Branching factor is [`ORDER`] (children per internal node / entries per
//! leaf).
//!
//! Everything is shared by pointer: the root, every child and every value
//! sit behind an [`Arc`]. `BpTree::clone` is one reference-count bump, so
//! publishing a snapshot copies nothing. The first mutation after a
//! publish copies the nodes on its root-to-leaf path ([`Arc::make_mut`]
//! per node), and a node copy is its keys plus child or value pointers, at
//! most [`ORDER`] of each — never a value. A changed value is then cloned
//! on its own, and only if a snapshot still holds it: an append to one
//! keyword copies that keyword's representation and no other. The scheme
//! servers lean on this to publish an immutable search snapshot after
//! every applied mutation while writers keep mutating.

use std::fmt::Debug;
use std::sync::Arc;

/// Maximum children per internal node and entries per leaf.
pub const ORDER: usize = 16;
/// Minimum fill for non-root nodes.
const MIN_FILL: usize = ORDER / 2;

#[derive(Clone)]
enum Node<K, V> {
    Internal {
        /// `keys[i]` separates `children[i]` (keys `< keys[i]`) from
        /// `children[i+1]` (keys `>= keys[i]`).
        keys: Vec<K>,
        children: Vec<Arc<Node<K, V>>>,
    },
    Leaf {
        entries: Vec<(K, Arc<V>)>,
    },
}

impl<K: Ord + Clone, V: Clone> Node<K, V> {
    fn new_leaf() -> Self {
        Node::Leaf {
            entries: Vec::with_capacity(ORDER),
        }
    }

    fn len_for_fill(&self) -> usize {
        match self {
            Node::Internal { children, .. } => children.len(),
            Node::Leaf { entries } => entries.len(),
        }
    }
}

/// Take a node or a value out of its `Arc`, cloning only if a snapshot
/// still shares it.
fn unshare<T: Clone>(shared: Arc<T>) -> T {
    Arc::try_unwrap(shared).unwrap_or_else(|shared| (*shared).clone())
}

/// Result of inserting into a subtree: a value was replaced, and/or the node
/// split producing a new right sibling with its separator key.
struct InsertOutcome<K, V> {
    replaced: Option<Arc<V>>,
    split: Option<(K, Node<K, V>)>,
}

/// Lookup statistics for one point query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchStats {
    /// Nodes visited root→leaf (equals tree height).
    pub nodes_visited: usize,
    /// Key comparisons performed (binary-search probes).
    pub comparisons: usize,
}

/// A B+-tree map from `K` to `V`.
///
/// `Clone` is one reference-count bump: the clone shares the root, and
/// through it every node and value. A clone is a stable snapshot — a later
/// mutation of either tree copies the nodes on the path it walks (keys and
/// pointers) plus, for `get_mut`, the one value it hands out, and never
/// disturbs the other. The scheme servers use this to publish immutable
/// search snapshots of mutated shards.
#[derive(Clone)]
pub struct BpTree<K, V> {
    root: Arc<Node<K, V>>,
    len: usize,
}

impl<K: Ord + Clone, V: Clone> Default for BpTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Clone, V: Clone> BpTree<K, V> {
    /// Create an empty tree.
    #[must_use]
    pub fn new() -> Self {
        BpTree {
            root: Arc::new(Node::new_leaf()),
            len: 0,
        }
    }

    /// Number of stored entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the tree holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (number of levels; 1 for a lone leaf).
    #[must_use]
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = self.root.as_ref();
        while let Node::Internal { children, .. } = node {
            h += 1;
            node = children[0].as_ref();
        }
        h
    }

    /// Insert `key -> value`, returning the previous value if the key existed
    /// (a clone of it if a snapshot still shares it).
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let outcome = Self::insert_rec(Arc::make_mut(&mut self.root), key, Arc::new(value));
        if let Some((sep, right)) = outcome.split {
            // Grow a new root.
            self.root = Arc::new(Node::Internal {
                keys: vec![sep],
                children: vec![Arc::clone(&self.root), Arc::new(right)],
            });
        }
        if outcome.replaced.is_none() {
            self.len += 1;
        }
        outcome.replaced.map(unshare)
    }

    fn insert_rec(node: &mut Node<K, V>, key: K, value: Arc<V>) -> InsertOutcome<K, V> {
        match node {
            Node::Leaf { entries } => match entries.binary_search_by(|(k, _)| k.cmp(&key)) {
                Ok(pos) => InsertOutcome {
                    replaced: Some(std::mem::replace(&mut entries[pos].1, value)),
                    split: None,
                },
                Err(pos) => {
                    entries.insert(pos, (key, value));
                    let split = if entries.len() > ORDER {
                        let right_entries = entries.split_off(entries.len() / 2);
                        let sep = right_entries[0].0.clone();
                        Some((
                            sep,
                            Node::Leaf {
                                entries: right_entries,
                            },
                        ))
                    } else {
                        None
                    };
                    InsertOutcome {
                        replaced: None,
                        split,
                    }
                }
            },
            Node::Internal { keys, children } => {
                let idx = keys.partition_point(|k| *k <= key);
                let outcome = Self::insert_rec(Arc::make_mut(&mut children[idx]), key, value);
                let mut result = InsertOutcome {
                    replaced: outcome.replaced,
                    split: None,
                };
                if let Some((sep, right)) = outcome.split {
                    keys.insert(idx, sep);
                    children.insert(idx + 1, Arc::new(right));
                    if children.len() > ORDER {
                        // Split this internal node: middle key moves up.
                        let mid = keys.len() / 2;
                        let up_key = keys[mid].clone();
                        let right_keys = keys.split_off(mid + 1);
                        keys.pop(); // remove the promoted key
                        let right_children = children.split_off(mid + 1);
                        result.split = Some((
                            up_key,
                            Node::Internal {
                                keys: right_keys,
                                children: right_children,
                            },
                        ));
                    }
                }
                result
            }
        }
    }

    /// Point lookup.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.get_with_stats(key).0
    }

    /// Point lookup with instrumentation (node visits, comparisons).
    #[must_use]
    pub fn get_with_stats(&self, key: &K) -> (Option<&V>, SearchStats) {
        let mut stats = SearchStats {
            nodes_visited: 0,
            comparisons: 0,
        };
        let mut node = self.root.as_ref();
        loop {
            stats.nodes_visited += 1;
            match node {
                Node::Internal { keys, children } => {
                    stats.comparisons += keys.len().max(1).ilog2() as usize + 1;
                    let idx = keys.partition_point(|k| k <= key);
                    node = children[idx].as_ref();
                }
                Node::Leaf { entries } => {
                    stats.comparisons += entries.len().max(1).ilog2() as usize + 1;
                    return match entries.binary_search_by(|(k, _)| k.cmp(key)) {
                        Ok(pos) => (Some(entries[pos].1.as_ref()), stats),
                        Err(_) => (None, stats),
                    };
                }
            }
        }
    }

    /// Mutable point lookup. Copy-on-write: unshares the root→leaf path,
    /// and the one value returned, where a snapshot still holds them.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let mut node = Arc::make_mut(&mut self.root);
        loop {
            match node {
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|k| k <= key);
                    node = Arc::make_mut(&mut children[idx]);
                }
                Node::Leaf { entries } => {
                    return match entries.binary_search_by(|(k, _)| k.cmp(key)) {
                        Ok(pos) => Some(Arc::make_mut(&mut entries[pos].1)),
                        Err(_) => None,
                    };
                }
            }
        }
    }

    /// True iff `key` is present.
    #[must_use]
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Remove a key, returning its value if present (a clone of it if a
    /// snapshot still shares it).
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let removed = Self::remove_rec(Arc::make_mut(&mut self.root), key);
        if removed.is_some() {
            self.len -= 1;
        }
        // Shrink the root if it became a pass-through internal node.
        if let Node::Internal { children, .. } = self.root.as_ref() {
            if children.len() == 1 {
                self.root = Arc::clone(&children[0]);
            }
        }
        removed.map(unshare)
    }

    fn remove_rec(node: &mut Node<K, V>, key: &K) -> Option<Arc<V>> {
        match node {
            Node::Leaf { entries } => match entries.binary_search_by(|(k, _)| k.cmp(key)) {
                Ok(pos) => Some(entries.remove(pos).1),
                Err(_) => None,
            },
            Node::Internal { keys, children } => {
                let idx = keys.partition_point(|k| k <= key);
                let removed = Self::remove_rec(Arc::make_mut(&mut children[idx]), key)?;
                if children[idx].len_for_fill() < MIN_FILL {
                    Self::rebalance_child(keys, children, idx);
                }
                Some(removed)
            }
        }
    }

    /// Restore the fill invariant of `children[idx]` by borrowing from a
    /// sibling or merging with one.
    fn rebalance_child(keys: &mut Vec<K>, children: &mut Vec<Arc<Node<K, V>>>, idx: usize) {
        // Try borrowing from the left sibling.
        if idx > 0 && children[idx - 1].len_for_fill() > MIN_FILL {
            let (left_slice, right_slice) = children.split_at_mut(idx);
            let left = Arc::make_mut(&mut left_slice[idx - 1]);
            let cur = Arc::make_mut(&mut right_slice[0]);
            match (left, cur) {
                (Node::Leaf { entries: le }, Node::Leaf { entries: ce }) => {
                    let moved = le.pop().expect("left leaf has > MIN_FILL entries");
                    keys[idx - 1] = moved.0.clone();
                    ce.insert(0, moved);
                }
                (
                    Node::Internal {
                        keys: lk,
                        children: lc,
                    },
                    Node::Internal {
                        keys: ck,
                        children: cc,
                    },
                ) => {
                    let moved_child = lc.pop().expect("left internal has children");
                    let moved_key = lk.pop().expect("left internal has keys");
                    let sep = std::mem::replace(&mut keys[idx - 1], moved_key);
                    ck.insert(0, sep);
                    cc.insert(0, moved_child);
                }
                _ => unreachable!("siblings are at the same level"),
            }
            return;
        }
        // Try borrowing from the right sibling.
        if idx + 1 < children.len() && children[idx + 1].len_for_fill() > MIN_FILL {
            let (left_slice, right_slice) = children.split_at_mut(idx + 1);
            let cur = Arc::make_mut(&mut left_slice[idx]);
            let right = Arc::make_mut(&mut right_slice[0]);
            match (cur, right) {
                (Node::Leaf { entries: ce }, Node::Leaf { entries: re }) => {
                    let moved = re.remove(0);
                    ce.push(moved);
                    keys[idx] = re[0].0.clone();
                }
                (
                    Node::Internal {
                        keys: ck,
                        children: cc,
                    },
                    Node::Internal {
                        keys: rk,
                        children: rc,
                    },
                ) => {
                    let moved_child = rc.remove(0);
                    let moved_key = rk.remove(0);
                    let sep = std::mem::replace(&mut keys[idx], moved_key);
                    ck.push(sep);
                    cc.push(moved_child);
                }
                _ => unreachable!("siblings are at the same level"),
            }
            return;
        }
        // Merge with a sibling (prefer left).
        let merge_left = idx > 0;
        let (l, r) = if merge_left {
            (idx - 1, idx)
        } else {
            (idx, idx + 1)
        };
        if r >= children.len() {
            // Root with a single child after shrink: nothing to merge with;
            // the caller collapses pass-through roots.
            return;
        }
        let right_node = unshare(children.remove(r));
        let sep = keys.remove(l);
        match (Arc::make_mut(&mut children[l]), right_node) {
            (Node::Leaf { entries: le }, Node::Leaf { entries: re }) => {
                le.extend(re);
            }
            (
                Node::Internal {
                    keys: lk,
                    children: lc,
                },
                Node::Internal {
                    keys: rk,
                    children: rc,
                },
            ) => {
                lk.push(sep);
                lk.extend(rk);
                lc.extend(rc);
            }
            _ => unreachable!("siblings are at the same level"),
        }
    }

    /// In-order iteration over `(key, value)` references.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter {
            stack: vec![Frame {
                node: &self.root,
                idx: 0,
            }],
        }
    }

    /// Iterate entries with keys in `[low, high)`.
    pub fn range<'a>(&'a self, low: &'a K, high: &'a K) -> impl Iterator<Item = (&'a K, &'a V)> {
        // Simplicity over speed: range scans are rare in the schemes (only
        // diagnostics use them); full in-order traversal with a filter is
        // acceptable and keeps deletion logic simple.
        self.iter().filter(move |(k, _)| *k >= low && *k < high)
    }

    /// Total number of tree nodes (diagnostic).
    #[must_use]
    pub fn node_count(&self) -> usize {
        fn count<K, V>(n: &Node<K, V>) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Internal { children, .. } => {
                    1 + children.iter().map(|c| count(c.as_ref())).sum::<usize>()
                }
            }
        }
        count(&self.root)
    }
}

impl<K: Ord + Clone + Debug, V: Clone> BpTree<K, V> {
    /// Verify structural invariants (fill factors, key ordering, uniform
    /// depth). Test/debug aid; panics with a description on violation.
    pub fn check_invariants(&self) {
        fn walk<K: Ord + Clone + Debug, V>(
            node: &Node<K, V>,
            lower: Option<&K>,
            upper: Option<&K>,
            is_root: bool,
        ) -> usize {
            match node {
                Node::Leaf { entries } => {
                    if !is_root {
                        assert!(
                            entries.len() >= MIN_FILL,
                            "leaf underfilled: {} < {MIN_FILL}",
                            entries.len()
                        );
                    }
                    assert!(entries.len() <= ORDER, "leaf overfilled");
                    for w in entries.windows(2) {
                        assert!(w[0].0 < w[1].0, "leaf keys out of order");
                    }
                    if let (Some(lo), Some(first)) = (lower, entries.first()) {
                        assert!(&first.0 >= lo, "leaf key below lower bound");
                    }
                    if let (Some(hi), Some(last)) = (upper, entries.last()) {
                        assert!(&last.0 < hi, "leaf key above upper bound");
                    }
                    1
                }
                Node::Internal { keys, children } => {
                    assert_eq!(keys.len() + 1, children.len(), "key/child arity");
                    if !is_root {
                        assert!(children.len() >= MIN_FILL, "internal underfilled");
                    }
                    assert!(children.len() <= ORDER, "internal overfilled");
                    for w in keys.windows(2) {
                        assert!(w[0] < w[1], "internal keys out of order");
                    }
                    let mut depth = None;
                    for (i, child) in children.iter().enumerate() {
                        let lo = if i == 0 { lower } else { Some(&keys[i - 1]) };
                        let hi = if i == keys.len() {
                            upper
                        } else {
                            Some(&keys[i])
                        };
                        let d = walk(child.as_ref(), lo, hi, false);
                        if let Some(prev) = depth {
                            assert_eq!(prev, d, "unequal subtree depths");
                        }
                        depth = Some(d);
                    }
                    depth.expect("internal node has children") + 1
                }
            }
        }
        walk(&self.root, None, None, true);
    }
}

struct Frame<'a, K, V> {
    node: &'a Node<K, V>,
    idx: usize,
}

/// In-order iterator over a [`BpTree`].
pub struct Iter<'a, K, V> {
    stack: Vec<Frame<'a, K, V>>,
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let frame = self.stack.last_mut()?;
            match frame.node {
                Node::Leaf { entries } => {
                    if frame.idx < entries.len() {
                        let (k, v) = &entries[frame.idx];
                        frame.idx += 1;
                        return Some((k, v.as_ref()));
                    }
                    self.stack.pop();
                }
                Node::Internal { children, .. } => {
                    if frame.idx < children.len() {
                        let child = children[frame.idx].as_ref();
                        frame.idx += 1;
                        self.stack.push(Frame {
                            node: child,
                            idx: 0,
                        });
                    } else {
                        self.stack.pop();
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn empty_tree_basics() {
        let t: BpTree<u64, String> = BpTree::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.height(), 1);
        assert_eq!(t.get(&1), None);
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn insert_get_replace() {
        let mut t = BpTree::new();
        assert_eq!(t.insert(1u64, "a"), None);
        assert_eq!(t.insert(2, "b"), None);
        assert_eq!(t.insert(1, "c"), Some("a"));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(&1), Some(&"c"));
        assert_eq!(t.get(&3), None);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut t = BpTree::new();
        t.insert(7u64, vec![1]);
        t.get_mut(&7).unwrap().push(2);
        assert_eq!(t.get(&7), Some(&vec![1, 2]));
        assert!(t.get_mut(&8).is_none());
    }

    #[test]
    fn many_inserts_stay_sorted_and_balanced() {
        let mut t = BpTree::new();
        let n = 10_000u64;
        // Insert in a scrambled order.
        for i in 0..n {
            let k = (i * 2_654_435_761) % n;
            t.insert(k, k * 10);
        }
        assert_eq!(t.len() as u64, n);
        t.check_invariants();
        let keys: Vec<u64> = t.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (0..n).collect::<Vec<_>>());
        // Height must be logarithmic: log_8(10^4) < 6.
        assert!(t.height() <= 6, "height {} too tall", t.height());
        for probe in [0u64, 1, 4_999, 9_999] {
            assert_eq!(t.get(&probe), Some(&(probe * 10)));
        }
    }

    #[test]
    fn height_grows_logarithmically() {
        let mut prev_height = 0;
        for exp in [6u32, 8, 10, 12, 14] {
            let n = 1u64 << exp;
            let mut t = BpTree::new();
            for i in 0..n {
                t.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i);
            }
            let h = t.height();
            assert!(h >= prev_height, "height should be monotone in n");
            // ORDER/2=8 minimum fill: height <= log_8(n) + 2.
            let bound = (n as f64).log(MIN_FILL as f64).ceil() as usize + 2;
            assert!(h <= bound, "n={n}: height {h} > bound {bound}");
            prev_height = h;
        }
    }

    #[test]
    fn search_stats_report_visits() {
        let mut t = BpTree::new();
        for i in 0..5000u64 {
            t.insert(i, ());
        }
        let (found, stats) = t.get_with_stats(&1234);
        assert!(found.is_some());
        assert_eq!(stats.nodes_visited, t.height());
        assert!(stats.comparisons > 0);
    }

    #[test]
    fn remove_from_small_tree() {
        let mut t = BpTree::new();
        for i in 0..10u64 {
            t.insert(i, i);
        }
        assert_eq!(t.remove(&5), Some(5));
        assert_eq!(t.remove(&5), None);
        assert_eq!(t.len(), 9);
        assert_eq!(t.get(&5), None);
        t.check_invariants();
    }

    #[test]
    fn remove_everything_in_insertion_order() {
        let mut t = BpTree::new();
        let n = 3000u64;
        for i in 0..n {
            t.insert(i, i);
        }
        for i in 0..n {
            assert_eq!(t.remove(&i), Some(i), "removing {i}");
            if i % 271 == 0 {
                t.check_invariants();
            }
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn remove_everything_in_reverse_order() {
        let mut t = BpTree::new();
        let n = 3000u64;
        for i in 0..n {
            t.insert(i, i);
        }
        for i in (0..n).rev() {
            assert_eq!(t.remove(&i), Some(i));
            if i % 271 == 0 {
                t.check_invariants();
            }
        }
        assert!(t.is_empty());
    }

    #[test]
    fn range_query_filters_correctly() {
        let mut t = BpTree::new();
        for i in 0..100u64 {
            t.insert(i, i);
        }
        let r: Vec<u64> = t.range(&10, &20).map(|(k, _)| *k).collect();
        assert_eq!(r, (10..20).collect::<Vec<_>>());
    }

    #[test]
    fn works_with_byte_array_keys() {
        // The production key type: 32-byte PRF tags.
        let mut t: BpTree<[u8; 32], u64> = BpTree::new();
        for i in 0..500u64 {
            let mut k = [0u8; 32];
            k[..8].copy_from_slice(&i.to_be_bytes());
            k[8] = (i % 7) as u8;
            t.insert(k, i);
        }
        assert_eq!(t.len(), 500);
        let mut probe = [0u8; 32];
        probe[..8].copy_from_slice(&123u64.to_be_bytes());
        probe[8] = (123 % 7) as u8;
        assert_eq!(t.get(&probe), Some(&123));
        t.check_invariants();
    }

    #[test]
    fn clone_is_a_stable_snapshot_under_mutation() {
        let mut t = BpTree::new();
        let n = 2_000u64;
        for i in 0..n {
            t.insert(i, i * 3);
        }
        let snapshot = t.clone();
        // Mutate the original every way the API allows.
        for i in 0..n {
            if i % 3 == 0 {
                t.remove(&i);
            } else if i % 3 == 1 {
                t.insert(i, i * 7);
            } else {
                *t.get_mut(&i).unwrap() += 1;
            }
        }
        t.insert(n + 1, 0);
        t.check_invariants();
        // The snapshot still reads exactly as frozen.
        assert_eq!(snapshot.len() as u64, n);
        snapshot.check_invariants();
        for i in 0..n {
            assert_eq!(snapshot.get(&i), Some(&(i * 3)), "snapshot drifted at {i}");
        }
        let keys: Vec<u64> = snapshot.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn snapshot_of_mutated_clone_leaves_original_intact() {
        // Mutate the *clone* instead: the original must be untouched, and
        // the clone must see its own writes (no accidental sharing).
        let mut original = BpTree::new();
        for i in 0..512u64 {
            original.insert(i, i);
        }
        let mut clone = original.clone();
        for i in 0..512u64 {
            if i % 2 == 0 {
                clone.remove(&i);
            }
        }
        assert_eq!(clone.len(), 256);
        clone.check_invariants();
        assert_eq!(original.len(), 512);
        for i in 0..512u64 {
            assert_eq!(original.get(&i), Some(&i));
            let expect = if i % 2 == 0 { None } else { Some(&i) };
            assert_eq!(clone.get(&i), expect);
        }
    }

    #[test]
    fn clone_shares_structure_until_mutated() {
        // A clone must not deep-copy: its node count is reachable through
        // shared Arcs, and a single-key mutation unshares only one
        // root-to-leaf path (O(height) new nodes, not O(n)).
        let mut t = BpTree::new();
        for i in 0..4_096u64 {
            t.insert(i, [0u8; 64]);
        }
        let before = t.node_count();
        let snapshot = t.clone();
        *t.get_mut(&77).unwrap() = [1u8; 64];
        assert_eq!(t.node_count(), before);
        assert_eq!(snapshot.get(&77), Some(&[0u8; 64]));
        assert_eq!(t.get(&77), Some(&[1u8; 64]));
    }

    /// A value that counts its own `clone()` calls in a shared counter.
    struct Counted {
        n: u64,
        clones: Arc<AtomicUsize>,
    }

    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.clones.fetch_add(1, Ordering::Relaxed);
            Counted {
                n: self.n,
                clones: Arc::clone(&self.clones),
            }
        }
    }

    /// Run `op`, returning its result and the `Counted` clones it made.
    fn copies<R>(clones: &AtomicUsize, op: impl FnOnce() -> R) -> (R, usize) {
        let before = clones.load(Ordering::Relaxed);
        let result = op();
        (result, clones.load(Ordering::Relaxed) - before)
    }

    #[test]
    fn values_are_copied_one_at_a_time() {
        // A publish (a clone) copies no value, and the mutation after it
        // copies the one value it hands out or returns — not the leaf's
        // 8-16 neighbours that a by-value leaf would deep-copy with it.
        let clones = Arc::new(AtomicUsize::new(0));
        let value = |n| Counted {
            n,
            clones: Arc::clone(&clones),
        };
        let mut t = BpTree::new();
        for i in 0..4_096u64 {
            t.insert(i, value(i));
        }
        let (snapshot, n) = copies(&clones, || t.clone());
        assert_eq!(n, 0, "clone");

        let bump = |t: &mut BpTree<u64, Counted>| t.get_mut(&77).unwrap().n += 10_000;
        assert_eq!(copies(&clones, || bump(&mut t)).1, 1, "get_mut, shared");
        assert_eq!(copies(&clones, || bump(&mut t)).1, 0, "get_mut, unshared");
        let (old, n) = copies(&clones, || t.insert(5_000, value(5_000)));
        assert_eq!((old.is_none(), n), (true, 0), "insert of a new key");
        let (removed, n) = copies(&clones, || t.remove(&200));
        assert_eq!((removed.map(|v| v.n), n), (Some(200), 1), "remove, shared");
        let (removed, n) = copies(&clones, || t.remove(&5_000));
        assert_eq!((removed.map(|v| v.n), n), (Some(5_000), 0), "unshared");
        t.check_invariants();
        assert_eq!(t.get(&77).map(|v| v.n), Some(20_077));

        // The snapshot still reads exactly as frozen.
        assert_eq!(snapshot.len(), 4_096);
        snapshot.check_invariants();
        for (i, (k, v)) in snapshot.iter().enumerate() {
            assert_eq!((*k, v.n), (i as u64, i as u64), "snapshot drifted");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Against the std BTreeMap oracle: arbitrary interleavings of
        /// insert/remove/get produce identical observable behaviour.
        #[test]
        fn behaves_like_btreemap(ops in prop::collection::vec(
            (0u8..3, 0u16..512, 0u32..1000), 1..400)) {
            let mut ours: BpTree<u16, u32> = BpTree::new();
            let mut oracle: BTreeMap<u16, u32> = BTreeMap::new();
            for (op, k, v) in ops {
                match op {
                    0 => prop_assert_eq!(ours.insert(k, v), oracle.insert(k, v)),
                    1 => prop_assert_eq!(ours.remove(&k), oracle.remove(&k)),
                    _ => prop_assert_eq!(ours.get(&k), oracle.get(&k)),
                }
                prop_assert_eq!(ours.len(), oracle.len());
            }
            ours.check_invariants();
            let got: Vec<(u16, u32)> = ours.iter().map(|(k, v)| (*k, *v)).collect();
            let want: Vec<(u16, u32)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(got, want);
        }

        /// Interleave mutations with snapshot clones: every snapshot keeps
        /// answering as of its clone point while the live tree moves on.
        #[test]
        fn snapshots_are_immutable_under_interleaved_ops(ops in prop::collection::vec(
            (0u8..6, 0u16..256, 0u32..1000), 1..200)) {
            let mut live: BpTree<u16, u32> = BpTree::new();
            let mut oracle: BTreeMap<u16, u32> = BTreeMap::new();
            let mut snaps: Vec<(BpTree<u16, u32>, BTreeMap<u16, u32>)> = Vec::new();
            for (op, k, v) in ops {
                match op {
                    0 => { live.insert(k, v); oracle.insert(k, v); }
                    1 => { live.remove(&k); oracle.remove(&k); }
                    2 => prop_assert_eq!(live.get(&k), oracle.get(&k)),
                    3 => match (live.get_mut(&k), oracle.get_mut(&k)) {
                        (Some(ours), Some(theirs)) => { *ours += v; *theirs += v; }
                        (ours, theirs) => prop_assert_eq!(ours, theirs),
                    },
                    4 => prop_assert_eq!(live.remove(&k), oracle.remove(&k)),
                    _ => if snaps.len() < 8 {
                        snaps.push((live.clone(), oracle.clone()));
                    },
                }
            }
            for (snap, frozen) in &snaps {
                prop_assert_eq!(snap.len(), frozen.len());
                let got: Vec<(u16, u32)> = snap.iter().map(|(k, v)| (*k, *v)).collect();
                let want: Vec<(u16, u32)> = frozen.iter().map(|(k, v)| (*k, *v)).collect();
                prop_assert_eq!(got, want);
            }
        }

        /// Height stays logarithmic for random key sets.
        #[test]
        fn height_is_logarithmic(keys in prop::collection::hash_set(any::<u64>(), 100..2000)) {
            let mut t = BpTree::new();
            for &k in &keys {
                t.insert(k, ());
            }
            let n = keys.len() as f64;
            let bound = n.log(MIN_FILL as f64).ceil() as usize + 2;
            prop_assert!(t.height() <= bound,
                "height {} exceeds bound {} for n={}", t.height(), bound, keys.len());
        }
    }
}
