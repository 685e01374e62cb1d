//! A small LRU map used by the client cache (§5.1: "the cache
//! replacement policy is LRU").

use std::borrow::Borrow;
use std::collections::BTreeMap;

/// A bounded map with least-recently-used eviction.
///
/// Reads and writes *touch* the entry; inserting into a full map evicts
/// the least recently touched one. `O(log n)` per operation.
///
/// # Example
/// ```
/// use bpush_client::lru::LruMap;
/// let mut m = LruMap::new(2);
/// m.insert("a", 1);
/// m.insert("b", 2);
/// m.get(&"a"); // touch a
/// let evicted = m.insert("c", 3);
/// assert_eq!(evicted, Some(("b", 2)), "b was least recently used");
/// assert!(m.contains(&"a") && m.contains(&"c"));
/// ```
#[derive(Debug, Clone)]
pub struct LruMap<K, V> {
    capacity: usize,
    tick: u64,
    entries: BTreeMap<K, (u64, V)>,
    by_tick: BTreeMap<u64, K>,
}

impl<K: Ord + Clone, V> LruMap<K, V> {
    /// Creates a map holding at most `capacity` entries. A capacity of
    /// zero makes every insert evict the inserted entry immediately
    /// (i.e. the map stays empty), which models a disabled cache.
    pub fn new(capacity: usize) -> Self {
        LruMap {
            capacity,
            tick: 0,
            entries: BTreeMap::new(),
            by_tick: BTreeMap::new(),
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Looks up and touches an entry.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let tick = self.next_tick();
        let (k, (old_tick, _)) = self.entries.get_key_value(key)?;
        let k = k.clone();
        let old = *old_tick;
        self.by_tick.remove(&old);
        self.by_tick.insert(tick, k.clone());
        #[expect(clippy::expect_used, reason = "the caller just found the key")]
        let entry = self.entries.get_mut(key).expect("just found");
        entry.0 = tick;
        Some(&entry.1)
    }

    /// Looks up and touches an entry, mutably.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.get(key)?;
        self.entries.get_mut(key).map(|(_, v)| v)
    }

    /// Looks up without touching (no recency update).
    pub fn peek<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.entries.get(key).map(|(_, v)| v)
    }

    /// Looks up mutably without touching.
    pub fn peek_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.entries.get_mut(key).map(|(_, v)| v)
    }

    /// Whether `key` is present (does not touch).
    pub fn contains<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.entries.contains_key(key)
    }

    /// Inserts (or replaces) an entry, touching it, and returns the
    /// evicted least-recently-used entry if the map overflowed (or the
    /// inserted pair itself at capacity zero).
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if self.capacity == 0 {
            return Some((key, value));
        }
        let tick = self.next_tick();
        if let Some((old_tick, _)) = self.entries.get(&key) {
            self.by_tick.remove(old_tick);
        }
        self.by_tick.insert(tick, key.clone());
        self.entries.insert(key, (tick, value));
        if self.entries.len() > self.capacity {
            #[expect(
                clippy::expect_used,
                reason = "guarded by the overflow check above; entries and by_tick \
                          are kept in lockstep by every mutation"
            )]
            let (victim, v) = {
                let (_, victim) = self.by_tick.pop_first().expect("overflow implies nonempty");
                let (_, v) = self.entries.remove(&victim).expect("indexed");
                (victim, v)
            };
            return Some((victim, v));
        }
        None
    }

    /// Removes an entry.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let (tick, v) = self.entries.remove(key)?;
        self.by_tick.remove(&tick);
        Some(v)
    }

    /// Drops all entries.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.by_tick.clear();
    }

    /// Iterates over `(key, value)` in unspecified order, without
    /// touching.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, (_, v))| (k, v))
    }

    /// Iterates mutably over values in unspecified order, without
    /// touching.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.values_mut().map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut m = LruMap::new(3);
        assert_eq!(m.capacity(), 3);
        m.insert(1, "a");
        m.insert(2, "b");
        m.insert(3, "c");
        m.get(&1);
        m.get(&2);
        let evicted = m.insert(4, "d");
        assert_eq!(evicted, Some((3, "c")));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn reinsert_replaces_without_eviction() {
        let mut m = LruMap::new(2);
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.insert(1, "a2"), None);
        assert_eq!(m.len(), 2);
        assert_eq!(m.peek(&1), Some(&"a2"));
        // 2 is now the LRU entry
        assert_eq!(m.insert(3, "c"), Some((2, "b")));
    }

    #[test]
    fn peek_does_not_touch() {
        let mut m = LruMap::new(2);
        m.insert(1, "a");
        m.insert(2, "b");
        m.peek(&1); // no touch: 1 stays LRU
        assert_eq!(m.insert(3, "c"), Some((1, "a")));
    }

    #[test]
    fn get_mut_touches_and_mutates() {
        let mut m = LruMap::new(2);
        m.insert(1, 10);
        m.insert(2, 20);
        *m.get_mut(&1).unwrap() += 5;
        assert_eq!(m.peek(&1), Some(&15));
        assert_eq!(m.insert(3, 30), Some((2, 20)));
    }

    #[test]
    fn capacity_zero_holds_nothing() {
        let mut m = LruMap::new(0);
        assert_eq!(m.insert(1, "a"), Some((1, "a")));
        assert!(m.is_empty());
        assert!(!m.contains(&1));
    }

    #[test]
    fn remove_and_clear() {
        let mut m = LruMap::new(4);
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.remove(&1), Some("a"));
        assert_eq!(m.remove(&1), None);
        assert_eq!(m.len(), 1);
        m.clear();
        assert!(m.is_empty());
        // internal index cleared too: inserts work normally after
        m.insert(3, "c");
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn iter_covers_all_entries() {
        let mut m = LruMap::new(4);
        for i in 0..4 {
            m.insert(i, i * 10);
        }
        let mut items: Vec<_> = m.iter().map(|(&k, &v)| (k, v)).collect();
        items.sort();
        assert_eq!(items, vec![(0, 0), (1, 10), (2, 20), (3, 30)]);
        for v in m.values_mut() {
            *v += 1;
        }
        assert_eq!(m.peek(&2), Some(&21));
    }

    #[test]
    fn heavy_churn_respects_capacity() {
        let mut m = LruMap::new(8);
        for i in 0..1000 {
            m.insert(i % 50, i);
            assert!(m.len() <= 8);
        }
        // index and map stay in sync
        let indexed: usize = m.iter().count();
        assert_eq!(indexed, m.len());
    }
}
