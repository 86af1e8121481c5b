//! A small process-wide memo of immutable tables, least recently used
//! out.
//!
//! Some inputs are costly to build, do not depend on the seed, and are
//! read by every preparation with the same key: the solar geometry of a
//! (location, step), the carbon-intensity shape of a (grid model, step).
//! An [`LruMemo`] keeps a handful of such tables behind one lock, as a
//! short list with the most recently used entry last:
//!
//! * **Lookup** scans the list for an equal key; there is no hashing, so
//!   nothing depends on a map's iteration order. A hit moves its entry to
//!   the end.
//! * **A miss builds under the lock**, so concurrent misses on one key
//!   build the table once. When the list is full, the front entry (the
//!   least recently used) goes.
//! * **Tables are [`Arc`]s.** An evicted table stays alive for whoever
//!   still holds it.
//!
//! A `build` that panics leaves the list as it was, so a poisoned lock
//! still guards a consistent list and later lookups go on using it.

use std::sync::{Arc, Mutex, PoisonError};

/// A bounded memo of `V`s keyed by `K`, least recently used out (see the
/// module docs). `new` is `const`, so a memo can be a `static`.
pub struct LruMemo<K, V> {
    capacity: usize,
    entries: Mutex<Vec<(K, Arc<V>)>>,
}

impl<K: PartialEq, V> LruMemo<K, V> {
    /// An empty memo holding at most `capacity` tables.
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    pub const fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "an LRU memo holds at least one table");
        Self {
            capacity,
            entries: Mutex::new(Vec::new()),
        }
    }

    /// The table under `key`, built by `build` on a miss.
    pub fn get_or_build(&self, key: K, build: impl FnOnce() -> V) -> Arc<V> {
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let entry = match entries.iter().position(|(k, _)| *k == key) {
            Some(at) => entries.remove(at),
            None => {
                let table = Arc::new(build());
                if entries.len() >= self.capacity {
                    entries.remove(0);
                }
                (key, table)
            }
        };
        let table = Arc::clone(&entry.1);
        entries.push(entry);
        table
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn keeps_at_most_its_capacity() {
        let memo = LruMemo::new(3);
        for k in 0..10 {
            let _ = memo.get_or_build(k, || k * 10);
            assert!(memo.len() <= 3);
        }
        assert_eq!(memo.len(), 3);
    }

    #[test]
    fn hits_share_one_table_and_misses_build() {
        let memo = LruMemo::new(2);
        let builds = AtomicUsize::new(0);
        let build = |v: u32| {
            builds.fetch_add(1, Ordering::SeqCst);
            v
        };
        let a = memo.get_or_build("a", || build(1));
        let again = memo.get_or_build("a", || build(2));
        assert!(Arc::ptr_eq(&a, &again));
        assert_eq!(*again, 1, "a hit never rebuilds");
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        let _ = memo.get_or_build("b", || build(3));
        assert_eq!(builds.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn evicts_the_least_recently_used() {
        let memo = LruMemo::new(3);
        let a = memo.get_or_build('a', || 1);
        let b = memo.get_or_build('b', || 2);
        let _ = memo.get_or_build('c', || 3);
        // Touch `a`: `b` is now the least recently used.
        let _ = memo.get_or_build('a', || 0);
        let _ = memo.get_or_build('d', || 4);
        assert!(Arc::ptr_eq(&a, &memo.get_or_build('a', || 0)), "a stays");
        let b_again = memo.get_or_build('b', || 5);
        assert!(!Arc::ptr_eq(&b, &b_again), "b was evicted and rebuilt");
        assert_eq!((*b, *b_again), (2, 5));
        // Rebuilding `b` evicted `c`, untouched since it was built.
        assert_eq!(*memo.get_or_build('c', || 6), 6);
        assert_eq!(memo.len(), 3);
    }

    #[test]
    fn concurrent_misses_on_one_key_build_once() {
        let memo = LruMemo::new(4);
        let builds = AtomicUsize::new(0);
        let tables: Vec<Arc<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        memo.get_or_build(7u8, || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            49
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        for t in &tables[1..] {
            assert!(Arc::ptr_eq(&tables[0], t));
        }
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn a_panicking_build_leaves_the_memo_usable() {
        let memo = LruMemo::new(2);
        let _ = memo.get_or_build(1, || 10);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or_build(2, || panic!("build failed"))
        }));
        assert!(outcome.is_err());
        assert_eq!(memo.len(), 1);
        assert_eq!(*memo.get_or_build(1, || 0), 10);
        assert_eq!(*memo.get_or_build(2, || 20), 20);
    }

    #[test]
    #[should_panic(expected = "at least one table")]
    fn zero_capacity_panics() {
        let _ = LruMemo::<u8, u8>::new(0);
    }
}
