//! Sharded, bounded, content-addressed result cache.
//!
//! Maps a [`Fingerprint`] to a cached
//! evaluation result. The key space is split across independent
//! `RwLock`-guarded shards so concurrent workers rarely contend; reads take
//! the shard's read lock (recency stamps are atomics, so hits never upgrade
//! to a write lock). Each shard is bounded and evicts its least-recently-used
//! entry on overflow. Hit/miss/insert/evict counters feed the `/stats`
//! protocol endpoint.
//!
//! [`ResultCache::get_or_build`] is the one lookup-or-build path: a miss
//! is built once however many threads ask for the key at the same time
//! (single-flight), and builds of different keys run concurrently.

use crate::fingerprint::Fingerprint;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError, RwLock};

const SHARDS: usize = 16;

struct Entry<V> {
    value: V,
    /// Last-touch tick from the cache-wide clock; highest = most recent.
    stamp: AtomicU64,
}

/// Aggregate cache counters, as reported by `/stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Values stored.
    pub insertions: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum resident entries.
    pub capacity: usize,
}

impl CacheStats {
    /// Hits over total lookups, 0.0 when nothing was looked up yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A builder's claim on its key. Dropping it — when the build returns or
/// unwinds from a panic — releases the key and wakes the waiting threads,
/// so no one waits on a build that will never finish.
struct BuildClaim<'a, V> {
    cache: &'a ResultCache<V>,
    key: u128,
}

impl<V> Drop for BuildClaim<'_, V> {
    fn drop(&mut self) {
        self.cache
            .building
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&self.key);
        self.cache.built.notify_all();
    }
}

/// A sharded LRU-ish memoization cache keyed by fingerprint.
pub struct ResultCache<V> {
    shards: Vec<RwLock<HashMap<u128, Entry<V>>>>,
    /// Keys being built, and the wake-up for the threads waiting on one.
    building: Mutex<HashSet<u128>>,
    built: Condvar,
    per_shard_capacity: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl<V: Clone> ResultCache<V> {
    /// A cache holding at most `capacity` entries (rounded up to a multiple
    /// of the shard count; a zero capacity disables storage but still
    /// counts lookups).
    pub fn new(capacity: usize) -> Self {
        let per_shard_capacity = capacity.div_ceil(SHARDS);
        ResultCache {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            building: Mutex::new(HashSet::new()),
            built: Condvar::new(),
            per_shard_capacity,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, fp: Fingerprint) -> &RwLock<HashMap<u128, Entry<V>>> {
        // Low bits of an FNV hash mix well; SHARDS is a power of two.
        &self.shards[(fp.0 as usize) & (SHARDS - 1)]
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Looks up a fingerprint, refreshing its recency on a hit.
    pub fn get(&self, fp: Fingerprint) -> Option<V> {
        let value = self.peek(fp);
        let counter = if value.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        value
    }

    /// [`get`](Self::get) without counting the lookup.
    fn peek(&self, fp: Fingerprint) -> Option<V> {
        let shard = self
            .shard(fp)
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        shard.get(&fp.0).map(|entry| {
            entry.stamp.store(self.tick(), Ordering::Relaxed);
            entry.value.clone()
        })
    }

    /// Stores a value, evicting the shard's least-recently-used entry when
    /// the shard is full.
    pub fn insert(&self, fp: Fingerprint, value: V) {
        if self.per_shard_capacity == 0 {
            return;
        }
        let mut shard = self
            .shard(fp)
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if shard.len() >= self.per_shard_capacity && !shard.contains_key(&fp.0) {
            if let Some(oldest) = shard
                .iter()
                .min_by_key(|(_, e)| e.stamp.load(Ordering::Relaxed))
                .map(|(k, _)| *k)
            {
                shard.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.insert(
            fp.0,
            Entry {
                value,
                stamp: AtomicU64::new(self.tick()),
            },
        );
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// The value under `fp`, built on a miss. A resident entry that
    /// `fits` rejects counts as a miss and is replaced by the build.
    /// Returns the value and whether it came from the cache.
    ///
    /// Single-flight: when several threads miss on one key, the first
    /// builds and stores the value while the rest wait, then read it from
    /// the cache. A build that fails (or panics) stores nothing and wakes
    /// its waiters, and the next of them builds again, so each caller sees
    /// a build's error rather than a stale wait. A hit takes only its
    /// shard's read lock.
    pub fn get_or_build<E>(
        &self,
        fp: Fingerprint,
        fits: impl Fn(&V) -> bool,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        loop {
            if let Some(value) = self.get(fp).filter(&fits) {
                return Ok((value, true));
            }
            let mut building = self.building.lock().unwrap_or_else(PoisonError::into_inner);
            if !building.contains(&fp.0) {
                // A build that ended since the lookup above stored its
                // value before it released the key.
                if let Some(value) = self.peek(fp).filter(&fits) {
                    return Ok((value, true));
                }
                building.insert(fp.0);
                drop(building);
                let _claim = BuildClaim {
                    cache: self,
                    key: fp.0,
                };
                let value = build()?;
                self.insert(fp, value.clone());
                return Ok((value, false));
            }
            while building.contains(&fp.0) {
                building = self
                    .built
                    .wait(building)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// A point-in-time copy of every resident entry, ordered by key so
    /// compaction and export produce deterministic files. Shards are locked
    /// one at a time, so concurrent inserts may or may not appear.
    pub fn snapshot(&self) -> Vec<(u128, V)> {
        let mut out: Vec<(u128, V)> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            let shard = shard.read().unwrap_or_else(PoisonError::into_inner);
            out.extend(shard.iter().map(|(k, e)| (*k, e.value.clone())));
        }
        out.sort_unstable_by_key(|(k, _)| *k);
        out
    }

    /// Entries currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// True when no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
            capacity: self.per_shard_capacity * SHARDS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc, Barrier};
    use std::time::Duration;

    fn fp(n: u128) -> Fingerprint {
        Fingerprint(n)
    }

    impl<V> ResultCache<V> {
        /// Builds in progress.
        pub(crate) fn building(&self) -> usize {
            self.building.lock().unwrap().len()
        }
    }

    #[test]
    fn hit_miss_counters() {
        let cache: ResultCache<u64> = ResultCache::new(64);
        assert_eq!(cache.get(fp(1)), None);
        cache.insert(fp(1), 10);
        assert_eq!(cache.get(fp(1)), Some(10));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    /// A build that cannot fail.
    fn ok<V>(value: V) -> Result<V, std::convert::Infallible> {
        Ok(value)
    }

    #[test]
    fn get_or_build_memoizes() {
        let cache: ResultCache<u64> = ResultCache::new(64);
        let mut calls = 0;
        let got = cache.get_or_build(
            fp(7),
            |_| true,
            || {
                calls += 1;
                ok(42)
            },
        );
        assert_eq!((got, calls), (Ok((42, false)), 1));
        let got = cache.get_or_build(
            fp(7),
            |_| true,
            || {
                calls += 1;
                ok(42)
            },
        );
        assert_eq!((got, calls), (Ok((42, true)), 1));
        // An entry `fits` rejects is rebuilt and replaced.
        let got = cache.get_or_build(fp(7), |v| *v != 42, || ok(43));
        assert_eq!(got, Ok((43, false)));
        assert_eq!(cache.get(fp(7)), Some(43));
    }

    /// How long a test waits for a build before calling it stuck.
    const STUCK: Duration = Duration::from_secs(10);

    /// Runs `get_or_build` on a thread of its own, so that a test can wait
    /// for its answer with a timeout instead of hanging on a stuck build.
    fn spawn_get_or_build(
        cache: &Arc<ResultCache<u64>>,
        key: u128,
        build: impl FnOnce() -> Result<u64, &'static str> + Send + 'static,
    ) -> mpsc::Receiver<Result<(u64, bool), &'static str>> {
        let (tx, rx) = mpsc::channel();
        let cache = Arc::clone(cache);
        std::thread::spawn(move || {
            let _ = tx.send(cache.get_or_build(fp(key), |_| true, build));
        });
        rx
    }

    #[test]
    fn concurrent_misses_on_one_key_build_once() {
        let cache: Arc<ResultCache<u64>> = Arc::new(ResultCache::new(64));
        let builds = Arc::new(AtomicU64::new(0));
        let answers: Vec<_> = (0..8)
            .map(|_| {
                let (watch, builds) = (Arc::clone(&cache), Arc::clone(&builds));
                spawn_get_or_build(&cache, 3, move || {
                    // Every caller has missed before the build ends.
                    while watch.stats().misses < 8 {
                        std::thread::yield_now();
                    }
                    builds.fetch_add(1, Ordering::Relaxed);
                    Ok(9)
                })
            })
            .collect();
        let results: Vec<_> = answers
            .iter()
            .map(|rx| rx.recv_timeout(STUCK).expect("a caller is stuck"))
            .collect();
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        assert_eq!(cache.stats().insertions, 1);
        assert_eq!(results.iter().filter(|r| **r == Ok((9, false))).count(), 1);
        assert_eq!(results.iter().filter(|r| **r == Ok((9, true))).count(), 7);
    }

    #[test]
    fn builds_of_different_keys_run_at_the_same_time() {
        let cache: Arc<ResultCache<u64>> = Arc::new(ResultCache::new(64));
        // Each build waits for the other to start: a store that ran one
        // build at a time would never let either finish.
        let both = Arc::new(Barrier::new(2));
        let answers: Vec<_> = [1u128, 2]
            .into_iter()
            .map(|key| {
                let both = Arc::clone(&both);
                spawn_get_or_build(&cache, key, move || {
                    both.wait();
                    Ok(key as u64)
                })
            })
            .collect();
        for (key, rx) in [1u64, 2].into_iter().zip(answers) {
            let got = rx
                .recv_timeout(STUCK)
                .expect("builds on two keys serialized");
            assert_eq!(got, Ok((key, false)));
        }
    }

    #[test]
    fn a_failed_build_stores_nothing_and_releases_its_waiters() {
        let cache: Arc<ResultCache<u64>> = Arc::new(ResultCache::new(64));
        let (started_tx, started) = mpsc::channel();
        let (fail_tx, fail) = mpsc::channel::<()>();
        let leader = spawn_get_or_build(&cache, 5, move || {
            started_tx.send(()).unwrap();
            fail.recv().unwrap();
            Err("no legal mapping")
        });
        started.recv().unwrap();
        let follower = spawn_get_or_build(&cache, 5, || Ok(11));
        // Once the follower's lookup has missed, it waits on the leader's
        // build, which cannot finish before `fail_tx` sends.
        while cache.stats().misses < 2 {
            std::thread::yield_now();
        }
        fail_tx.send(()).unwrap();
        assert_eq!(leader.recv_timeout(STUCK), Ok(Err("no legal mapping")));
        // Woken by the failure, the follower found nothing stored and
        // built the value itself.
        assert_eq!(follower.recv_timeout(STUCK), Ok(Ok((11, false))));
        assert_eq!(cache.stats().insertions, 1);
        assert_eq!(cache.building(), 0);
    }

    #[test]
    fn eviction_is_lru_within_shard() {
        // Keys 0, 16, 32, … land in shard 0 (low 4 bits select the shard).
        let cache: ResultCache<u64> = ResultCache::new(2 * 16);
        cache.insert(fp(0), 0);
        cache.insert(fp(16), 1);
        // Touch key 0 so key 16 becomes the oldest.
        assert_eq!(cache.get(fp(0)), Some(0));
        cache.insert(fp(32), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.get(fp(0)), Some(0), "recently used entry survives");
        assert_eq!(cache.get(fp(16)), None, "LRU entry was evicted");
        assert_eq!(cache.get(fp(32)), Some(2));
    }

    #[test]
    fn capacity_is_bounded() {
        let cache: ResultCache<u64> = ResultCache::new(32);
        for i in 0..1000u128 {
            cache.insert(fp(i), i as u64);
        }
        assert!(cache.len() <= 32);
        assert!(cache.stats().evictions >= 1000 - 32);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let cache: ResultCache<u64> = ResultCache::new(0);
        cache.insert(fp(1), 1);
        assert_eq!(cache.get(fp(1)), None);
        assert!(cache.is_empty());
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache: Arc<ResultCache<u64>> = Arc::new(ResultCache::new(256));
        let mut handles = Vec::new();
        for t in 0..8u128 {
            let c = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u128 {
                    let key = fp(t * 1000 + i);
                    c.insert(key, i as u64);
                    assert!(matches!(c.get(key), Some(_) | None));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.insertions, 1600);
        assert!(s.entries <= 256);
    }
}
