//! A bounded, content-addressed response cache.
//!
//! Under real traffic identical activation payloads recur — retried
//! requests, common prompts, synthetic monitors — and an identical
//! payload for the same model is guaranteed the identical integer
//! accumulators (the whole pipeline is deterministic), so it should
//! never re-enter the AQS-GEMM pipeline. The cache is keyed by the
//! model's *instance id*
//! ([`PreparedModel::instance_id`](panacea_serve::PreparedModel::instance_id)
//! — not its registry name, which can be re-bound to a different model
//! by re-registration) plus the typed request
//! [`Payload`]: a hit requires full key
//! equality at the *bit* level ([`Payload::bit_eq`] — codes compare
//! `==`, hidden states compare by `to_bits`, so `-0.0` and `0.0` never
//! alias), never a digest match alone. A hit is therefore always a
//! correct replay — even across model replacement, because a replaced
//! model's entries key under the old id and simply age out of the LRU.
//! The digest ([`Payload::content_hash`]) only picks the bucket a
//! lookup compares against.
//!
//! **Stateless requests only.** A decode step's output depends on its
//! session's KV prefix, not just the payload, so cached replay would be
//! wrong — and even probing would skew the stats. The session path
//! (gateway `decode` verb) therefore has no reference to this cache at
//! all; the only call sites are the stateless `infer` path. See the
//! `decode_steps_never_touch_the_request_cache` regression test.
//!
//! **Bounded by bytes.** Resident entries hold at most
//! [`CacheConfig::max_bytes`] in total, counted as each entry's request
//! and result cells plus a fixed per-entry overhead, so the bound holds
//! whatever the mix of entry sizes. Eviction is strict
//! least-recently-used over the whole cache, behind one lock: the
//! digest is computed outside it, and the lock covers one bucket lookup
//! and one bit-compare.

use std::collections::{BTreeMap, HashMap};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::mem::size_of;
use std::sync::{Mutex, MutexGuard};

use panacea_serve::Payload;

/// Sizing knob for [`RequestCache`].
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Bytes the resident entries may hold in total: each entry's
    /// request and result cells (4 bytes apiece) plus a fixed per-entry
    /// overhead. 0 disables caching; an entry larger than the whole
    /// budget is never cached.
    pub max_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            max_bytes: 32 << 20,
        }
    }
}

/// A cached response: everything needed to replay an inference without
/// touching the serving runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedOutput {
    /// The typed result: code accumulators for chains, hidden states
    /// for block models.
    pub payload: Payload,
    /// Scale converting code accumulators to floats; `1.0` for hidden
    /// results.
    pub scale: f64,
}

/// Counters describing cache effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the runtime.
    pub misses: u64,
    /// Entries displaced by the LRU bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when none yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Entry {
    /// [`PreparedModel::instance_id`](panacea_serve::PreparedModel::instance_id)
    /// of the model that produced the cached output.
    model: u64,
    payload: Payload,
    value: CachedOutput,
    /// What this entry counts against [`CacheConfig::max_bytes`].
    bytes: usize,
    /// Its key in the recency index; larger is more recent.
    stamp: u64,
}

impl Entry {
    /// Bit-level key equality — the replay contract's identity.
    fn matches(&self, model: u64, payload: &Payload) -> bool {
        self.model == model && self.payload.bit_eq(payload)
    }
}

/// The fixed cost of one entry beyond its cells: the record itself and
/// its recency-index slot.
const ENTRY_OVERHEAD: usize = size_of::<Entry>() + 2 * size_of::<u64>();

/// Bytes an entry of `cells` request-plus-result elements counts
/// against [`CacheConfig::max_bytes`] (`i32` codes and `f32` hidden
/// states are both 4 bytes wide).
fn entry_bytes(cells: usize) -> usize {
    cells.saturating_mul(4).saturating_add(ENTRY_OVERHEAD)
}

/// A strict LRU under a byte budget: entries bucketed by digest, plus a
/// recency index from each entry's last-use stamp to its digest.
#[derive(Debug, Default)]
struct Lru {
    buckets: HashMap<u64, Vec<Entry>>,
    recency: BTreeMap<u64, u64>,
    next_stamp: u64,
    /// Sum of the resident entries' `bytes`.
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Lru {
    /// Finds the entry for `(model, payload)` and makes it the most
    /// recently used.
    fn touch(&mut self, digest: u64, model: u64, payload: &Payload) -> Option<&Entry> {
        let entry = self
            .buckets
            .get_mut(&digest)?
            .iter_mut()
            .find(|e| e.matches(model, payload))?;
        self.recency.remove(&entry.stamp);
        entry.stamp = self.next_stamp;
        self.recency.insert(entry.stamp, digest);
        self.next_stamp += 1;
        Some(entry)
    }

    /// Inserts (or refreshes) an entry of at most `max_bytes`, evicting
    /// the least recently used until it fits.
    fn insert(&mut self, digest: u64, mut entry: Entry, max_bytes: usize) {
        debug_assert!(entry.bytes <= max_bytes, "caller admits entries");
        // A bit-exact key already resident keeps its (necessarily
        // identical) value and only moves to the front.
        if self.touch(digest, entry.model, &entry.payload).is_some() {
            return;
        }
        while self.bytes + entry.bytes > max_bytes {
            self.evict_oldest();
        }
        entry.stamp = self.next_stamp;
        self.next_stamp += 1;
        self.bytes += entry.bytes;
        self.recency.insert(entry.stamp, digest);
        self.buckets.entry(digest).or_default().push(entry);
    }

    fn evict_oldest(&mut self) {
        let (stamp, digest) = self
            .recency
            .pop_first()
            .expect("resident bytes imply an entry");
        let bucket = self
            .buckets
            .get_mut(&digest)
            .expect("bucket of a stamped entry");
        let at = bucket
            .iter()
            .position(|e| e.stamp == stamp)
            .expect("entry of a stamp");
        self.bytes -= bucket.swap_remove(at).bytes;
        if bucket.is_empty() {
            self.buckets.remove(&digest);
        }
        self.evictions += 1;
    }
}

/// The gateway's byte-bounded LRU response cache. See the module docs.
#[derive(Debug)]
pub struct RequestCache {
    max_bytes: usize,
    lru: Mutex<Lru>,
}

impl RequestCache {
    /// Builds a cache whose resident entries hold at most
    /// `config.max_bytes`.
    pub fn new(config: CacheConfig) -> Self {
        RequestCache {
            max_bytes: config.max_bytes,
            lru: Mutex::default(),
        }
    }

    /// Whether this cache stores anything at all (a budget above zero) —
    /// callers can skip key hashing and payload clones when it does not.
    pub fn enabled(&self) -> bool {
        self.max_bytes > 0
    }

    /// Whether an entry of `cells` elements (request payload plus
    /// result payload) fits [`CacheConfig::max_bytes`]. Both counts are
    /// known before a request runs, so callers can skip the payload
    /// clone for entries [`insert`](Self::insert) would reject anyway.
    pub fn admits(&self, cells: usize) -> bool {
        entry_bytes(cells) <= self.max_bytes
    }

    fn digest(model: u64, payload: &Payload) -> u64 {
        let mut h = DefaultHasher::new();
        model.hash(&mut h);
        payload.content_hash().hash(&mut h);
        h.finish()
    }

    fn lock(&self) -> MutexGuard<'_, Lru> {
        self.lru.lock().expect("cache lock poisoned")
    }

    /// Looks up a bit-exact prior response for `(model, payload)`,
    /// refreshing its recency on a hit. `model` is the serving model's
    /// [`instance_id`](panacea_serve::PreparedModel::instance_id), so
    /// entries written for a since-replaced model can never answer.
    pub fn get(&self, model: u64, payload: &Payload) -> Option<CachedOutput> {
        let digest = Self::digest(model, payload);
        let mut lru = self.lock();
        let found = lru.touch(digest, model, payload).map(|e| e.value.clone());
        match found {
            Some(_) => lru.hits += 1,
            None => lru.misses += 1,
        }
        found
    }

    /// Stores a response for `(model, payload)`, evicting
    /// least-recently used entries until the resident bytes fit
    /// [`CacheConfig::max_bytes`]. `model` is the producing model's
    /// [`instance_id`](panacea_serve::PreparedModel::instance_id).
    /// An entry larger than the whole budget is silently skipped.
    pub fn insert(&self, model: u64, payload: Payload, value: CachedOutput) {
        let cells = payload.cells() + value.payload.cells();
        if !self.admits(cells) {
            return;
        }
        let digest = Self::digest(model, &payload);
        let entry = Entry {
            model,
            payload,
            value,
            bytes: entry_bytes(cells),
            stamp: 0,
        };
        self.lock().insert(digest, entry, self.max_bytes);
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.lock().recency.len()
    }

    /// Whether no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the resident entries count against the budget.
    #[cfg(test)]
    pub(crate) fn resident_bytes(&self) -> usize {
        self.lock().bytes
    }

    /// Current hit/miss/eviction counters plus resident entry count.
    pub fn stats(&self) -> CacheStats {
        let lru = self.lock();
        CacheStats {
            hits: lru.hits,
            misses: lru.misses,
            evictions: lru.evictions,
            entries: lru.recency.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panacea_tensor::Matrix;
    use rand::Rng;
    use std::sync::Arc;

    fn codes(salt: i32) -> Payload {
        Payload::Codes(Matrix::from_fn(4, 2, |r, c| {
            salt * 100 + (r * 2 + c) as i32
        }))
    }

    fn output(salt: i32) -> CachedOutput {
        CachedOutput {
            payload: Payload::Codes(Matrix::from_fn(2, 2, |r, c| salt * 10 + (r + c) as i32)),
            scale: 0.5,
        }
    }

    /// A budget of exactly `n` entries of [`codes`] (8 cells) plus
    /// [`output`] (4 cells).
    fn room_for(n: usize) -> CacheConfig {
        CacheConfig {
            max_bytes: n * entry_bytes(12),
        }
    }

    #[test]
    fn hit_requires_bit_exact_codes_and_model() {
        let cache = RequestCache::new(CacheConfig::default());
        cache.insert(1, codes(1), output(1));
        assert_eq!(cache.get(1, &codes(1)), Some(output(1)));
        assert_eq!(cache.get(1, &codes(2)), None);
        assert_eq!(cache.get(2, &codes(1)), None);
        let nearly = Payload::Codes(Matrix::from_fn(4, 2, |r, c| {
            100 + (r * 2 + c) as i32 + usize::from(r == 3 && c == 1) as i32
        }));
        assert_eq!(cache.get(1, &nearly), None);
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 3);
        assert!((s.hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let cache = RequestCache::new(room_for(2));
        cache.insert(1, codes(1), output(1));
        cache.insert(1, codes(2), output(2));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(1, &codes(1)).is_some());
        cache.insert(1, codes(3), output(3));
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get(1, &codes(2)).is_none(), "victim survived");
        assert!(cache.get(1, &codes(1)).is_some());
        assert!(cache.get(1, &codes(3)).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinserting_the_same_key_refreshes_instead_of_duplicating() {
        let cache = RequestCache::new(room_for(2));
        cache.insert(1, codes(1), output(1));
        cache.insert(1, codes(2), output(2));
        // Refresh 1 (no eviction, no growth), then insert a third: the
        // refreshed 1 must outlive 2.
        cache.insert(1, codes(1), output(1));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 0);
        cache.insert(1, codes(3), output(3));
        assert!(cache.get(1, &codes(1)).is_some());
        assert!(cache.get(1, &codes(2)).is_none());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = RequestCache::new(CacheConfig { max_bytes: 0 });
        cache.insert(1, codes(1), output(1));
        assert!(cache.is_empty());
        assert_eq!(cache.get(1, &codes(1)), None);
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        // A budget of one 16-cell entry across codes + accumulators.
        let cache = RequestCache::new(CacheConfig {
            max_bytes: entry_bytes(16),
        });
        // 4×2 codes + 2×2 acc = 12 cells: fits.
        cache.insert(1, codes(1), output(1));
        assert_eq!(cache.len(), 1);
        // 4×4 codes + 2×2 acc = 20 cells: larger than the whole budget,
        // so it is skipped rather than evicting everything else.
        let big = Payload::Codes(Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as i32));
        cache.insert(1, big.clone(), output(2));
        assert_eq!(cache.len(), 1, "oversized entry was cached");
        assert!(cache.get(1, &big).is_none());
    }

    #[test]
    fn byte_budget_matches_a_recency_ordered_model() {
        // Seeded mixed-size inserts and lookups against a model holding
        // the resident keys oldest first. Key `k` is a 1×w request whose
        // cells read `k`, answered by one cell; w runs from 1 cell to
        // past the whole budget (key 0).
        const MAX_BYTES: usize = 4096;
        let mut rng = panacea_tensor::seeded_rng(44);
        let mut widths = vec![MAX_BYTES / 4];
        for _ in 1..24 {
            let scale = rng.gen_range(0..=10u32);
            widths.push(rng.gen_range(1..=1usize << scale));
        }
        let request = |k: usize| Payload::Codes(Matrix::from_fn(1, widths[k], |_, _| k as i32));
        let answer = |k: usize| CachedOutput {
            payload: Payload::Codes(Matrix::from_vec(1, 1, vec![k as i32]).unwrap()),
            scale: 1.0,
        };
        let bytes = |keys: &[usize]| keys.iter().map(|&k| entry_bytes(widths[k] + 1)).sum();
        let cache = RequestCache::new(CacheConfig {
            max_bytes: MAX_BYTES,
        });
        let (mut model, mut evictions) = (Vec::new(), 0);
        for step in 0..4000 {
            let k = rng.gen_range(0..widths.len());
            let resident_at = model.iter().position(|&m| m == k);
            let insert = rng.gen_bool(0.5);
            if insert {
                cache.insert(1, request(k), answer(k));
            } else {
                let hit = cache.get(1, &request(k));
                assert_eq!(hit, resident_at.map(|_| answer(k)), "step {step}");
            }
            if let Some(at) = resident_at {
                model.remove(at);
                model.push(k);
            } else if insert && bytes(&[k]) <= MAX_BYTES {
                while bytes(&model) + bytes(&[k]) > MAX_BYTES {
                    model.remove(0);
                    evictions += 1;
                }
                model.push(k);
            }
            let lru = cache.lock();
            let resident: Vec<usize> = lru
                .recency
                .iter()
                .map(|(stamp, digest)| {
                    let entry = lru.buckets[digest].iter().find(|e| e.stamp == *stamp);
                    entry.unwrap().payload.as_codes().unwrap()[(0, 0)] as usize
                })
                .collect();
            assert_eq!(resident, model, "step {step}: resident keys, oldest first");
            assert!(lru.bytes <= MAX_BYTES, "step {step}: over budget");
            assert_eq!((lru.bytes, lru.evictions), (bytes(&model), evictions));
        }
        assert!(evictions > 0 && bytes(&[0]) > MAX_BYTES);
    }

    #[test]
    fn hidden_payload_hits_are_bit_exact_not_just_numeric() {
        // -0.0 == 0.0 numerically, but the replay contract is about
        // bits: the two must not alias as cache keys.
        let cache = RequestCache::new(CacheConfig::default());
        let pos = Payload::Hidden(Matrix::from_vec(1, 1, vec![0.0f32]).unwrap());
        let neg = Payload::Hidden(Matrix::from_vec(1, 1, vec![-0.0f32]).unwrap());
        let out = CachedOutput {
            payload: Payload::Hidden(Matrix::from_vec(1, 1, vec![1.5f32]).unwrap()),
            scale: 1.0,
        };
        cache.insert(1, pos.clone(), out.clone());
        assert_eq!(cache.get(1, &pos), Some(out));
        assert_eq!(cache.get(1, &neg), None, "signed zeros aliased");
        // Kind is part of the key too: the same bits as codes miss.
        let as_codes = Payload::Codes(Matrix::from_vec(1, 1, vec![0i32]).unwrap());
        assert_eq!(cache.get(1, &as_codes), None);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let config = room_for(64);
        let cache = Arc::new(RequestCache::new(config));
        let mut threads = Vec::new();
        for t in 0..4 {
            let cache = Arc::clone(&cache);
            threads.push(std::thread::spawn(move || {
                for i in 0..100 {
                    let salt = (t * 7 + i) % 32;
                    cache.insert(1, codes(salt), output(salt));
                    if let Some(hit) = cache.get(1, &codes(salt)) {
                        assert_eq!(hit, output(salt), "cache returned a wrong payload");
                    }
                }
            }));
        }
        for th in threads {
            th.join().expect("worker");
        }
        assert!(cache.len() <= 64);
        assert!(cache.resident_bytes() <= config.max_bytes);
    }
}
