//! The shared-BFS weight cache (DESIGN.md §9).
//!
//! Resolving [`Personalization::Targets`] costs one multi-source BFS
//! over the whole graph (Eq. 2). A tenant sweeping budgets — the
//! canonical serving workload — issues many requests with the *same*
//! target set, so the BFS is pure waste after the first run. This cache
//! keys resolved [`NodeWeights`] by `(tenant, canonical targets, α)`
//! and hands back clones, which downstream runs submit as
//! [`Personalization::Weights`] — bitwise-identical to resolving
//! fresh (the contract pinned by [`Personalization::target_key`] and
//! the property tests in `tests/cache_props.rs`).
//!
//! Entries are stamped with a **graph epoch**: a summarized graph may be
//! swapped out under a long-lived service, and weights resolved against
//! the old graph must never personalize runs on the new one. A lookup
//! with a newer epoch treats the entry as dead — it is dropped, not
//! returned — so stale weights are unreachable by construction, however
//! the eviction policy shuffles entries.
//!
//! Eviction is least-recently-used over a fixed entry capacity: each
//! hit refreshes a monotone use tick, and inserting past capacity drops
//! the smallest tick. All bookkeeping is O(capacity) per insert and
//! O(1) per hit, with capacities expected in the hundreds.

use pgs_core::api::Personalization;
use pgs_core::NodeWeights;
use pgs_graph::{FxHashMap, NodeId};

/// A weight-cache key: tenant, canonical target set, and the bits of
/// the `α` the weights were resolved at (bit-exact keying — two alphas
/// that differ in the last ulp are different keys, which is the safe
/// direction).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct WeightKey {
    tenant: String,
    targets: Vec<NodeId>,
    alpha_bits: u64,
}

impl WeightKey {
    /// Builds the key for a request's personalization axis, or `None`
    /// when there is nothing to cache (uniform, prebuilt weights, or an
    /// empty — invalid — target list). See
    /// [`Personalization::target_key`] for the canonicalization.
    pub fn new(tenant: &str, personalization: &Personalization, alpha: f64) -> Option<WeightKey> {
        personalization.target_key().map(|targets| WeightKey {
            tenant: tenant.to_string(),
            targets,
            alpha_bits: alpha.to_bits(),
        })
    }

    /// The tenant this key belongs to.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The canonical (sorted, deduplicated) target ids.
    pub fn targets(&self) -> &[NodeId] {
        &self.targets
    }
}

struct Entry {
    weights: NodeWeights,
    epoch: u64,
    last_used: u64,
}

/// Cache counters (cumulative since construction).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned cached weights.
    pub hits: u64,
    /// Lookups that found nothing usable (absent or stale-epoch).
    pub misses: u64,
    /// Entries dropped to make room (capacity evictions only; stale
    /// drops count as misses, not evictions).
    pub evictions: u64,
    /// Entries dropped at lookup because their graph epoch was stale
    /// (each such lookup also counts as a miss).
    pub epoch_invalidations: u64,
    /// Live entries right now.
    pub entries: usize,
}

impl CacheStats {
    /// `hits / (hits + misses)`, or 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// An epoch-stamped LRU cache of resolved node weights.
pub struct WeightCache {
    capacity: usize,
    entries: FxHashMap<WeightKey, Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    epoch_invalidations: u64,
}

impl WeightCache {
    /// A cache holding at most `capacity` weight vectors. `capacity`
    /// of 0 disables caching (every lookup misses, inserts are
    /// dropped).
    pub fn new(capacity: usize) -> Self {
        WeightCache {
            capacity,
            entries: FxHashMap::default(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            epoch_invalidations: 0,
        }
    }

    /// Cached weights for `key` resolved at graph epoch `epoch`, or
    /// `None`. An entry stamped with a *different* epoch is dead: it is
    /// removed and the lookup counts as a miss — stale weights are
    /// never returned.
    pub fn lookup(&mut self, key: &WeightKey, epoch: u64) -> Option<NodeWeights> {
        match self.entries.get_mut(key) {
            Some(entry) if entry.epoch == epoch => {
                self.tick += 1;
                entry.last_used = self.tick;
                self.hits += 1;
                Some(entry.weights.clone())
            }
            Some(_) => {
                self.entries.remove(key);
                self.misses += 1;
                self.epoch_invalidations += 1;
                None
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores `weights` under `key` at graph epoch `epoch`, evicting
    /// the least-recently-used entry if the cache is full. Replacing an
    /// existing key (same or different epoch) is not an eviction.
    pub fn insert(&mut self, key: WeightKey, weights: NodeWeights, epoch: u64) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            if let Some(lru) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&lru);
                self.evictions += 1;
            }
        }
        self.entries.insert(
            key,
            Entry {
                weights,
                epoch,
                last_used: self.tick,
            },
        );
    }

    /// Drops every entry belonging to `tenant` (scoped invalidation for
    /// a per-tenant graph swap). Returns the number dropped. Not an
    /// eviction and not a miss — the entries were not unlucky, they were
    /// retargeted.
    pub fn invalidate_tenant(&mut self, tenant: &str) -> usize {
        let before = self.entries.len();
        self.entries.retain(|k, _| k.tenant() != tenant);
        before - self.entries.len()
    }

    /// Keeps only entries whose key satisfies `pred`, returning the
    /// number dropped. Like [`WeightCache::invalidate_tenant`], dropped
    /// entries count as neither evictions nor misses.
    pub fn retain_where(&mut self, mut pred: impl FnMut(&WeightKey) -> bool) -> usize {
        let before = self.entries.len();
        self.entries.retain(|k, _| pred(k));
        before - self.entries.len()
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cumulative counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            epoch_invalidations: self.epoch_invalidations,
            entries: self.entries.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tenant: &str, targets: &[NodeId]) -> WeightKey {
        WeightKey::new(tenant, &Personalization::Targets(targets.to_vec()), 1.25).unwrap()
    }

    #[test]
    fn key_canonicalizes_targets_but_separates_tenants_and_alphas() {
        assert_eq!(key("a", &[3, 1, 3]), key("a", &[1, 3]));
        assert_ne!(key("a", &[1, 3]), key("b", &[1, 3]));
        let p = Personalization::Targets(vec![1, 3]);
        assert_ne!(WeightKey::new("a", &p, 1.25), WeightKey::new("a", &p, 1.5));
        assert_eq!(WeightKey::new("a", &Personalization::Uniform, 1.25), None);
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let mut c = WeightCache::new(4);
        let k = key("t", &[0, 1]);
        assert!(c.lookup(&k, 0).is_none());
        c.insert(k.clone(), NodeWeights::uniform(10), 0);
        assert_eq!(c.lookup(&k, 0).unwrap().len(), 10);
        assert_eq!(
            c.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0,
                epoch_invalidations: 0,
                entries: 1
            }
        );
    }

    #[test]
    fn stale_epoch_is_a_miss_and_drops_the_entry() {
        let mut c = WeightCache::new(4);
        let k = key("t", &[2]);
        c.insert(k.clone(), NodeWeights::uniform(5), 0);
        assert!(c.lookup(&k, 1).is_none(), "epoch-0 weights at epoch 1");
        assert!(c.is_empty(), "stale entry must be dropped");
        assert_eq!(c.stats().epoch_invalidations, 1, "stale drop is counted");
        assert_eq!(c.stats().misses, 1, "...and doubles as a miss");
        // Re-resolved weights at the new epoch serve normally.
        c.insert(k.clone(), NodeWeights::uniform(7), 1);
        assert_eq!(c.lookup(&k, 1).unwrap().len(), 7);
    }

    #[test]
    fn lru_eviction_keeps_recently_used_entries() {
        let mut c = WeightCache::new(2);
        let (ka, kb, kc) = (key("t", &[0]), key("t", &[1]), key("t", &[2]));
        c.insert(ka.clone(), NodeWeights::uniform(1), 0);
        c.insert(kb.clone(), NodeWeights::uniform(2), 0);
        // Touch a, making b the LRU; inserting c evicts b.
        assert!(c.lookup(&ka, 0).is_some());
        c.insert(kc.clone(), NodeWeights::uniform(3), 0);
        assert_eq!(c.len(), 2);
        assert!(c.lookup(&ka, 0).is_some(), "recently used survives");
        assert!(c.lookup(&kb, 0).is_none(), "LRU evicted");
        assert!(c.lookup(&kc, 0).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = WeightCache::new(0);
        let k = key("t", &[0]);
        c.insert(k.clone(), NodeWeights::uniform(3), 0);
        assert!(c.lookup(&k, 0).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn scoped_invalidation_spares_other_tenants() {
        let mut c = WeightCache::new(8);
        c.insert(key("a", &[0]), NodeWeights::uniform(1), 0);
        c.insert(key("a", &[1]), NodeWeights::uniform(1), 0);
        c.insert(key("b", &[0]), NodeWeights::uniform(1), 0);
        assert_eq!(c.invalidate_tenant("a"), 2);
        assert_eq!(c.len(), 1);
        assert!(c.lookup(&key("b", &[0]), 0).is_some(), "b untouched");
        assert_eq!(c.stats().evictions, 0, "invalidation is not eviction");
        assert_eq!(c.retain_where(|k| k.tenant() != "b"), 1);
        assert!(c.is_empty());
    }

    #[test]
    fn replacing_a_key_is_not_an_eviction() {
        let mut c = WeightCache::new(1);
        let k = key("t", &[0]);
        c.insert(k.clone(), NodeWeights::uniform(3), 0);
        c.insert(k.clone(), NodeWeights::uniform(4), 0);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.lookup(&k, 0).unwrap().len(), 4);
    }
}
