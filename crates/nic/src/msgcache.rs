//! The Message Cache: the CNI's central mechanism.
//!
//! The board keeps a set of page-sized buffers mirroring host
//! virtual-memory pages. The **buffer map** associates a host virtual page
//! with a board buffer; a **TLB/RTLB** pair translates between host
//! virtual and physical addresses so snooped (physical) bus writes can be
//! applied to the right (virtually indexed) buffer. The three fundamental
//! operations from §2.2 of the paper map onto this type as:
//!
//! * **transmit caching** — [`MessageCache::lookup_tx`] before DMA: a hit
//!   means the board already holds a consistent copy and the host→board
//!   DMA is skipped entirely; on a cacheable miss the page is
//!   [`MessageCache::insert`]ed after the DMA.
//! * **receive caching** — an arriving page marked cacheable is inserted
//!   so a future migration transmits straight from the board.
//! * **consistency snooping** — every CPU write that reaches the bus is
//!   offered via [`MessageCache::snoop_write`]; if the page is resident the
//!   board copy is updated in place (that is what keeps transmit hits
//!   *correct*).
//!
//! Replacement is CLOCK — the canonical *approximate LRU* the paper
//! specifies — over a fixed number of page buffers
//! ([`crate::NicConfig::msg_cache_buffers`]).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Statistics of one Message Cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MsgCacheStats {
    /// Transmit-path lookups.
    pub tx_lookups: u64,
    /// Transmit-path hits (no DMA needed).
    pub tx_hits: u64,
    /// Buffers bound (transmit-miss caching + receive caching).
    pub inserts: u64,
    /// Buffers evicted by CLOCK to make room.
    pub evictions: u64,
    /// Snooped writes that found their page resident (board copy updated).
    pub snoop_updates: u64,
    /// Snooped writes to non-resident pages (ignored).
    pub snoop_misses: u64,
    /// RTLB misses during snooping (cost charged by the caller).
    pub rtlb_misses: u64,
    /// Explicit invalidations.
    pub invalidations: u64,
}

impl MsgCacheStats {
    /// The paper's *network cache hit ratio*: transmit hits over transmit
    /// lookups.
    pub fn hit_ratio(&self) -> f64 {
        if self.tx_lookups == 0 {
            0.0
        } else {
            self.tx_hits as f64 / self.tx_lookups as f64
        }
    }

    /// Merge another cache's counters (cluster-wide aggregation).
    pub fn merge(&mut self, o: &MsgCacheStats) {
        self.tx_lookups += o.tx_lookups;
        self.tx_hits += o.tx_hits;
        self.inserts += o.inserts;
        self.evictions += o.evictions;
        self.snoop_updates += o.snoop_updates;
        self.snoop_misses += o.snoop_misses;
        self.rtlb_misses += o.rtlb_misses;
        self.invalidations += o.invalidations;
    }
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    page: Option<u64>,
    referenced: bool,
}

/// A small reverse TLB: tracks which page translations are resident so
/// snoop-side misses can be charged their refill cost.
struct Rtlb {
    entries: Vec<u64>,
    capacity: usize,
    hand: usize,
}

impl Rtlb {
    fn new(capacity: usize) -> Self {
        Rtlb {
            entries: Vec::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
            hand: 0,
        }
    }

    /// Translate `page`; returns true on a resident translation, false on
    /// a miss (the translation is then refilled).
    fn translate(&mut self, page: u64) -> bool {
        if self.entries.contains(&page) {
            return true;
        }
        if self.entries.len() < self.capacity {
            self.entries.push(page);
        } else {
            self.entries[self.hand] = page;
            self.hand = (self.hand + 1) % self.capacity;
        }
        false
    }
}

/// The Message Cache (buffer map + cached buffers + RTLB).
///
/// ```
/// use cni_nic::MessageCache;
///
/// let mut mc = MessageCache::new(16, 256);
/// assert!(!mc.lookup_tx(7));     // cold: the DMA happens, then we bind
/// mc.insert(7);
/// assert!(mc.lookup_tx(7));      // re-send: no DMA
/// mc.snoop_write(7);             // CPU writes keep the copy consistent
/// assert!(mc.lookup_tx(7));      // still a hit
/// assert!((mc.stats().hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
/// ```
pub struct MessageCache {
    slots: Vec<Slot>,
    map: BTreeMap<u64, usize>,
    hand: usize,
    rtlb: Rtlb,
    stats: MsgCacheStats,
}

impl MessageCache {
    /// A cache of `buffers` page buffers and an RTLB of `rtlb_entries`.
    pub fn new(buffers: usize, rtlb_entries: usize) -> Self {
        assert!(buffers > 0, "message cache needs at least one buffer");
        MessageCache {
            slots: vec![
                Slot {
                    page: None,
                    referenced: false
                };
                buffers
            ],
            map: BTreeMap::new(),
            hand: 0,
            rtlb: Rtlb::new(rtlb_entries),
            stats: MsgCacheStats::default(),
        }
    }

    /// Capacity in page buffers.
    pub fn buffers(&self) -> usize {
        self.slots.len()
    }

    /// Transmit-path lookup: is a consistent copy of `page` on the board?
    /// Counts toward the network cache hit ratio and refreshes the CLOCK
    /// reference bit on a hit.
    pub fn lookup_tx(&mut self, page: u64) -> bool {
        self.stats.tx_lookups += 1;
        if let Some(&slot) = self.map.get(&page) {
            self.slots[slot].referenced = true;
            self.stats.tx_hits += 1;
            true
        } else {
            false
        }
    }

    /// Is `page` resident? (No statistics side effects.)
    pub fn contains(&self, page: u64) -> bool {
        self.map.contains_key(&page)
    }

    /// Bind `page` to a board buffer (after a transmit-miss DMA of a
    /// cacheable buffer, or on receive caching). Returns the evicted page
    /// if CLOCK had to free a buffer. Inserting a resident page just
    /// refreshes it.
    pub fn insert(&mut self, page: u64) -> Option<u64> {
        if let Some(&slot) = self.map.get(&page) {
            self.slots[slot].referenced = true;
            return None;
        }
        self.stats.inserts += 1;
        // CLOCK: advance the hand, granting second chances, until a victim
        // with a clear reference bit (or an empty slot) is found.
        let victim = loop {
            let s = &mut self.slots[self.hand];
            match s.page {
                None => break self.hand,
                Some(_) if !s.referenced => break self.hand,
                _ => {
                    s.referenced = false;
                    self.hand = (self.hand + 1) % self.slots.len();
                }
            }
        };
        let evicted = self.slots[victim].page.take();
        if let Some(old) = evicted {
            self.map.remove(&old);
            self.stats.evictions += 1;
        }
        self.slots[victim] = Slot {
            page: Some(page),
            referenced: true,
        };
        self.map.insert(page, victim);
        self.hand = (victim + 1) % self.slots.len();
        evicted
    }

    /// Offer a snooped bus write to `page`. Returns `(resident, rtlb_miss)`
    /// — resident means the board copy was updated in place; an RTLB miss
    /// costs the caller a refill.
    pub fn snoop_write(&mut self, page: u64) -> (bool, bool) {
        let rtlb_hit = self.rtlb.translate(page);
        if !rtlb_hit {
            self.stats.rtlb_misses += 1;
        }
        if self.map.contains_key(&page) {
            self.stats.snoop_updates += 1;
            (true, !rtlb_hit)
        } else {
            self.stats.snoop_misses += 1;
            (false, !rtlb_hit)
        }
    }

    /// Drop `page`'s binding (e.g. the host's copy diverged in a way
    /// snooping cannot see). Returns whether it was resident.
    pub fn invalidate(&mut self, page: u64) -> bool {
        if let Some(slot) = self.map.remove(&page) {
            self.slots[slot].page = None;
            self.slots[slot].referenced = false;
            self.stats.invalidations += 1;
            true
        } else {
            false
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> MsgCacheStats {
        self.stats
    }

    /// Resident page count.
    pub fn resident(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(buffers: usize) -> MessageCache {
        MessageCache::new(buffers, 64)
    }

    #[test]
    fn miss_then_insert_then_hit() {
        let mut c = cache(4);
        assert!(!c.lookup_tx(7));
        assert_eq!(c.insert(7), None);
        assert!(c.lookup_tx(7));
        assert_eq!(c.stats().tx_lookups, 2);
        assert_eq!(c.stats().tx_hits, 1);
        assert!((c.stats().hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn clock_evicts_unreferenced_first() {
        let mut c = cache(2);
        c.insert(1);
        c.insert(2);
        // Touch page 1 so its reference bit is set; page 2's was set at
        // insert, so the hand must sweep both once, clearing bits, and then
        // evict the first unreferenced slot.
        assert!(c.lookup_tx(1));
        let evicted = c.insert(3);
        assert!(evicted.is_some());
        assert_eq!(c.resident(), 2);
        assert!(c.contains(3));
    }

    #[test]
    fn reinsert_resident_does_not_evict() {
        let mut c = cache(2);
        c.insert(1);
        c.insert(2);
        assert_eq!(c.insert(1), None);
        assert_eq!(c.stats().evictions, 0);
        assert!(c.contains(1) && c.contains(2));
    }

    #[test]
    fn eviction_unbinds_old_page() {
        let mut c = cache(1);
        c.insert(10);
        let evicted = c.insert(11);
        assert_eq!(evicted, Some(10));
        assert!(!c.contains(10));
        assert!(c.contains(11));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn snoop_updates_resident_pages_only() {
        let mut c = cache(2);
        c.insert(5);
        let (resident, _) = c.snoop_write(5);
        assert!(resident);
        let (resident, _) = c.snoop_write(6);
        assert!(!resident);
        assert_eq!(c.stats().snoop_updates, 1);
        assert_eq!(c.stats().snoop_misses, 1);
    }

    #[test]
    fn rtlb_misses_then_hits() {
        let mut c = cache(2);
        c.insert(5);
        let (_, miss1) = c.snoop_write(5);
        assert!(miss1, "first translation must miss");
        let (_, miss2) = c.snoop_write(5);
        assert!(!miss2, "second translation must hit");
        assert_eq!(c.stats().rtlb_misses, 1);
    }

    #[test]
    fn invalidate_removes_binding() {
        let mut c = cache(2);
        c.insert(9);
        assert!(c.invalidate(9));
        assert!(!c.contains(9));
        assert!(!c.invalidate(9));
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn working_set_within_capacity_reaches_full_hit_ratio() {
        // The Jacobi observation: when the transmitted working set fits,
        // the steady-state hit ratio approaches 1.
        let mut c = cache(8);
        let pages = [1u64, 2, 3, 4];
        for round in 0..100 {
            for &p in &pages {
                if !c.lookup_tx(p) {
                    c.insert(p);
                }
                let _ = round;
            }
        }
        // 4 cold misses out of 400 lookups.
        assert!(c.stats().hit_ratio() > 0.98);
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        // The Cholesky observation: a migrating working set larger than
        // the cache keeps the hit ratio low until the cache grows.
        let mut c = cache(4);
        let mut hits = 0;
        let mut lookups = 0;
        for _round in 0..50 {
            for p in 0..16u64 {
                lookups += 1;
                if c.lookup_tx(p) {
                    hits += 1;
                } else {
                    c.insert(p);
                }
            }
        }
        assert!(
            (hits as f64 / lookups as f64) < 0.5,
            "sequential sweep larger than CLOCK capacity must mostly miss"
        );
    }
}
