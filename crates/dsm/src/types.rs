//! Identifiers, addresses and vector timestamps for the DSM protocol.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A processor (= node) in the cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ProcId(pub u32);

/// A shared page.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PageId(pub u32);

/// A synchronisation lock.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LockId(pub u32);

/// A virtual address in the shared segment.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VAddr(pub u64);

/// Base of the shared segment ("a fixed portion of the processor address
/// space was allocated to distributed shared memory").
pub const SHARED_BASE: u64 = 0x8000_0000;

impl VAddr {
    /// The page containing this address, for `page_bytes`-sized pages.
    #[inline]
    pub fn page(self, page_bytes: usize) -> PageId {
        PageId(((self.0 - SHARED_BASE) / page_bytes as u64) as u32)
    }

    /// Byte offset within the page.
    #[inline]
    pub fn offset(self, page_bytes: usize) -> usize {
        ((self.0 - SHARED_BASE) % page_bytes as u64) as usize
    }

    /// Word index (8-byte words) within the page.
    #[inline]
    pub fn word(self, page_bytes: usize) -> usize {
        self.offset(page_bytes) / 8
    }

    /// Address arithmetic in bytes.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, bytes: u64) -> VAddr {
        VAddr(self.0 + bytes)
    }

    /// First address of `page`.
    #[inline]
    pub fn of_page(page: PageId, page_bytes: usize) -> VAddr {
        VAddr(SHARED_BASE + page.0 as u64 * page_bytes as u64)
    }
}

impl fmt::Debug for VAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VAddr({:#x})", self.0)
    }
}

/// A write notice: "processor `writer` modified `page` during its interval
/// `interval`". Carried on lock grants and barrier releases; receiving one
/// you haven't covered invalidates your copy of the page.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WriteNotice {
    /// The modifying processor.
    pub writer: ProcId,
    /// Its interval index (1-based; interval i closes at its i-th release).
    pub interval: u32,
    /// The page modified.
    pub page: PageId,
}

/// A vector timestamp over the processors of the cluster.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VClock(pub Vec<u32>);

impl VClock {
    /// The zero clock for `n` processors.
    pub fn zero(n: usize) -> Self {
        VClock(vec![0; n])
    }

    /// Component for `p`; zero when the clock does not span `p` (a clock
    /// of another width, from a message, has seen nothing of it).
    #[inline]
    pub fn get(&self, p: ProcId) -> u32 {
        self.0.get(p.0 as usize).copied().unwrap_or(0)
    }

    /// Set component for `p`.
    #[inline]
    pub fn set(&mut self, p: ProcId, v: u32) {
        self.0[p.0 as usize] = v;
    }

    /// Raise component for `p` to at least `v`.
    #[inline]
    pub fn raise(&mut self, p: ProcId, v: u32) {
        let e = &mut self.0[p.0 as usize];
        *e = (*e).max(v);
    }

    /// Component-wise maximum over the processors `self` spans: a wider
    /// clock's extra components name no processor of this cluster and are
    /// ignored; a narrower one's missing components count as zero.
    pub fn merge(&mut self, other: &VClock) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }

    /// [`Self::merge`] a clock received from another node into `me`'s
    /// own, leaving `me`'s component alone: only `me` advances it, when it
    /// closes an interval. A real message's clock never exceeds it, so a
    /// larger one is forged and must not move `me`'s interval counter.
    pub fn merge_except(&mut self, other: &VClock, me: ProcId) {
        let own = self.get(me);
        self.merge(other);
        if let Some(e) = self.0.get_mut(me.0 as usize) {
            *e = own;
        }
    }

    /// Does every component of `self` cover `other`?
    pub fn covers(&self, other: &VClock) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| a >= b)
    }

    /// Number of processors this clock spans.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the clock spans zero processors (degenerate).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Debug for VClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VC{:?}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vaddr_page_math() {
        let page_bytes = 2048;
        let a = VAddr(SHARED_BASE + 2048 * 3 + 16);
        assert_eq!(a.page(page_bytes), PageId(3));
        assert_eq!(a.offset(page_bytes), 16);
        assert_eq!(a.word(page_bytes), 2);
        assert_eq!(
            VAddr::of_page(PageId(3), page_bytes).page(page_bytes),
            PageId(3)
        );
    }

    #[test]
    fn vclock_merge_and_cover() {
        let mut a = VClock::zero(3);
        a.set(ProcId(0), 5);
        let mut b = VClock::zero(3);
        b.set(ProcId(1), 2);
        assert!(!a.covers(&b));
        a.merge(&b);
        assert_eq!(a.0, vec![5, 2, 0]);
        assert!(a.covers(&b));
        a.raise(ProcId(1), 1);
        assert_eq!(a.get(ProcId(1)), 2, "raise must not lower");
        a.raise(ProcId(2), 7);
        assert_eq!(a.get(ProcId(2)), 7);
    }

    #[test]
    fn merge_except_leaves_the_own_component_alone() {
        let mut a = VClock(vec![4, 2, 0]);
        a.merge_except(&VClock(vec![u32::MAX, 5, 9]), ProcId(0));
        assert_eq!(a.0, vec![4, 5, 9], "a larger own component is ignored");
        a.merge_except(&VClock(vec![0, 1, 1]), ProcId(1));
        assert_eq!(a.0, vec![4, 5, 9], "a smaller one lowers nothing");
        // A node outside the clock's width has no component to keep.
        a.merge_except(&VClock(vec![6, 0, 0, 1]), ProcId(3));
        assert_eq!(a.0, vec![6, 5, 9]);
    }

    #[test]
    fn merge_keeps_the_receivers_width() {
        let mut a = VClock(vec![1, 5]);
        a.merge(&VClock(vec![3, 2, 9]));
        assert_eq!(a, VClock(vec![3, 5]));
        a.merge(&VClock(vec![4]));
        assert_eq!(a, VClock(vec![4, 5]));
        assert_eq!(VClock(vec![4]).get(ProcId(1)), 0);
    }
}
