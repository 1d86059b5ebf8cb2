//! Per-node shared-memory frames with a lock-free fast path.
//!
//! Each node holds its own copy (frame) of every shared page it has
//! touched. The *application* program accesses frames directly — word loads
//! and stores on atomics plus one relaxed load of the page's access state —
//! and only traps to the protocol engine on an access-state violation
//! (page fault). This mirrors how a real LRC system uses the MMU: valid
//! accesses run at memory speed, faults enter the protocol.
//!
//! Concurrency discipline: a node's DSM handlers and its program run on
//! one thread, the engine's (it polls programs in place), so the relaxed
//! atomics here are about satisfying the compiler, not about cross-thread
//! ordering. The same guarantee means the page table's `RwLock` is never
//! contended; it is there because the node and its program's context
//! share the [`NodeSpace`] through an `Arc`, and a program is a `Send`
//! future that holds its context, so the table must be `Sync`. A poisoned lock is
//! recovered, not propagated: each critical section is one map lookup or
//! insert, so no panic can leave the table half-updated.
//!
//! The page table is a `BTreeMap` keyed by page id, not a dense `Vec`: a
//! dense table is sized by the largest id touched, and a page id can come
//! from decoded snapshot bytes.

use crate::types::PageId;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
// cni-lint: allow(host-thread) -- page table shared by a node and its program's context; one thread touches it at a time (see module docs), the lock satisfies Send/Sync bounds
use std::sync::RwLock;
use std::sync::{Arc, PoisonError};

/// Page access rights, stored per (node, page).
pub mod access {
    /// No valid copy: any access faults.
    pub const INVALID: u8 = 0;
    /// Valid for reading; writes fault (to create a twin).
    pub const READ: u8 = 1;
    /// Valid for reading and writing (twin exists for this interval).
    pub const WRITE: u8 = 2;
}

/// The words of one page copy.
pub struct Frame {
    words: Box<[AtomicU64]>,
}

impl Frame {
    fn new(words: usize) -> Self {
        Frame {
            words: (0..words).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Word count.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True for zero-length frames (never constructed in practice).
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Load word `i`.
    #[inline]
    pub fn load(&self, i: usize) -> u64 {
        self.words[i].load(Ordering::Relaxed)
    }

    /// Store word `i`.
    #[inline]
    pub fn store(&self, i: usize, v: u64) {
        self.words[i].store(v, Ordering::Relaxed);
    }

    /// Copy the whole frame out (twin creation, page replies).
    pub fn snapshot(&self) -> Vec<u64> {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed))
            .collect()
    }

    /// Overwrite the whole frame (page replies).
    pub fn fill_from(&self, data: &[u64]) {
        debug_assert_eq!(data.len(), self.words.len(), "frame size mismatch");
        for (w, &v) in self.words.iter().zip(data) {
            w.store(v, Ordering::Relaxed);
        }
    }
}

/// Access state + dirty-line tracking for one (node, page).
pub struct PageFlags {
    state: AtomicU8,
    /// Bit per cache line written since the last flush; feeds the
    /// pre-transmit flush cost and the snoop statistics.
    dirty: Box<[AtomicU64]>,
}

impl PageFlags {
    fn new(lines: usize) -> Self {
        PageFlags {
            state: AtomicU8::new(access::INVALID),
            dirty: (0..lines.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Current access state.
    #[inline]
    pub fn state(&self) -> u8 {
        self.state.load(Ordering::Relaxed)
    }

    /// Set access state.
    #[inline]
    pub fn set_state(&self, s: u8) {
        self.state.store(s, Ordering::Relaxed);
    }

    /// Mark cache line `line` dirty.
    #[inline]
    pub fn mark_dirty(&self, line: usize) {
        self.dirty[line / 64].fetch_or(1 << (line % 64), Ordering::Relaxed);
    }

    /// Count dirty lines and clear them (a flush).
    pub fn take_dirty_lines(&self) -> u64 {
        let mut n = 0;
        for w in self.dirty.iter() {
            n += w.swap(0, Ordering::Relaxed).count_ones() as u64;
        }
        n
    }

    /// Count dirty lines without clearing.
    pub fn dirty_lines(&self) -> u64 {
        self.dirty
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as u64)
            .sum()
    }
}

/// One node's copy of one shared page: data words plus access state,
/// behind a single refcount.
pub struct Page {
    /// The data words.
    pub frame: Frame,
    /// Access state and dirty bits.
    pub flags: PageFlags,
}

/// A cheaply clonable handle to one (node, page): one pointer, one
/// refcount. A page is mutated in place for its whole life — the protocol
/// changes its state and words, never swaps the allocation — so a handle
/// taken once stays current.
pub type PageHandle = Arc<Page>;

/// One node's view of the shared segment.
pub struct NodeSpace {
    page_bytes: usize,
    line_bytes: usize,
    // cni-lint: allow(host-thread) -- keyed-only page map handed to programs; never contended (one runnable thread per node) and never iterated
    pages: RwLock<BTreeMap<PageId, PageHandle>>,
}

impl NodeSpace {
    /// A node space for `page_bytes` pages and `line_bytes` cache lines.
    pub fn new(page_bytes: usize, line_bytes: usize) -> Self {
        assert!(page_bytes.is_multiple_of(8), "pages must be whole words");
        assert!(line_bytes.is_power_of_two() && line_bytes >= 8);
        NodeSpace {
            page_bytes,
            line_bytes,
            // cni-lint: allow(host-thread) -- constructor for the waived field above
            pages: RwLock::new(BTreeMap::new()),
        }
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    /// Cache-line size in bytes.
    pub fn line_bytes(&self) -> usize {
        self.line_bytes
    }

    /// Words per page.
    pub fn page_words(&self) -> usize {
        self.page_bytes / 8
    }

    /// Cache lines per page.
    pub fn page_lines(&self) -> usize {
        self.page_bytes / self.line_bytes
    }

    /// Line index of byte offset `off`.
    #[inline]
    pub fn line_of(&self, off: usize) -> usize {
        off / self.line_bytes
    }

    /// Fetch the handle for `page`, creating an invalid zero frame on first
    /// touch.
    pub fn page(&self, page: PageId) -> PageHandle {
        if let Some(h) = self.try_page(page) {
            return h;
        }
        let mut w = self.pages.write().unwrap_or_else(PoisonError::into_inner);
        w.entry(page)
            .or_insert_with(|| {
                Arc::new(Page {
                    frame: Frame::new(self.page_words()),
                    flags: PageFlags::new(self.page_lines()),
                })
            })
            .clone()
    }

    /// Handle if the page has ever been touched on this node.
    pub fn try_page(&self, page: PageId) -> Option<PageHandle> {
        let pages = self.pages.read().unwrap_or_else(PoisonError::into_inner);
        pages.get(&page).cloned()
    }

    /// Number of locally materialised frames.
    pub fn frames(&self) -> usize {
        let pages = self.pages.read().unwrap_or_else(PoisonError::into_inner);
        pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let f = Frame::new(4);
        f.store(2, 99);
        assert_eq!(f.load(2), 99);
        assert_eq!(f.snapshot(), vec![0, 0, 99, 0]);
        f.fill_from(&[1, 2, 3, 4]);
        assert_eq!(f.load(0), 1);
        assert_eq!(f.len(), 4);
    }

    // `fill_from` checks its length with a `debug_assert!`.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "size mismatch")]
    fn fill_rejects_wrong_size() {
        Frame::new(4).fill_from(&[1, 2]);
    }

    #[test]
    fn flags_state_machine() {
        let fl = PageFlags::new(64);
        assert_eq!(fl.state(), access::INVALID);
        fl.set_state(access::WRITE);
        assert_eq!(fl.state(), access::WRITE);
    }

    #[test]
    fn dirty_lines_accumulate_and_flush() {
        let fl = PageFlags::new(64);
        fl.mark_dirty(0);
        fl.mark_dirty(0);
        fl.mark_dirty(63);
        assert_eq!(fl.dirty_lines(), 2);
        assert_eq!(fl.take_dirty_lines(), 2);
        assert_eq!(fl.dirty_lines(), 0);
    }

    #[test]
    fn dirty_lines_beyond_64() {
        let fl = PageFlags::new(512);
        fl.mark_dirty(100);
        fl.mark_dirty(500);
        assert_eq!(fl.take_dirty_lines(), 2);
    }

    #[test]
    fn node_space_creates_frames_on_demand() {
        let ns = NodeSpace::new(2048, 32);
        assert_eq!(ns.page_words(), 256);
        assert_eq!(ns.page_lines(), 64);
        assert!(ns.try_page(PageId(5)).is_none());
        let h = ns.page(PageId(5));
        assert_eq!(h.frame.len(), 256);
        assert!(ns.try_page(PageId(5)).is_some());
        assert_eq!(ns.frames(), 1);
        // Same handle identity on re-fetch.
        let h2 = ns.page(PageId(5));
        assert!(Arc::ptr_eq(&h, &h2));
    }

    #[test]
    fn page_table_survives_a_poisoned_lock() {
        let ns = NodeSpace::new(2048, 32);
        let h = ns.page(PageId(1));
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _w = ns.pages.write().unwrap();
            panic!("poison the page table");
        }));
        assert!(poisoned.is_err() && ns.pages.is_poisoned());
        assert!(Arc::ptr_eq(&ns.try_page(PageId(1)).unwrap(), &h));
        ns.page(PageId(2));
        assert_eq!(ns.frames(), 2);
    }

    #[test]
    fn line_of_maps_offsets() {
        let ns = NodeSpace::new(2048, 32);
        assert_eq!(ns.line_of(0), 0);
        assert_eq!(ns.line_of(31), 0);
        assert_eq!(ns.line_of(32), 1);
        assert_eq!(ns.line_of(2047), 63);
    }
}
