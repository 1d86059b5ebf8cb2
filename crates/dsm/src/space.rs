//! Per-node shared-memory frames with a direct fast path.
//!
//! Each node holds its own copy (frame) of every shared page it has
//! touched. The *application* program accesses frames directly — word loads
//! and stores plus one load of the page's access state — and only traps to
//! the protocol engine on an access-state violation (page fault). This
//! mirrors how a real LRC system uses the MMU: valid accesses run at memory
//! speed, faults enter the protocol.
//!
//! Single-thread discipline: a node's DSM handlers and its program run on
//! one thread, the engine's (it polls programs in place), and the types
//! say so. Words, access states and dirty bits are `Cell`s, a page is one
//! `Rc`, and the page table is a `RefCell` that the node and its program's
//! context share through an `Rc`. None of it is `Send`, so nothing here
//! takes a lock. Each borrow of the table is one map lookup or insert
//! that calls out to nothing, so no two borrows overlap.
//!
//! The page table is a `BTreeMap` keyed by page id, not a dense `Vec`:
//! frames materialise on first touch, so a node holds only the pages it
//! has touched, and the space never learns the segment's size. A page
//! request names the page to serve, so an id from a message can make a
//! frame materialise; keyed, a stray id costs one frame, not a table sized
//! by the id.

use crate::types::PageId;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

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
    words: Box<[Cell<u64>]>,
}

impl Frame {
    fn new(words: usize) -> Self {
        Frame {
            words: vec![Cell::new(0); words].into(),
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
        self.words[i].get()
    }

    /// Store word `i`.
    #[inline]
    pub fn store(&self, i: usize, v: u64) {
        self.words[i].set(v);
    }

    /// Copy the whole frame out (twin creation, page replies).
    pub fn snapshot(&self) -> Vec<u64> {
        self.words.iter().map(Cell::get).collect()
    }

    /// Overwrite the whole frame (page replies).
    pub fn fill_from(&self, data: &[u64]) {
        debug_assert_eq!(data.len(), self.words.len(), "frame size mismatch");
        for (w, &v) in self.words.iter().zip(data) {
            w.set(v);
        }
    }
}

/// Access state + dirty-line tracking for one (node, page).
pub struct PageFlags {
    state: Cell<u8>,
    /// Bit per cache line written since the last flush; feeds the
    /// pre-transmit flush cost and the snoop statistics.
    dirty: Box<[Cell<u64>]>,
}

impl PageFlags {
    fn new(lines: usize) -> Self {
        PageFlags {
            state: Cell::new(access::INVALID),
            dirty: vec![Cell::new(0); lines.div_ceil(64)].into(),
        }
    }

    /// Current access state.
    #[inline]
    pub fn state(&self) -> u8 {
        self.state.get()
    }

    /// Set access state.
    #[inline]
    pub fn set_state(&self, s: u8) {
        self.state.set(s);
    }

    /// Mark cache line `line` dirty.
    #[inline]
    pub fn mark_dirty(&self, line: usize) {
        let w = &self.dirty[line / 64];
        w.set(w.get() | 1 << (line % 64));
    }

    /// Count dirty lines and clear them (a flush).
    pub fn take_dirty_lines(&self) -> u64 {
        self.dirty
            .iter()
            .map(|w| w.take().count_ones() as u64)
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
pub type PageHandle = Rc<Page>;

/// One node's view of the shared segment.
pub struct NodeSpace {
    page_bytes: usize,
    line_bytes: usize,
    pages: RefCell<BTreeMap<PageId, PageHandle>>,
}

impl NodeSpace {
    /// A node space for `page_bytes` pages and `line_bytes` cache lines.
    pub fn new(page_bytes: usize, line_bytes: usize) -> Self {
        assert!(page_bytes.is_multiple_of(8), "pages must be whole words");
        assert!(line_bytes.is_power_of_two() && line_bytes >= 8);
        NodeSpace {
            page_bytes,
            line_bytes,
            pages: RefCell::new(BTreeMap::new()),
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
        self.pages
            .borrow_mut()
            .entry(page)
            .or_insert_with(|| {
                Rc::new(Page {
                    frame: Frame::new(self.page_words()),
                    flags: PageFlags::new(self.page_lines()),
                })
            })
            .clone()
    }

    /// Handle if the page has ever been touched on this node.
    pub fn try_page(&self, page: PageId) -> Option<PageHandle> {
        self.pages.borrow().get(&page).cloned()
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
        assert_eq!(fl.take_dirty_lines(), 2);
        assert_eq!(fl.take_dirty_lines(), 0);
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
        assert!(ns.try_page(PageId(4)).is_none());
        // Same handle identity on re-fetch.
        let h2 = ns.page(PageId(5));
        assert!(Rc::ptr_eq(&h, &h2));
    }

    #[test]
    fn first_touch_is_invalid_zeroed_and_clean() {
        let ns = NodeSpace::new(256, 32);
        let h = ns.page(PageId(9));
        assert_eq!(h.flags.state(), access::INVALID);
        assert_eq!(h.frame.snapshot(), vec![0; 32]);
        assert_eq!(h.flags.take_dirty_lines(), 0);
    }

    #[test]
    fn every_handle_to_a_page_sees_its_words_state_and_dirty_bits() {
        // The protocol and the program each hold a handle to the same
        // page; a change through one is the other's next load.
        let ns = NodeSpace::new(256, 32);
        let program = ns.page(PageId(1));
        let protocol = ns.try_page(PageId(1)).expect("touched");
        protocol.frame.fill_from(&[7; 32]);
        protocol.flags.set_state(access::READ);
        assert_eq!(program.frame.load(31), 7);
        assert_eq!(program.flags.state(), access::READ);
        program.frame.store(0, 11);
        program.flags.mark_dirty(ns.line_of(0));
        assert_eq!(protocol.frame.load(0), 11);
        assert_eq!(protocol.flags.take_dirty_lines(), 1);
        assert_eq!(program.flags.take_dirty_lines(), 0, "a flush clears both");
    }

    #[test]
    fn distinct_pages_do_not_alias() {
        let ns = NodeSpace::new(256, 32);
        let (a, b) = (ns.page(PageId(0)), ns.page(PageId(1)));
        a.frame.store(3, 1);
        a.flags.set_state(access::WRITE);
        a.flags.mark_dirty(2);
        assert_eq!(b.frame.load(3), 0);
        assert_eq!(b.flags.state(), access::INVALID);
        assert_eq!(b.flags.take_dirty_lines(), 0);
        assert!(!Rc::ptr_eq(&a, &b));
    }

    #[test]
    fn dirty_bits_cover_a_partial_last_word() {
        // 65 lines need a second bit word holding a single line.
        let fl = PageFlags::new(65);
        fl.mark_dirty(63);
        fl.mark_dirty(64);
        assert_eq!(fl.take_dirty_lines(), 2);
    }

    #[test]
    #[should_panic(expected = "pages must be whole words")]
    fn node_space_rejects_partial_words() {
        let _ = NodeSpace::new(2044, 32);
    }

    #[test]
    #[should_panic(expected = "line_bytes.is_power_of_two()")]
    fn node_space_rejects_lines_that_are_not_a_power_of_two() {
        let _ = NodeSpace::new(2048, 24);
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
