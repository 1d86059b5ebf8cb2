//! Twins and diffs: word-granularity update records.
//!
//! At the first write of an interval the protocol snapshots the page (the
//! *twin*); at the closing release it compares the live frame against the
//! twin and stores the changed words as a [`Diff`]. Diffs are what make
//! *concurrent write sharing* work (the Cholesky case in the paper): two
//! processors writing disjoint words of one page produce disjoint diffs
//! that merge cleanly at the next reader.

use crate::space::Frame;
use serde::{Deserialize, Serialize};

/// Changed words of one page in one interval.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diff {
    /// (word index, new value), ascending by index.
    pub entries: Vec<(u32, u64)>,
}

impl Diff {
    /// Compare `frame` against its `twin`; record every changed word.
    pub fn create(twin: &[u64], frame: &Frame) -> Diff {
        debug_assert_eq!(twin.len(), frame.len(), "twin/frame size mismatch");
        let mut entries = Vec::new();
        for (i, &old) in twin.iter().enumerate() {
            let cur = frame.load(i);
            if cur != old {
                entries.push((i as u32, cur));
            }
        }
        Diff { entries }
    }

    /// Apply this diff's words to `frame`.
    pub fn apply(&self, frame: &Frame) {
        for &(i, v) in &self.entries {
            frame.store(i as usize, v);
        }
    }

    /// Number of changed words.
    pub fn words(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Wire size: 4-byte index + 8-byte value per entry.
    pub fn wire_bytes(&self) -> usize {
        self.entries.len() * 12
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{NodeSpace, PageHandle};
    use crate::types::PageId;

    /// A fresh page of `words` words; the tests work on its `frame`.
    fn page(words: usize) -> PageHandle {
        let ns = NodeSpace::new(words * 8, 32.min(words * 8));
        ns.page(PageId(0))
    }

    #[test]
    fn create_records_only_changes() {
        let f = &page(8).frame;
        f.fill_from(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let twin = f.snapshot();
        f.store(2, 99);
        f.store(7, 100);
        let d = Diff::create(&twin, f);
        assert_eq!(d.entries, vec![(2, 99), (7, 100)]);
        assert_eq!(d.words(), 2);
        assert_eq!(d.wire_bytes(), 24);
    }

    #[test]
    fn apply_reproduces_writer_state() {
        let w = &page(8).frame;
        let twin = w.snapshot();
        w.store(1, 11);
        w.store(5, 55);
        let d = Diff::create(&twin, w);

        let r = &page(8).frame;
        d.apply(r);
        assert_eq!(r.load(1), 11);
        assert_eq!(r.load(5), 55);
        assert_eq!(r.load(0), 0);
    }

    #[test]
    fn disjoint_diffs_merge_commutatively() {
        // Concurrent write sharing: A writes words 0..4, B writes 4..8.
        let a = &page(8).frame;
        let ta = a.snapshot();
        for i in 0..4 {
            a.store(i, 100 + i as u64);
        }
        let da = Diff::create(&ta, a);

        let b = &page(8).frame;
        let tb = b.snapshot();
        for i in 4..8 {
            b.store(i, 200 + i as u64);
        }
        let db = Diff::create(&tb, b);

        let r1 = &page(8).frame;
        da.apply(r1);
        db.apply(r1);
        let r2 = &page(8).frame;
        db.apply(r2);
        da.apply(r2);
        assert_eq!(r1.snapshot(), r2.snapshot());
        assert_eq!(r1.load(0), 100);
        assert_eq!(r1.load(7), 207);
    }

    #[test]
    fn unchanged_page_yields_empty_diff() {
        let f = &page(8).frame;
        let twin = f.snapshot();
        let d = Diff::create(&twin, f);
        assert!(d.is_empty());
        assert_eq!(d.wire_bytes(), 0);
    }

    #[test]
    fn write_of_same_value_is_not_a_change() {
        // Word-level diffs define "change" by value, not by access: writing
        // the value already present produces no diff entry. (This is the
        // standard TreadMarks behaviour.)
        let f = &page(4).frame;
        f.fill_from(&[9, 9, 9, 9]);
        let twin = f.snapshot();
        f.store(2, 9);
        assert!(Diff::create(&twin, f).is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::space::NodeSpace;
    use crate::types::PageId;
    use proptest::prelude::*;

    proptest! {
        fn apply_after_create_reproduces_frame(
            base in proptest::collection::vec(any::<u64>(), 16),
            writes in proptest::collection::vec((0usize..16, any::<u64>()), 0..32),
        ) {
            let ns = NodeSpace::new(16 * 8, 32);
            let w = &ns.page(PageId(0)).frame;
            w.fill_from(&base);
            let twin = w.snapshot();
            for &(i, v) in &writes {
                w.store(i, v);
            }
            let d = Diff::create(&twin, w);

            let r = &ns.page(PageId(1)).frame;
            r.fill_from(&base);
            d.apply(r);
            prop_assert_eq!(r.snapshot(), w.snapshot());
        }

        fn diff_entries_sorted_and_unique(
            writes in proptest::collection::vec((0usize..16, any::<u64>()), 0..64),
        ) {
            let ns = NodeSpace::new(16 * 8, 32);
            let w = &ns.page(PageId(0)).frame;
            let twin = w.snapshot();
            for &(i, v) in &writes {
                w.store(i, v);
            }
            let d = Diff::create(&twin, w);
            for pair in d.entries.windows(2) {
                prop_assert!(pair[0].0 < pair[1].0);
            }
        }
    }
}
