//! One write-notice log per cluster, read by each node through its own
//! vector clock.
//!
//! Lazy release consistency delivers a writer's notices together with a
//! clock that covers them. A lock grant carries the granter's clock and
//! every notice the granter holds past the requester's clock; a barrier
//! release carries the merged arrival clocks and every writer's notices
//! since the previous barrier. Both merge the clock as the notices are
//! integrated, so the notices a node has received from writer `w` are
//! exactly `w`'s notices up to the node's own `vc[w]`.
//!
//! One [`NoticeLog`] therefore serves every node of a cluster. Only
//! writer `w` appends `w`'s entries, when it closes an interval, and a
//! node reads them only up to its `vc[w]`. Integrating a notice stores
//! nothing, so a barrier release costs each receiver its invalidation
//! checks alone. The nodes of one simulation share the log through an
//! `Rc` on one thread, and a `RefCell` holds its tables.
//!
//! The methods carry names no other function in the workspace uses: the
//! panic-path lint resolves a call on a field (`self.log.m(..)`) only
//! through a unique name, and the protocol's receive handlers read the
//! log.

use crate::types::{PageId, ProcId, VClock, WriteNotice};
use std::cell::RefCell;

/// The write notices of one cluster, shared by its
/// [`DsmNode`](crate::DsmNode)s.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NoticeLog {
    tables: RefCell<Tables>,
}

#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Tables {
    /// Per writer, indexed by id: its published `(interval, page)`
    /// entries, ascending by interval. Grown by a writer's first publish.
    by_writer: Vec<Vec<(u32, PageId)>>,
    /// Per registered page, indexed by id: each writer of the page with
    /// the intervals it wrote the page in, ascending by writer and by
    /// interval. Sized by [`NoticeLog::register_page`], never by a
    /// message.
    by_page: Vec<Vec<(ProcId, Vec<u32>)>>,
}

impl NoticeLog {
    /// Register an allocated `page`, sizing the per-page table to hold it.
    /// Every node registers every page, so a repeat changes nothing.
    pub(crate) fn register_page(&self, page: PageId) {
        let by_page = &mut self.tables.borrow_mut().by_page;
        let idx = page.0 as usize;
        if idx >= by_page.len() {
            by_page.resize_with(idx + 1, Vec::new);
        }
    }

    /// The number of registered pages: the allocated segment. A page id
    /// at or past it names no page a node can hold.
    pub(crate) fn segment_pages(&self) -> usize {
        self.tables.borrow().by_page.len()
    }

    /// Publish that `writer` wrote `page` in `interval`, which is newer
    /// than every interval `writer` published before; each page appears
    /// once per interval. A page past the segment is not published.
    pub(crate) fn publish_write(&self, writer: ProcId, interval: u32, page: PageId) {
        let mut tables = self.tables.borrow_mut();
        let Tables { by_writer, by_page } = &mut *tables;
        let Some(writers) = by_page.get_mut(page.0 as usize) else {
            return;
        };
        let w = writer.0 as usize;
        if w >= by_writer.len() {
            by_writer.resize_with(w + 1, Vec::new);
        }
        let entries = &mut by_writer[w];
        debug_assert!(entries.last().is_none_or(|&(i, _)| i <= interval));
        entries.push((interval, page));
        match writers.binary_search_by_key(&writer, |(w, _)| *w) {
            Ok(k) => writers[k].1.push(interval),
            Err(k) => writers.insert(k, (writer, vec![interval])),
        }
    }

    /// Append `writer`'s notices with an interval in `floor + 1 ..= ceil`
    /// to `out`, ascending by interval.
    pub fn writer_notices_through(
        &self,
        writer: ProcId,
        floor: u32,
        ceil: u32,
        out: &mut Vec<WriteNotice>,
    ) {
        let tables = self.tables.borrow();
        let Some(entries) = tables.by_writer.get(writer.0 as usize) else {
            return;
        };
        let start = entries.partition_point(|&(i, _)| i <= floor);
        out.extend(
            entries
                .iter()
                .skip(start)
                .take_while(|&&(i, _)| i <= ceil)
                .map(|&(interval, page)| WriteNotice {
                    writer,
                    interval,
                    page,
                }),
        );
    }

    /// The highest interval up to `ceil` in which `writer` wrote `page`
    /// (0: none).
    pub(crate) fn last_write_through(&self, page: PageId, writer: ProcId, ceil: u32) -> u32 {
        let tables = self.tables.borrow();
        let Some(writers) = tables.by_page.get(page.0 as usize) else {
            return 0;
        };
        writers
            .binary_search_by_key(&writer, |(w, _)| *w)
            .map_or(0, |k| latest_through(&writers[k].1, ceil))
    }

    /// The writers of `page` seen through the clock `vc`, each with the
    /// highest interval up to its `vc` component in which it wrote the
    /// page, ascending by id. Writers whose every write of the page lies
    /// past `vc` are left out.
    pub(crate) fn page_writers_through(&self, page: PageId, vc: &VClock) -> Vec<(ProcId, u32)> {
        let tables = self.tables.borrow();
        let Some(writers) = tables.by_page.get(page.0 as usize) else {
            return Vec::new();
        };
        writers
            .iter()
            .map(|(w, intervals)| (*w, latest_through(intervals, vc.get(*w))))
            .filter(|&(_, i)| i > 0)
            .collect()
    }
}

/// The last of the ascending `intervals` that is at most `ceil` (0: none).
fn latest_through(intervals: &[u32], ceil: u32) -> u32 {
    let k = intervals.partition_point(|&i| i <= ceil);
    k.checked_sub(1).map_or(0, |k| intervals[k])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(writer: u32, interval: u32, page: u32) -> WriteNotice {
        WriteNotice {
            writer: ProcId(writer),
            interval,
            page: PageId(page),
        }
    }

    #[test]
    fn reads_stop_at_the_clock() {
        let log = NoticeLog::default();
        for p in 0..3 {
            log.register_page(PageId(p));
        }
        log.publish_write(ProcId(2), 1, PageId(0));
        log.publish_write(ProcId(2), 1, PageId(1));
        log.publish_write(ProcId(2), 3, PageId(0));
        log.publish_write(ProcId(1), 2, PageId(0));
        let mut out = Vec::new();
        log.writer_notices_through(ProcId(2), 0, 2, &mut out);
        assert_eq!(out, [write(2, 1, 0), write(2, 1, 1)]);
        out.clear();
        log.writer_notices_through(ProcId(2), 1, u32::MAX, &mut out);
        assert_eq!(out, [write(2, 3, 0)]);
        assert_eq!(log.last_write_through(PageId(0), ProcId(2), 2), 1);
        assert_eq!(log.last_write_through(PageId(0), ProcId(2), 3), 3);
        assert_eq!(log.last_write_through(PageId(0), ProcId(2), 0), 0);
        assert_eq!(log.last_write_through(PageId(2), ProcId(2), 9), 0);
        assert_eq!(
            log.page_writers_through(PageId(0), &VClock(vec![0, 2, 2, 0])),
            [(ProcId(1), 2), (ProcId(2), 1)]
        );
        assert_eq!(
            log.page_writers_through(PageId(0), &VClock(vec![0, 1, 9, 0])),
            [(ProcId(2), 3)]
        );
        assert_eq!(log.page_writers_through(PageId(9), &VClock::zero(4)), []);
    }
}
