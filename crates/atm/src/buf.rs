//! Reference-counted PDU buffers: the zero-copy spine of the cell path.
//!
//! A [`PduBuf`] is a cheaply cloneable view (offset + length) into shared,
//! immutable backing storage. Segmentation builds one PDU image and hands
//! each cell a *view* of it; reassembly accumulates into a buffer drawn
//! from a [`BufPool`] and freezes it into a `PduBuf` without copying. On
//! transmit the one byte copy is building the padded PDU image. On receive
//! it is gathering the cell payloads, and a [`crate::CellTrain`] whose
//! cells all arrived intact skips even that: its image is checked and
//! delivered in place, and only a damaged train is gathered.
//!
//! Fault injection keeps its copy-on-write discipline through
//! [`PduBuf::xor_bit`]: flipping a bit in one cell's payload materialises a
//! private copy of *that view only*; every other cell keeps sharing the
//! original storage.
//!
//! The view/split methods (`view`, `chunks`, `xor_bit`) are on the
//! protocol receive path and therefore inside cni-lint rule P1's scope: no
//! panicking slice indexing — out-of-range requests return `None` or
//! saturate, they never bring the simulation down.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply cloneable, reference-counted byte buffer view.
///
/// Cloning shares the backing storage and costs one atomic increment;
/// [`PduBuf::view`] produces sub-views without copying. Equality and
/// hashing follow the viewed bytes, not the storage identity.
#[derive(Clone, Default)]
pub struct PduBuf {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl PduBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        PduBuf::default()
    }

    /// Take ownership of `v` as backing storage. No bytes are copied: the
    /// vector moves behind the reference count as-is.
    pub fn from_vec(v: Vec<u8>) -> Self {
        let end = v.len();
        PduBuf {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }

    /// Copy `data` into fresh backing storage.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        PduBuf::from_vec(data.to_vec())
    }

    /// Length of this view in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the view covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        // The constructors uphold start <= end <= data.len(); `get` keeps
        // this panic-free even if that invariant were ever broken.
        self.data.get(self.start..self.end).unwrap_or(&[])
    }

    /// A sub-view of `len` bytes starting at `offset` (relative to this
    /// view). Shares storage — no copy. Returns `None` when the requested
    /// range does not fit inside this view.
    pub fn view(&self, offset: usize, len: usize) -> Option<PduBuf> {
        let start = self.start.checked_add(offset)?;
        let end = start.checked_add(len)?;
        if end > self.end {
            return None;
        }
        Some(PduBuf {
            data: Arc::clone(&self.data),
            start,
            end,
        })
    }

    /// Split the view into consecutive chunks of `chunk` bytes (the last
    /// chunk may be shorter). Each chunk shares storage with `self`.
    /// An empty iterator when `chunk` is zero.
    pub fn chunks(&self, chunk: usize) -> impl Iterator<Item = PduBuf> + '_ {
        let n = if chunk == 0 {
            0
        } else {
            self.len().div_ceil(chunk)
        };
        (0..n).filter_map(move |i| {
            let off = i * chunk;
            self.view(off, chunk.min(self.len() - off))
        })
    }

    /// Flip bit `bit & 7` of the byte at `byte` (clamped to the last byte
    /// of the view; a no-op on an empty view), copying this view's bytes
    /// into private storage first if the backing is shared.
    ///
    /// This is the fault injector's corruption primitive: only the cell
    /// views a `FaultPlan` actually corrupts pay for a copy.
    pub fn xor_bit(&mut self, byte: usize, bit: u8) {
        if self.is_empty() {
            return;
        }
        let idx = byte.min(self.len() - 1);
        let mut v = self.as_slice().to_vec();
        if let Some(b) = v.get_mut(idx) {
            *b ^= 1 << (bit & 7);
        }
        *self = PduBuf::from_vec(v);
    }

    /// Recover the backing vector when this handle is the storage's sole
    /// owner (even a partial view — the storage is unreachable by anyone
    /// else, and the pool clears it before reuse). A shared buffer is
    /// returned unchanged. Used by [`BufPool::recycle`] to reclaim storage
    /// without copying.
    fn into_storage(self) -> Result<Vec<u8>, PduBuf> {
        match Arc::try_unwrap(self.data) {
            Ok(v) => Ok(v),
            Err(data) => Err(PduBuf {
                data,
                start: self.start,
                end: self.end,
            }),
        }
    }
}

impl Deref for PduBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for PduBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for PduBuf {
    fn from(v: Vec<u8>) -> Self {
        PduBuf::from_vec(v)
    }
}

impl PartialEq for PduBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for PduBuf {}

impl PartialEq<[u8]> for PduBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl Hash for PduBuf {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl fmt::Debug for PduBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PduBuf({} bytes @ {}..{})",
            self.len(),
            self.start,
            self.end
        )
    }
}

/// A freelist of reusable byte buffers for the reassembly path.
///
/// Reassembly needs one growable buffer per in-flight PDU; without a pool
/// every frame pays a heap allocation (and, under retransmission storms,
/// one per attempt). The pool retains up to a configurable number of
/// vectors — the *buffer-pool knob*, see DESIGN.md §4.1 — and hands them
/// back cleared but with their capacity intact.
#[derive(Debug)]
pub struct BufPool {
    free: Vec<Vec<u8>>,
    retain: usize,
}

impl Default for BufPool {
    fn default() -> Self {
        BufPool::new()
    }
}

impl BufPool {
    /// Default maximum number of retained buffers.
    pub const DEFAULT_RETAIN: usize = 32;

    /// A pool retaining up to [`BufPool::DEFAULT_RETAIN`] buffers.
    pub fn new() -> Self {
        BufPool::with_retain(Self::DEFAULT_RETAIN)
    }

    /// A pool retaining up to `retain` buffers (0 disables pooling).
    pub fn with_retain(retain: usize) -> Self {
        BufPool {
            free: Vec::new(),
            retain,
        }
    }

    /// An empty buffer with at least `capacity` bytes reserved, reusing
    /// retained storage when available.
    pub fn acquire(&mut self, capacity: usize) -> Vec<u8> {
        let mut v = self.free.pop().unwrap_or_default();
        v.clear();
        v.reserve(capacity.saturating_sub(v.capacity()));
        v
    }

    /// Return a vector's storage to the pool.
    pub fn recycle_vec(&mut self, v: Vec<u8>) {
        if self.free.len() < self.retain && v.capacity() > 0 {
            self.free.push(v);
        }
    }

    /// Reclaim a [`PduBuf`]'s storage if `buf` is its sole owner (a shared
    /// or partial view is simply dropped).
    pub fn recycle(&mut self, buf: PduBuf) {
        if let Ok(v) = buf.into_storage() {
            self.recycle_vec(v);
        }
    }

    /// Number of buffers currently retained.
    pub fn retained(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_does_not_copy_and_views_share() {
        let buf = PduBuf::from_vec((0..100u8).collect());
        assert_eq!(buf.len(), 100);
        let v = buf.view(10, 20).expect("in range");
        assert_eq!(&v[..], &(10..30).collect::<Vec<u8>>()[..]);
        // A view of a view composes offsets.
        let vv = v.view(5, 5).expect("in range");
        assert_eq!(&vv[..], &[15, 16, 17, 18, 19]);
    }

    #[test]
    fn out_of_range_views_are_none_not_panics() {
        let buf = PduBuf::from_vec(vec![0u8; 8]);
        assert!(buf.view(0, 9).is_none());
        assert!(buf.view(9, 0).is_none());
        assert!(buf.view(usize::MAX, 1).is_none());
        assert!(buf.view(1, usize::MAX).is_none());
        assert_eq!(buf.view(8, 0).expect("empty tail view").len(), 0);
    }

    #[test]
    fn chunks_cover_exactly_once() {
        let buf = PduBuf::from_vec((0..100u8).collect());
        let chunks: Vec<PduBuf> = buf.chunks(48).collect();
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].len(), 48);
        assert_eq!(chunks[1].len(), 48);
        assert_eq!(chunks[2].len(), 4);
        let glued: Vec<u8> = chunks.iter().flat_map(|c| c.iter().copied()).collect();
        assert_eq!(glued, (0..100u8).collect::<Vec<u8>>());
        assert_eq!(buf.chunks(0).count(), 0);
    }

    #[test]
    fn xor_bit_is_cow() {
        let buf = PduBuf::from_vec(vec![0u8; 48]);
        let mut corrupted = buf.view(0, 48).expect("full view");
        corrupted.xor_bit(3, 10); // bit 10 & 7 == 2
        assert_eq!(corrupted[3], 1 << 2);
        // Original storage untouched.
        assert_eq!(buf[3], 0);
        // Clamping: byte index past the end hits the last byte.
        let mut tail = PduBuf::from_vec(vec![0u8; 4]);
        tail.xor_bit(999, 0);
        assert_eq!(tail[3], 1);
        // Empty views ignore corruption.
        let mut empty = PduBuf::new();
        empty.xor_bit(0, 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn pool_reuses_storage() {
        let mut pool = BufPool::with_retain(2);
        let mut v = pool.acquire(1024);
        assert!(v.capacity() >= 1024);
        v.extend_from_slice(&[1, 2, 3]);
        let cap = v.capacity();
        pool.recycle_vec(v);
        assert_eq!(pool.retained(), 1);
        let v2 = pool.acquire(16);
        assert!(v2.is_empty());
        assert_eq!(v2.capacity(), cap);
        assert_eq!(pool.retained(), 0);
    }

    #[test]
    fn pool_recycles_sole_owner_pdubufs_only() {
        let mut pool = BufPool::with_retain(4);
        let buf = PduBuf::from_vec(vec![0u8; 64]);
        let clone = buf.clone();
        pool.recycle(buf); // shared: dropped, not retained
        assert_eq!(pool.retained(), 0);
        pool.recycle(clone); // now sole owner
        assert_eq!(pool.retained(), 1);
        // A partial view that is the last owner still donates its storage:
        // nothing else can reach the buffer once the Arc count hits one.
        let buf = PduBuf::from_vec(vec![0u8; 64]);
        let part = buf.view(0, 10).expect("in range");
        drop(buf);
        pool.recycle(part);
        assert_eq!(pool.retained(), 2);
    }

    #[test]
    fn retain_limit_is_enforced() {
        let mut pool = BufPool::with_retain(1);
        pool.recycle_vec(Vec::with_capacity(8));
        pool.recycle_vec(Vec::with_capacity(8));
        assert_eq!(pool.retained(), 1);
        let mut off = BufPool::with_retain(0);
        off.recycle_vec(Vec::with_capacity(8));
        assert_eq!(off.retained(), 0);
    }
}
