//! Fixed-size pages over a crashable in-memory file.
//!
//! This is the bottom of the engine tier (see `docs/ARCHITECTURE.md`):
//! everything the B+Tree ([`crate::btree`]) and WAL ([`crate::wal`])
//! touch is a [`PAGE_SIZE`]-byte page with a checksummed header, owned by
//! a [`Pager`] over a [`SimFile`].
//!
//! # Crash model
//!
//! [`SimFile`] keeps two buffers: `current` (what writes land in) and
//! `durable` (what survives a crash). [`SimFile::sync`] copies current →
//! durable; [`SimFile::crash`] copies durable → current. That gives the
//! engine a deterministic, timing-free crash: anything written since the
//! last successful sync vanishes, nothing else does. Fault injection
//! ([`FaultPlan::roll_page_write`](crate::FaultPlan::roll_page_write) /
//! [`roll_fsync`](crate::FaultPlan::roll_fsync)) decides *which* writes
//! and syncs fail; this module only models what a failure destroys.
//!
//! # Page format
//!
//! ```text
//! [ checksum u64 | lsn u64 | page_type u8 | 7 reserved ]  24-byte header
//! [ payload — PAYLOAD_SIZE bytes ]
//! ```
//!
//! The checksum is FNV-1a over `(lsn, page_type, payload)`; it is filled
//! in when a page is *sealed* (at WAL append / checkpoint time) and
//! verified whenever a page is faulted in from the data file, so a torn
//! or bit-rotted page surfaces as [`StorageError::Corrupt`] instead of
//! silent garbage.
//!
//! Free pages form an intrusive freelist: the first 4 payload bytes of a
//! free page hold the next free page id. The freelist head and the page
//! count are *not* owned here — they are engine state, serialized into
//! the meta page so allocation survives crash/recovery atomically with
//! the catalog (see [`crate::engine`]).

use crate::StorageError;

/// Size of one page, header included.
pub const PAGE_SIZE: usize = 4096;
/// Bytes of header before the payload.
pub const HEADER_SIZE: usize = 24;
/// Usable payload bytes per page.
pub const PAYLOAD_SIZE: usize = PAGE_SIZE - HEADER_SIZE;
/// Sentinel "no page" id (freelist terminator, no next leaf, …).
pub const NO_PAGE: u32 = u32::MAX;

/// Page types stored in the header (byte 16).
pub mod page_type {
    /// Free page (on the freelist).
    pub const FREE: u8 = 0;
    /// The engine meta page (always page 0).
    pub const META: u8 = 1;
    /// B+Tree leaf.
    pub const LEAF: u8 = 2;
    /// B+Tree branch (internal node).
    pub const BRANCH: u8 = 3;
    /// Online-build side-log page.
    pub const SIDELOG: u8 = 4;
}

/// FNV-1a over a byte slice; the page and WAL checksum primitive.
pub use autoindex_support::hash::fnv1a;

/// An in-memory file with explicit durability: writes land in `current`,
/// [`sync`](SimFile::sync) makes them durable, [`crash`](SimFile::crash)
/// rolls `current` back to the last durable state.
#[derive(Debug, Default)]
pub struct SimFile {
    current: Vec<u8>,
    durable: Vec<u8>,
}

impl SimFile {
    /// An empty file (both buffers empty).
    pub fn new() -> Self {
        SimFile::default()
    }

    /// Length of the writable image.
    pub fn len(&self) -> usize {
        self.current.len()
    }

    /// Whether the writable image is empty.
    pub fn is_empty(&self) -> bool {
        self.current.is_empty()
    }

    /// Length of the durable image (what a crash rolls back to).
    pub fn durable_len(&self) -> usize {
        self.durable.len()
    }

    /// Write `bytes` at `offset`, growing the file with zeroes if needed.
    pub fn write_at(&mut self, offset: usize, bytes: &[u8]) {
        let end = offset + bytes.len();
        if self.current.len() < end {
            self.current.resize(end, 0);
        }
        self.current[offset..end].copy_from_slice(bytes);
    }

    /// Append `bytes` at the end of the file; returns the write offset.
    pub fn append(&mut self, bytes: &[u8]) -> usize {
        let off = self.current.len();
        self.current.extend_from_slice(bytes);
        off
    }

    /// Read `len` bytes at `offset`; errors if the range is out of bounds.
    pub fn read_at(&self, offset: usize, len: usize) -> Result<&[u8], StorageError> {
        self.current
            .get(offset..offset + len)
            .ok_or_else(|| StorageError::Corrupt(format!("read past EOF at {offset}+{len}")))
    }

    /// Truncate the writable image to `len` bytes.
    pub fn truncate(&mut self, len: usize) {
        self.current.truncate(len);
    }

    /// Durability barrier: everything written so far survives a crash.
    pub fn sync(&mut self) {
        self.durable = self.current.clone();
    }

    /// Simulated crash: the writable image reverts to the last synced
    /// state. Deterministic — no timing, no partial sectors.
    pub fn crash(&mut self) {
        self.current = self.durable.clone();
    }
}

/// Counters the pager accumulates for the obs layer; drained by the
/// engine into `storage.btree.*` / `storage.wal.*` metrics.
#[derive(Debug, Default, Clone, Copy)]
pub struct PagerStats {
    /// Pages faulted in from the data file (checksum-verified).
    pub page_reads: u64,
    /// Pages written back to the data file at checkpoints.
    pub page_writes: u64,
    /// Pages allocated (fresh or off the freelist).
    pub allocs: u64,
    /// Pages returned to the freelist.
    pub frees: u64,
}

/// A page cache + freelist allocator over a [`SimFile`].
///
/// All reads and writes go through the cache; the data file is only
/// touched when faulting a page in on a cold read or flushing at a
/// checkpoint ([`Pager::write_back`]). The cache never evicts — the
/// engine's working sets are bounded by the simulation — so a crash is
/// modelled as dropping the whole cache ([`Pager::clear_cache`]) plus
/// [`SimFile::crash`].
#[derive(Debug)]
pub struct Pager {
    file: SimFile,
    cache: std::collections::BTreeMap<u32, Vec<u8>>,
    dirty: std::collections::BTreeSet<u32>,
    /// Next never-allocated page id; persisted via the engine meta page.
    page_count: u32,
    /// Head of the intrusive freelist; persisted via the engine meta page.
    free_head: u32,
    /// Running stats for the obs layer.
    pub stats: PagerStats,
}

impl Pager {
    /// A pager over a fresh, empty file.
    pub fn new() -> Self {
        Pager {
            file: SimFile::new(),
            cache: std::collections::BTreeMap::new(),
            dirty: std::collections::BTreeSet::new(),
            page_count: 0,
            free_head: NO_PAGE,
            stats: PagerStats::default(),
        }
    }

    /// The underlying file (for crash / sync orchestration by the engine).
    pub fn file_mut(&mut self) -> &mut SimFile {
        &mut self.file
    }

    /// Allocation state `(page_count, free_head)` — serialized into the
    /// engine meta page so it is crash-atomic with the catalog.
    pub fn alloc_state(&self) -> (u32, u32) {
        (self.page_count, self.free_head)
    }

    /// Restore allocation state after recovery.
    pub fn set_alloc_state(&mut self, page_count: u32, free_head: u32) {
        self.page_count = page_count;
        self.free_head = free_head;
    }

    /// Pages ever allocated (including freed ones).
    pub fn page_count(&self) -> u32 {
        self.page_count
    }

    /// Allocate a page of `ptype`, reusing the freelist head if any.
    /// The page arrives zeroed (payload) and dirty.
    pub fn alloc(&mut self, ptype: u8) -> Result<u32, StorageError> {
        self.stats.allocs += 1;
        let id = if self.free_head != NO_PAGE {
            let id = self.free_head;
            let next = {
                let p = self.payload(id)?;
                u32::from_le_bytes([p[0], p[1], p[2], p[3]])
            };
            self.free_head = next;
            id
        } else {
            let id = self.page_count;
            if id == NO_PAGE {
                return Err(StorageError::Corrupt("page id space exhausted".into()));
            }
            self.page_count += 1;
            id
        };
        let page = vec![0u8; PAGE_SIZE];
        self.cache.insert(id, page);
        self.set_type(id, ptype);
        self.dirty.insert(id);
        Ok(id)
    }

    /// Return a page to the freelist (intrusive: next pointer in payload).
    pub fn free(&mut self, id: u32) -> Result<(), StorageError> {
        self.stats.frees += 1;
        let head = self.free_head;
        {
            let p = self.payload_mut(id)?;
            p[..4].copy_from_slice(&head.to_le_bytes());
        }
        self.set_type(id, page_type::FREE);
        self.free_head = id;
        Ok(())
    }

    /// Full page bytes, faulting in from the data file (with checksum
    /// verification) on a cache miss.
    fn page(&mut self, id: u32) -> Result<&mut Vec<u8>, StorageError> {
        if !self.cache.contains_key(&id) {
            let off = id as usize * PAGE_SIZE;
            let bytes = self.file.read_at(off, PAGE_SIZE)?.to_vec();
            verify_checksum(id, &bytes)?;
            self.stats.page_reads += 1;
            self.cache.insert(id, bytes);
        }
        Ok(self.cache.get_mut(&id).expect("just inserted"))
    }

    /// Read-only payload of page `id`.
    pub fn payload(&mut self, id: u32) -> Result<&[u8], StorageError> {
        Ok(&self.page(id)?[HEADER_SIZE..])
    }

    /// Mutable payload of page `id`; marks the page dirty.
    pub fn payload_mut(&mut self, id: u32) -> Result<&mut [u8], StorageError> {
        self.dirty.insert(id);
        Ok(&mut self.page(id)?[HEADER_SIZE..])
    }

    /// Page type from the header.
    pub fn page_type(&mut self, id: u32) -> Result<u8, StorageError> {
        Ok(self.page(id)?[16])
    }

    fn set_type(&mut self, id: u32, ptype: u8) {
        if let Some(p) = self.cache.get_mut(&id) {
            p[16] = ptype;
        }
    }

    /// Seal every dirty page at `lsn` (fill header lsn + checksum) and
    /// return the `(id, full page bytes)` images, clearing the dirty set.
    /// The engine appends these to the WAL before committing.
    pub fn seal_dirty(&mut self, lsn: u64) -> Vec<(u32, Vec<u8>)> {
        let ids: Vec<u32> = std::mem::take(&mut self.dirty).into_iter().collect();
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            let page = self.cache.get_mut(&id).expect("dirty page must be cached");
            page[8..16].copy_from_slice(&lsn.to_le_bytes());
            let sum = page_checksum(page);
            page[0..8].copy_from_slice(&sum.to_le_bytes());
            out.push((id, page.clone()));
        }
        out
    }

    /// Install a full page image (WAL replay); the page becomes dirty so
    /// the next checkpoint persists it to the data file.
    pub fn install(&mut self, id: u32, bytes: Vec<u8>) -> Result<(), StorageError> {
        if bytes.len() != PAGE_SIZE {
            return Err(StorageError::Corrupt(format!(
                "page image for {id} is {} bytes",
                bytes.len()
            )));
        }
        verify_checksum(id, &bytes)?;
        self.cache.insert(id, bytes);
        self.dirty.insert(id);
        Ok(())
    }

    /// Checkpoint flush: write every cached page back to the data file.
    /// Returns the ids written (for per-page fault rolls the engine does
    /// *before* calling this, and for `storage.wal.checkpoint_pages`).
    pub fn write_back(&mut self) -> Vec<u32> {
        // Seal first so the on-file image always carries a valid checksum.
        let _ = self.seal_dirty(0).len();
        let ids: Vec<u32> = self.cache.keys().copied().collect();
        for &id in &ids {
            let bytes = self.cache.get(&id).expect("listed from cache").clone();
            self.file.write_at(id as usize * PAGE_SIZE, &bytes);
            self.stats.page_writes += 1;
        }
        ids
    }

    /// Whether any page is dirty (unsealed since the last seal).
    pub fn has_dirty(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// Drop the page cache (crash path; pair with [`SimFile::crash`]).
    pub fn clear_cache(&mut self) {
        self.cache.clear();
        self.dirty.clear();
    }
}

impl Default for Pager {
    fn default() -> Self {
        Pager::new()
    }
}

/// Checksum of a full page: FNV-1a over everything after the checksum
/// field itself (lsn, type, reserved, payload).
pub fn page_checksum(page: &[u8]) -> u64 {
    fnv1a(&page[8..])
}

fn verify_checksum(id: u32, bytes: &[u8]) -> Result<(), StorageError> {
    let stored = u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes"));
    let actual = page_checksum(bytes);
    if stored != actual {
        return Err(StorageError::Corrupt(format!(
            "checksum mismatch on page {id}: stored {stored:#x}, computed {actual:#x}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simfile_crash_reverts_to_last_sync() {
        let mut f = SimFile::new();
        f.append(b"durable");
        f.sync();
        f.append(b" lost");
        assert_eq!(f.len(), 12);
        f.crash();
        assert_eq!(f.len(), 7);
        assert_eq!(f.read_at(0, 7).unwrap(), b"durable");
        // A second crash without writes is idempotent.
        f.crash();
        assert_eq!(f.len(), 7);
    }

    #[test]
    fn alloc_free_reuses_pages() {
        let mut p = Pager::new();
        let a = p.alloc(page_type::LEAF).unwrap();
        let b = p.alloc(page_type::LEAF).unwrap();
        assert_eq!((a, b), (0, 1));
        p.free(a).unwrap();
        let c = p.alloc(page_type::BRANCH).unwrap();
        assert_eq!(c, a, "freelist head is reused first");
        assert_eq!(p.page_count(), 2);
        assert_eq!(p.page_type(c).unwrap(), page_type::BRANCH);
    }

    #[test]
    fn checksums_catch_corruption() {
        let mut p = Pager::new();
        let id = p.alloc(page_type::LEAF).unwrap();
        p.payload_mut(id).unwrap()[0] = 42;
        p.seal_dirty(7);
        p.write_back();
        p.file_mut().sync();
        // Flip a payload byte on disk; the next cold read must fail.
        let off = id as usize * PAGE_SIZE + HEADER_SIZE;
        p.file_mut().write_at(off, &[43]);
        p.clear_cache();
        let err = p.payload(id).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
    }

    #[test]
    fn sealed_images_round_trip_through_install() {
        let mut p = Pager::new();
        let id = p.alloc(page_type::SIDELOG).unwrap();
        p.payload_mut(id).unwrap()[..4].copy_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        let images = p.seal_dirty(3);
        assert_eq!(images.len(), 1);
        let (iid, bytes) = images.into_iter().next().unwrap();
        assert_eq!(iid, id);
        let mut q = Pager::new();
        q.set_alloc_state(1, NO_PAGE);
        q.install(id, bytes).unwrap();
        assert_eq!(&q.payload(id).unwrap()[..4], &0xDEAD_BEEFu32.to_le_bytes());
    }
}
