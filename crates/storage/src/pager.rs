//! The page arena under the reference B+Tree ([`crate::btree`]).
//!
//! Pages live in memory, addressed by a dense `u32` id; each has a type
//! byte and a [`PAYLOAD_SIZE`]-byte payload. Nothing is durable or
//! checksummed: the arena exists so the tree the planner's assumptions are
//! tested against splits and merges at realistic 4 KiB node capacities.
//!
//! Free pages form an intrusive freelist: the first 4 payload bytes of a
//! free page hold the next free page id. Reading a page id that was never
//! allocated is [`StorageError::Corrupt`]; the tree relies on that when it
//! follows a bad child pointer.

use crate::StorageError;

/// Usable payload bytes per page: a 4 KiB page less the 24 bytes a disk
/// format would spend on its header, so node capacities stay realistic.
pub const PAYLOAD_SIZE: usize = 4096 - 24;
/// Sentinel "no page" id (freelist terminator, no next leaf, …).
pub const NO_PAGE: u32 = u32::MAX;

/// Page types.
pub mod page_type {
    /// Free page (on the freelist).
    pub const FREE: u8 = 0;
    /// B+Tree leaf.
    pub const LEAF: u8 = 2;
    /// B+Tree branch (internal node).
    pub const BRANCH: u8 = 3;
}

#[derive(Debug)]
struct Page {
    ptype: u8,
    payload: Vec<u8>,
}

/// An in-memory page arena with a freelist allocator.
#[derive(Debug)]
pub struct Pager {
    /// Every page ever allocated, indexed by id (freed ones included).
    pages: Vec<Page>,
    /// Head of the intrusive freelist.
    free_head: u32,
}

impl Pager {
    /// An empty arena.
    pub fn new() -> Self {
        Pager {
            pages: Vec::new(),
            free_head: NO_PAGE,
        }
    }

    /// Pages ever allocated (including freed ones).
    pub fn page_count(&self) -> u32 {
        self.pages.len() as u32
    }

    /// Allocate a page of `ptype`, reusing the freelist head if any.
    /// The payload arrives zeroed.
    pub fn alloc(&mut self, ptype: u8) -> Result<u32, StorageError> {
        if self.free_head != NO_PAGE {
            let id = self.free_head;
            let page = self.page_mut(id)?;
            let p = &mut page.payload;
            let next = u32::from_le_bytes([p[0], p[1], p[2], p[3]]);
            p.fill(0);
            page.ptype = ptype;
            self.free_head = next;
            return Ok(id);
        }
        let id = self.page_count();
        if id == NO_PAGE {
            return Err(StorageError::Corrupt("page id space exhausted".into()));
        }
        self.pages.push(Page {
            ptype,
            payload: vec![0u8; PAYLOAD_SIZE],
        });
        Ok(id)
    }

    /// Return a page to the freelist (intrusive: next pointer in payload).
    pub fn free(&mut self, id: u32) -> Result<(), StorageError> {
        let head = self.free_head;
        let page = self.page_mut(id)?;
        page.payload[..4].copy_from_slice(&head.to_le_bytes());
        page.ptype = page_type::FREE;
        self.free_head = id;
        Ok(())
    }

    fn page(&self, id: u32) -> Result<&Page, StorageError> {
        self.pages.get(id as usize).ok_or_else(|| unallocated(id))
    }

    fn page_mut(&mut self, id: u32) -> Result<&mut Page, StorageError> {
        self.pages
            .get_mut(id as usize)
            .ok_or_else(|| unallocated(id))
    }

    /// Read-only payload of page `id`.
    pub fn payload(&self, id: u32) -> Result<&[u8], StorageError> {
        Ok(&self.page(id)?.payload)
    }

    /// Mutable payload of page `id`.
    pub fn payload_mut(&mut self, id: u32) -> Result<&mut [u8], StorageError> {
        Ok(&mut self.page_mut(id)?.payload)
    }

    /// Type of page `id`.
    pub fn page_type(&self, id: u32) -> Result<u8, StorageError> {
        Ok(self.page(id)?.ptype)
    }
}

fn unallocated(id: u32) -> StorageError {
    StorageError::Corrupt(format!("page {id} was never allocated"))
}

impl Default for Pager {
    fn default() -> Self {
        Pager::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn never_allocated_ids_read_as_corrupt() {
        let mut p = Pager::new();
        let id = p.alloc(page_type::LEAF).unwrap();
        for bad in [id + 1, NO_PAGE] {
            assert!(matches!(p.payload(bad), Err(StorageError::Corrupt(_))));
            assert!(matches!(p.page_type(bad), Err(StorageError::Corrupt(_))));
            assert!(matches!(p.payload_mut(bad), Err(StorageError::Corrupt(_))));
            assert!(matches!(p.free(bad), Err(StorageError::Corrupt(_))));
        }
    }
}
