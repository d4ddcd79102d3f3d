//! A heap file of slotted pages, with fragment chains for large records.
//!
//! Records up to [`crate::page::MAX_IN_PAGE`] minus the fragment header fit
//! in one page; larger records are split into fragments linked by
//! `(next_page, next_slot)` pointers stored in each fragment's header.
//!
//! Fragment layout: `[total_remaining: u32][next_page: u32][next_slot: u16][data...]`
//! where `next_page == u32::MAX` terminates the chain.

use crate::error::{Result, StorageError};
use crate::page::{Page, MAX_IN_PAGE};

/// Fragment header size.
const FRAG_HEADER: usize = 10;
/// Chain terminator.
const NO_PAGE: u32 = u32::MAX;
/// Maximum data bytes per fragment.
pub const FRAG_DATA: usize = MAX_IN_PAGE - FRAG_HEADER;

/// Address of a record in the heap (its first fragment).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RecordId {
    /// Page number of the first fragment.
    pub page: u32,
    /// Slot within that page.
    pub slot: u16,
}

/// An in-memory heap file (persisted wholesale by snapshots).
#[derive(Default)]
pub struct HeapFile {
    pages: Vec<Page>,
}

impl HeapFile {
    /// An empty heap.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pages.
    #[must_use]
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Total byte footprint of the heap.
    #[must_use]
    pub fn byte_size(&self) -> usize {
        self.pages.len() * crate::page::PAGE_SIZE
    }

    /// Find a page with at least `need` free bytes, or append a new one.
    fn page_with_space(&mut self, need: usize) -> u32 {
        // Check the last few pages only: classic "append-mostly" heuristic
        // that avoids O(pages) scans on every insert.
        let start = self.pages.len().saturating_sub(4);
        for i in start..self.pages.len() {
            if self.pages[i].free_space() >= need {
                return i as u32;
            }
        }
        self.pages.push(Page::new());
        (self.pages.len() - 1) as u32
    }

    /// Insert a record of any size, returning its id.
    ///
    /// # Errors
    /// Propagates page-level errors (should not occur — sizes are checked).
    pub fn insert(&mut self, data: &[u8]) -> Result<RecordId> {
        // Build fragments back-to-front so each knows its successor.
        let mut chunks: Vec<&[u8]> = data.chunks(FRAG_DATA).collect();
        if chunks.is_empty() {
            chunks.push(&[]);
        }
        let mut next: (u32, u16) = (NO_PAGE, 0);
        let mut remaining_after = 0u32;
        for chunk in chunks.iter().rev() {
            let mut frag = Vec::with_capacity(FRAG_HEADER + chunk.len());
            let total_remaining = remaining_after + chunk.len() as u32;
            frag.extend_from_slice(&total_remaining.to_le_bytes());
            frag.extend_from_slice(&next.0.to_le_bytes());
            frag.extend_from_slice(&next.1.to_le_bytes());
            frag.extend_from_slice(chunk);
            let page_no = self.page_with_space(frag.len());
            let slot = self.pages[page_no as usize].insert(&frag)?;
            next = (page_no, slot);
            remaining_after = total_remaining;
        }
        Ok(RecordId {
            page: next.0,
            slot: next.1,
        })
    }

    /// Read a whole record by id.
    ///
    /// # Errors
    /// [`StorageError::RecordNotFound`] for dangling ids;
    /// [`StorageError::Corrupt`] if a fragment chain is inconsistent.
    pub fn get(&self, id: RecordId) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        let mut cur = (id.page, id.slot);
        let mut expected: Option<u32> = None;
        loop {
            let page = self
                .pages
                .get(cur.0 as usize)
                .ok_or(StorageError::RecordNotFound)?;
            let frag = page.get(cur.1)?;
            if frag.len() < FRAG_HEADER {
                return Err(StorageError::Corrupt {
                    what: "fragment",
                    detail: format!("fragment shorter than header: {}", frag.len()),
                });
            }
            let total_remaining = u32::from_le_bytes(frag[0..4].try_into().expect("4 bytes"));
            if let Some(exp) = expected {
                if total_remaining != exp {
                    return Err(StorageError::Corrupt {
                        what: "fragment chain",
                        detail: format!("expected {exp} remaining, found {total_remaining}"),
                    });
                }
            }
            let next_page = u32::from_le_bytes(frag[4..8].try_into().expect("4 bytes"));
            let next_slot = u16::from_le_bytes(frag[8..10].try_into().expect("2 bytes"));
            let data = &frag[FRAG_HEADER..];
            out.extend_from_slice(data);
            if next_page == NO_PAGE {
                return Ok(out);
            }
            expected = Some(total_remaining - data.len() as u32);
            cur = (next_page, next_slot);
        }
    }

    /// Length of a whole record, read from its first fragment's header:
    /// no chain is walked and nothing is copied.
    ///
    /// # Errors
    /// As [`Self::get`] for the first fragment.
    pub fn record_len(&self, id: RecordId) -> Result<usize> {
        let page = self
            .pages
            .get(id.page as usize)
            .ok_or(StorageError::RecordNotFound)?;
        let frag = page.get(id.slot)?;
        let total = frag.get(..4).ok_or_else(|| StorageError::Corrupt {
            what: "fragment",
            detail: format!("fragment shorter than header: {}", frag.len()),
        })?;
        Ok(u32::from_le_bytes(total.try_into().expect("4 bytes")) as usize)
    }

    /// Delete a record and all its fragments.
    ///
    /// # Errors
    /// [`StorageError::RecordNotFound`] if the id is dangling.
    pub fn delete(&mut self, id: RecordId) -> Result<()> {
        let mut cur = (id.page, id.slot);
        loop {
            let page = self
                .pages
                .get(cur.0 as usize)
                .ok_or(StorageError::RecordNotFound)?;
            let frag = page.get(cur.1)?;
            let next_page = u32::from_le_bytes(frag[4..8].try_into().expect("4 bytes"));
            let next_slot = u16::from_le_bytes(frag[8..10].try_into().expect("2 bytes"));
            self.pages[cur.0 as usize].delete(cur.1)?;
            if next_page == NO_PAGE {
                return Ok(());
            }
            cur = (next_page, next_slot);
        }
    }

    /// Compact every page (reclaims tombstoned space in place).
    pub fn compact_all(&mut self) {
        for p in &mut self.pages {
            p.compact();
        }
    }

    /// Serialize all pages for a snapshot.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_size());
        for p in &self.pages {
            out.extend_from_slice(p.as_bytes());
        }
        out
    }

    /// Iterate the raw page images in order (each exactly
    /// [`crate::page::PAGE_SIZE`] bytes).
    pub fn page_images(&self) -> impl Iterator<Item = &[u8]> + '_ {
        self.pages.iter().map(|p| p.as_bytes().as_slice())
    }

    /// Stream every page into a [`crate::vfs::VfsFile`], one write per page
    /// — so a crash while a snapshot is being written tears at a page
    /// boundary at worst, and fault injection sees one crash point per
    /// page rather than one per snapshot.
    ///
    /// # Errors
    /// I/O errors from the file (including injected faults).
    pub fn write_to(&self, file: &mut dyn crate::vfs::VfsFile) -> std::io::Result<()> {
        for p in &self.pages {
            file.write_all(p.as_bytes())?;
        }
        Ok(())
    }

    /// Restore from snapshot bytes.
    ///
    /// # Errors
    /// [`StorageError::Corrupt`] on a partial page or invalid page image.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        if !bytes.len().is_multiple_of(crate::page::PAGE_SIZE) {
            return Err(StorageError::Corrupt {
                what: "heap file",
                detail: format!("length {} not page-aligned", bytes.len()),
            });
        }
        let pages = bytes
            .chunks(crate::page::PAGE_SIZE)
            .map(Page::from_bytes)
            .collect::<Result<Vec<_>>>()?;
        Ok(HeapFile { pages })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_record_round_trip() {
        let mut h = HeapFile::new();
        let id = h.insert(b"compact record").unwrap();
        assert_eq!(h.get(id).unwrap(), b"compact record");
        assert_eq!(h.page_count(), 1);
    }

    #[test]
    fn empty_record() {
        let mut h = HeapFile::new();
        let id = h.insert(b"").unwrap();
        assert_eq!(h.get(id).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn large_record_spans_pages() {
        let mut h = HeapFile::new();
        let big: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
        let id = h.insert(&big).unwrap();
        assert!(h.page_count() > 5, "expected multiple pages");
        assert_eq!(h.get(id).unwrap(), big);
    }

    #[test]
    fn exact_fragment_boundary() {
        let mut h = HeapFile::new();
        for len in [FRAG_DATA - 1, FRAG_DATA, FRAG_DATA + 1, FRAG_DATA * 2] {
            let data = vec![0x7Fu8; len];
            let id = h.insert(&data).unwrap();
            assert_eq!(h.get(id).unwrap(), data, "len {len}");
        }
    }

    #[test]
    fn record_len_is_the_whole_record_not_the_first_fragment() {
        let mut h = HeapFile::new();
        for len in [0, 14, FRAG_DATA, FRAG_DATA + 1, 50_000] {
            let id = h.insert(&vec![0x3Cu8; len]).unwrap();
            assert_eq!(h.record_len(id).unwrap(), len);
        }
        let gone = h.insert(b"gone").unwrap();
        h.delete(gone).unwrap();
        assert!(matches!(
            h.record_len(gone),
            Err(StorageError::RecordNotFound)
        ));
    }

    #[test]
    fn many_records_coexist() {
        let mut h = HeapFile::new();
        let ids: Vec<(RecordId, Vec<u8>)> = (0..500u32)
            .map(|i| {
                let data = vec![(i % 256) as u8; (i as usize * 37) % 2000 + 1];
                (h.insert(&data).unwrap(), data)
            })
            .collect();
        for (id, data) in ids {
            assert_eq!(h.get(id).unwrap(), data);
        }
    }

    #[test]
    fn delete_removes_all_fragments() {
        let mut h = HeapFile::new();
        let big = vec![0xEEu8; 40_000];
        let id = h.insert(&big).unwrap();
        h.delete(id).unwrap();
        assert!(matches!(h.get(id), Err(StorageError::RecordNotFound)));
        // All fragment slots are tombstoned.
        let live: usize = (0..h.page_count()).map(|i| h.pages[i].live_records()).sum();
        assert_eq!(live, 0);
    }

    #[test]
    fn dangling_id_is_not_found() {
        let h = HeapFile::new();
        assert!(matches!(
            h.get(RecordId { page: 3, slot: 0 }),
            Err(StorageError::RecordNotFound)
        ));
    }

    #[test]
    fn snapshot_round_trip() {
        let mut h = HeapFile::new();
        let small = h.insert(b"small").unwrap();
        let big_data = vec![9u8; 30_000];
        let big = h.insert(&big_data).unwrap();
        let bytes = h.to_bytes();
        let restored = HeapFile::from_bytes(&bytes).unwrap();
        assert_eq!(restored.get(small).unwrap(), b"small");
        assert_eq!(restored.get(big).unwrap(), big_data);
    }

    #[test]
    fn from_bytes_rejects_misaligned() {
        assert!(matches!(
            HeapFile::from_bytes(&[0u8; 100]),
            Err(StorageError::Corrupt { .. })
        ));
    }

    #[test]
    fn space_is_reused_after_delete_and_compact() {
        let mut h = HeapFile::new();
        let mut ids = Vec::new();
        for _ in 0..8 {
            ids.push(h.insert(&vec![1u8; 4000]).unwrap());
        }
        let pages_before = h.page_count();
        for id in ids {
            h.delete(id).unwrap();
        }
        h.compact_all();
        for _ in 0..8 {
            h.insert(&vec![2u8; 4000]).unwrap();
        }
        assert!(
            h.page_count() <= pages_before + 1,
            "compaction should allow space reuse: {} -> {}",
            pages_before,
            h.page_count()
        );
    }
}
