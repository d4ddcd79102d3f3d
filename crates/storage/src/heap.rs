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

/// A fragment's header: `(total_remaining, next_page, next_slot)`.
///
/// # Errors
/// [`StorageError::Corrupt`] when the fragment is shorter than its header.
fn frag_header(frag: &[u8]) -> Result<(u32, u32, u16)> {
    let Some(header) = frag.get(..FRAG_HEADER) else {
        return Err(StorageError::Corrupt {
            what: "fragment",
            detail: format!("fragment shorter than header: {}", frag.len()),
        });
    };
    Ok((
        u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")),
        u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")),
        u16::from_le_bytes(header[8..10].try_into().expect("2 bytes")),
    ))
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
            let (total_remaining, next_page, next_slot) = frag_header(frag)?;
            if let Some(exp) = expected {
                if total_remaining != exp {
                    return Err(StorageError::Corrupt {
                        what: "fragment chain",
                        detail: format!("expected {exp} remaining, found {total_remaining}"),
                    });
                }
            }
            let data = &frag[FRAG_HEADER..];
            out.extend_from_slice(data);
            if next_page == NO_PAGE {
                return Ok(out);
            }
            // Every link must carry data and count down: the remaining
            // total then falls strictly along the chain, so a chain that
            // loops back on itself fails the check above instead of
            // looping forever.
            expected = match total_remaining.checked_sub(data.len() as u32) {
                Some(rest) if !data.is_empty() => Some(rest),
                _ => {
                    return Err(StorageError::Corrupt {
                        what: "fragment chain",
                        detail: format!(
                            "{}-byte link claims {total_remaining} remaining",
                            data.len()
                        ),
                    })
                }
            };
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
        let (total, _, _) = frag_header(page.get(id.slot)?)?;
        Ok(total as usize)
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
            let (_, next_page, next_slot) = frag_header(page.get(cur.1)?)?;
            self.pages[cur.0 as usize].delete(cur.1)?;
            if next_page == NO_PAGE {
                return Ok(());
            }
            cur = (next_page, next_slot);
        }
    }

    /// Compact every page that has a hole (reclaims tombstoned space in
    /// place; the rest are compact already).
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
    use proptest::prelude::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Run `f` on its own thread and fail the test if it has not returned
    /// within five seconds (a malformed chain must not loop forever).
    fn bounded<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        let worker = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(Duration::from_secs(5)) {
            Ok(value) => {
                worker.join().expect("the worker sent its value");
                value
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(worker.join().expect_err("the worker panicked"))
            }
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("no result within the time bound"),
        }
    }

    /// A one-page heap holding the raw fragment `frag` at slot 0.
    fn heap_with_fragment(frag: &[u8]) -> HeapFile {
        let mut page = Page::new();
        assert_eq!(page.insert(frag).unwrap(), 0);
        HeapFile { pages: vec![page] }
    }

    /// A fragment image: header then `data`.
    fn fragment(total_remaining: u32, next: (u32, u16), data: &[u8]) -> Vec<u8> {
        let mut frag = Vec::new();
        frag.extend_from_slice(&total_remaining.to_le_bytes());
        frag.extend_from_slice(&next.0.to_le_bytes());
        frag.extend_from_slice(&next.1.to_le_bytes());
        frag.extend_from_slice(data);
        frag
    }

    const FIRST: RecordId = RecordId { page: 0, slot: 0 };

    #[test]
    fn short_fragment_is_corrupt_for_delete_as_for_get() {
        let mut h = heap_with_fragment(&[1, 2, 3]);
        assert!(matches!(h.get(FIRST), Err(StorageError::Corrupt { .. })));
        assert!(matches!(
            h.record_len(FIRST),
            Err(StorageError::Corrupt { .. })
        ));
        assert!(matches!(h.delete(FIRST), Err(StorageError::Corrupt { .. })));
    }

    #[test]
    fn empty_link_that_names_itself_is_corrupt_not_a_hang() {
        for total in [0, 7, u32::MAX] {
            let h = heap_with_fragment(&fragment(total, (0, 0), &[]));
            let got = bounded(move || h.get(FIRST));
            assert!(matches!(got, Err(StorageError::Corrupt { .. })), "{got:?}");
        }
    }

    #[test]
    fn chain_that_loops_back_is_corrupt() {
        // slot 0 -> slot 1 -> slot 0, each carrying data and a consistent
        // count for one lap: the second visit to slot 0 cannot match.
        let mut page = Page::new();
        page.insert(&fragment(4, (0, 1), b"ab")).unwrap();
        page.insert(&fragment(2, (0, 0), b"cd")).unwrap();
        let h = HeapFile { pages: vec![page] };
        let got = bounded(move || h.get(FIRST));
        assert!(matches!(got, Err(StorageError::Corrupt { .. })), "{got:?}");
        // A link that claims less than it carries is corrupt too.
        let h = heap_with_fragment(&fragment(1, (0, 0), b"abc"));
        assert!(matches!(h.get(FIRST), Err(StorageError::Corrupt { .. })));
    }

    /// One step of a heap workload: insert `len` bytes, delete the live
    /// record at `pick % live`, or compact.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Insert(usize),
        Delete(usize),
        Compact,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (0usize..600).prop_map(Op::Insert),
            1 => (0usize..20_000).prop_map(Op::Insert),
            3 => any::<usize>().prop_map(Op::Delete),
            1 => Just(Op::Compact),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn compacting_only_pages_with_holes_matches_a_full_compaction(
            ops in proptest::collection::vec(op(), 1..120),
        ) {
            let mut fast = HeapFile::new();
            let mut reference = HeapFile::new();
            let mut live: Vec<(RecordId, Vec<u8>)> = Vec::new();
            for (step, op) in ops.iter().enumerate() {
                match *op {
                    Op::Insert(len) => {
                        let data: Vec<u8> =
                            (0..len).map(|i| (i * 31 + step) as u8).collect();
                        let id = fast.insert(&data).unwrap();
                        prop_assert_eq!(reference.insert(&data).unwrap(), id);
                        live.push((id, data));
                    }
                    Op::Delete(pick) if !live.is_empty() => {
                        let (id, _) = live.swap_remove(pick % live.len());
                        fast.delete(id).unwrap();
                        reference.delete(id).unwrap();
                    }
                    Op::Delete(_) => {}
                    Op::Compact => {
                        fast.compact_all();
                        for page in &mut reference.pages {
                            page.compact_reference();
                        }
                    }
                }
                prop_assert!(
                    fast.to_bytes() == reference.to_bytes(),
                    "page images differ after step {} ({:?})",
                    step,
                    op
                );
            }
            for (id, data) in &live {
                prop_assert_eq!(&fast.get(*id).unwrap(), data);
            }
        }
    }

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
