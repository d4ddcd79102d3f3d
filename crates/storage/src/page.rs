//! Slotted pages.
//!
//! Classic database page layout: a fixed-size byte array with a header,
//! a slot directory growing from the front and record payloads growing from
//! the back. Records are addressed by slot index so payloads can move
//! during compaction without changing record ids.
//!
//! Layout:
//! ```text
//! [n_slots: u16][free_end: u16][slot 0: (off u16, len u16)]...  -> grows right
//!                                  ... free space ...
//!                       <- grows left  [payload k]...[payload 1][payload 0]
//! ```
//! A deleted slot has `off == TOMBSTONE`. `len == 0` is a valid empty record.

use crate::error::{Result, StorageError};

/// Page size in bytes (8 KiB, a common database default).
pub const PAGE_SIZE: usize = 8192;
/// Header: n_slots (u16) + free_end (u16).
const HEADER: usize = 4;
/// Bytes per slot-directory entry.
const SLOT: usize = 4;
/// Offset marker for deleted slots.
const TOMBSTONE: u16 = u16::MAX;

/// Largest payload a single page can hold (one slot, empty page).
pub const MAX_IN_PAGE: usize = PAGE_SIZE - HEADER - SLOT;

/// One slotted page.
#[derive(Clone)]
pub struct Page {
    buf: [u8; PAGE_SIZE],
    /// Whether compacting would move a payload: set by a `delete` and by
    /// loading an image that is not packed, cleared by [`Page::compact`].
    /// Kept outside the image, so it is never persisted. `insert` never
    /// reuses a slot, so a page without holes is already compact.
    holes: bool,
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    /// A fresh empty page.
    #[must_use]
    pub fn new() -> Self {
        let mut p = Page {
            buf: [0u8; PAGE_SIZE],
            holes: false,
        };
        p.set_n_slots(0);
        p.set_free_end(PAGE_SIZE as u16);
        p
    }

    /// Reconstruct a page from raw bytes (e.g. from a snapshot).
    ///
    /// # Errors
    /// [`StorageError::Corrupt`] if the header or slot directory is
    /// structurally invalid.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        if bytes.len() != PAGE_SIZE {
            return Err(StorageError::Corrupt {
                what: "page",
                detail: format!("expected {PAGE_SIZE} bytes, got {}", bytes.len()),
            });
        }
        let mut p = Page {
            buf: [0u8; PAGE_SIZE],
            holes: false,
        };
        p.buf.copy_from_slice(bytes);
        p.validate()?;
        p.holes = !p.is_packed();
        Ok(p)
    }

    /// Raw byte view for persistence.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.buf
    }

    fn n_slots(&self) -> u16 {
        u16::from_le_bytes([self.buf[0], self.buf[1]])
    }

    fn set_n_slots(&mut self, v: u16) {
        self.buf[0..2].copy_from_slice(&v.to_le_bytes());
    }

    fn free_end(&self) -> u16 {
        u16::from_le_bytes([self.buf[2], self.buf[3]])
    }

    fn set_free_end(&mut self, v: u16) {
        self.buf[2..4].copy_from_slice(&v.to_le_bytes());
    }

    fn slot(&self, idx: u16) -> (u16, u16) {
        let base = HEADER + SLOT * idx as usize;
        let off = u16::from_le_bytes([self.buf[base], self.buf[base + 1]]);
        let len = u16::from_le_bytes([self.buf[base + 2], self.buf[base + 3]]);
        (off, len)
    }

    fn set_slot(&mut self, idx: u16, off: u16, len: u16) {
        let base = HEADER + SLOT * idx as usize;
        self.buf[base..base + 2].copy_from_slice(&off.to_le_bytes());
        self.buf[base + 2..base + 4].copy_from_slice(&len.to_le_bytes());
    }

    fn validate(&self) -> Result<()> {
        let n = self.n_slots() as usize;
        let dir_end = HEADER + SLOT * n;
        let free_end = self.free_end() as usize;
        if dir_end > PAGE_SIZE || free_end > PAGE_SIZE || free_end < dir_end {
            return Err(StorageError::Corrupt {
                what: "page header",
                detail: format!("n_slots={n}, free_end={free_end}"),
            });
        }
        let mut live_bytes = 0usize;
        for i in 0..n {
            let (off, len) = self.slot(i as u16);
            if off == TOMBSTONE {
                continue;
            }
            let end = off as usize + len as usize;
            if (off as usize) < free_end || end > PAGE_SIZE {
                return Err(StorageError::Corrupt {
                    what: "page slot",
                    detail: format!("slot {i}: off={off}, len={len}"),
                });
            }
            live_bytes += len as usize;
        }
        // Overlapping slots could otherwise add up to more than the page
        // holds, and compaction would write payloads over the directory.
        if live_bytes > PAGE_SIZE - dir_end {
            return Err(StorageError::Corrupt {
                what: "page slots",
                detail: format!("{live_bytes} live bytes behind a {dir_end}-byte directory"),
            });
        }
        Ok(())
    }

    /// Whether every live payload already sits where [`Page::compact`]
    /// would put it: packed against the page end in slot order, with
    /// `free_end` right below the last one.
    fn is_packed(&self) -> bool {
        let mut end = PAGE_SIZE;
        for i in 0..self.n_slots() {
            let (off, len) = self.slot(i);
            if off == TOMBSTONE {
                continue;
            }
            match end.checked_sub(len as usize) {
                Some(at) if at == off as usize => end = at,
                _ => return false,
            }
        }
        end == self.free_end() as usize
    }

    /// Free bytes available for one more record (including its slot entry).
    #[must_use]
    pub fn free_space(&self) -> usize {
        let dir_end = HEADER + SLOT * self.n_slots() as usize;
        let free = self.free_end() as usize - dir_end;
        free.saturating_sub(SLOT)
    }

    /// Number of live (non-tombstoned) records.
    #[must_use]
    pub fn live_records(&self) -> usize {
        (0..self.n_slots())
            .filter(|&i| self.slot(i).0 != TOMBSTONE)
            .count()
    }

    /// Insert a record, returning its slot index.
    ///
    /// # Errors
    /// [`StorageError::RecordTooLarge`] when the payload does not fit in the
    /// remaining free space.
    pub fn insert(&mut self, payload: &[u8]) -> Result<u16> {
        if payload.len() > self.free_space() {
            return Err(StorageError::RecordTooLarge {
                size: payload.len(),
                max: self.free_space(),
            });
        }
        let n = self.n_slots();
        let new_end = self.free_end() as usize - payload.len();
        self.buf[new_end..new_end + payload.len()].copy_from_slice(payload);
        self.set_slot(n, new_end as u16, payload.len() as u16);
        self.set_n_slots(n + 1);
        self.set_free_end(new_end as u16);
        Ok(n)
    }

    /// Read the record in `slot`.
    ///
    /// # Errors
    /// [`StorageError::RecordNotFound`] for out-of-range or deleted slots.
    pub fn get(&self, slot: u16) -> Result<&[u8]> {
        if slot >= self.n_slots() {
            return Err(StorageError::RecordNotFound);
        }
        let (off, len) = self.slot(slot);
        if off == TOMBSTONE {
            return Err(StorageError::RecordNotFound);
        }
        Ok(&self.buf[off as usize..off as usize + len as usize])
    }

    /// Tombstone the record in `slot`. The space is reclaimed by
    /// [`Page::compact`], not immediately.
    ///
    /// # Errors
    /// [`StorageError::RecordNotFound`] for invalid or already-deleted slots.
    pub fn delete(&mut self, slot: u16) -> Result<()> {
        if slot >= self.n_slots() {
            return Err(StorageError::RecordNotFound);
        }
        let (off, _) = self.slot(slot);
        if off == TOMBSTONE {
            return Err(StorageError::RecordNotFound);
        }
        self.set_slot(slot, TOMBSTONE, 0);
        self.holes = true;
        Ok(())
    }

    /// Compact payloads to the end of the page, squeezing out holes left by
    /// deletions. Slot indices are preserved. A page with no hole is left
    /// as it is: compacting it would rewrite every byte in place.
    pub fn compact(&mut self) {
        if !self.holes {
            return;
        }
        // Read the payloads from a copy of the image so that moving one
        // can never overwrite another that has not moved yet.
        let old = self.buf;
        let mut end = PAGE_SIZE;
        for i in 0..self.n_slots() {
            let (off, len) = self.slot(i);
            if off == TOMBSTONE {
                continue;
            }
            let (off, len) = (off as usize, len as usize);
            end -= len;
            self.buf[end..end + len].copy_from_slice(&old[off..off + len]);
            self.set_slot(i, end as u16, len as u16);
        }
        self.set_free_end(end as u16);
        self.holes = false;
    }

    /// The compaction [`Page::compact`] replaced: every page, one `Vec`
    /// per live record. The oracle its image must match byte for byte.
    #[cfg(test)]
    pub(crate) fn compact_reference(&mut self) {
        let n = self.n_slots();
        let live: Vec<(u16, Vec<u8>)> = (0..n)
            .filter_map(|i| {
                let (off, len) = self.slot(i);
                (off != TOMBSTONE).then(|| {
                    (
                        i,
                        self.buf[off as usize..off as usize + len as usize].to_vec(),
                    )
                })
            })
            .collect();
        let mut end = PAGE_SIZE;
        for (slot, payload) in &live {
            end -= payload.len();
            self.buf[end..end + payload.len()].copy_from_slice(payload);
            self.set_slot(*slot, end as u16, payload.len() as u16);
        }
        self.set_free_end(end as u16);
        self.holes = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let mut p = Page::new();
        let s0 = p.insert(b"hello").unwrap();
        let s1 = p.insert(b"world!").unwrap();
        assert_eq!(p.get(s0).unwrap(), b"hello");
        assert_eq!(p.get(s1).unwrap(), b"world!");
        assert_eq!(p.live_records(), 2);
    }

    #[test]
    fn empty_records_are_valid() {
        let mut p = Page::new();
        let s = p.insert(b"").unwrap();
        assert_eq!(p.get(s).unwrap(), b"");
    }

    #[test]
    fn fills_up_and_rejects_overflow() {
        let mut p = Page::new();
        let max = MAX_IN_PAGE;
        assert!(p.insert(&vec![1u8; max + 1]).is_err());
        p.insert(&vec![1u8; max]).unwrap();
        assert!(matches!(
            p.insert(b"x"),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn many_small_records() {
        let mut p = Page::new();
        let mut slots = Vec::new();
        let mut i = 0u32;
        while p.free_space() >= 16 {
            slots.push((p.insert(&i.to_le_bytes()).unwrap(), i));
            i += 1;
        }
        assert!(
            slots.len() > 500,
            "expected many records, got {}",
            slots.len()
        );
        for (slot, val) in slots {
            assert_eq!(p.get(slot).unwrap(), val.to_le_bytes());
        }
    }

    #[test]
    fn delete_then_get_fails() {
        let mut p = Page::new();
        let s = p.insert(b"doomed").unwrap();
        p.delete(s).unwrap();
        assert!(matches!(p.get(s), Err(StorageError::RecordNotFound)));
        assert!(matches!(p.delete(s), Err(StorageError::RecordNotFound)));
        assert_eq!(p.live_records(), 0);
    }

    #[test]
    fn get_out_of_range_fails() {
        let p = Page::new();
        assert!(matches!(p.get(0), Err(StorageError::RecordNotFound)));
    }

    #[test]
    fn compaction_reclaims_space_and_preserves_slots() {
        let mut p = Page::new();
        let a = p.insert(&vec![0xAAu8; 2000]).unwrap();
        let b = p.insert(&vec![0xBBu8; 2000]).unwrap();
        let c = p.insert(&vec![0xCCu8; 2000]).unwrap();
        let before = p.free_space();
        p.delete(b).unwrap();
        p.compact();
        assert!(p.free_space() >= before + 2000, "space not reclaimed");
        assert_eq!(p.get(a).unwrap(), vec![0xAAu8; 2000]);
        assert_eq!(p.get(c).unwrap(), vec![0xCCu8; 2000]);
        assert!(p.get(b).is_err());
        // New insert fits in the reclaimed space.
        let d = p.insert(&vec![0xDDu8; 2000]).unwrap();
        assert_eq!(p.get(d).unwrap(), vec![0xDDu8; 2000]);
    }

    #[test]
    fn bytes_round_trip() {
        let mut p = Page::new();
        let s = p.insert(b"persist me").unwrap();
        let restored = Page::from_bytes(p.as_bytes()).unwrap();
        assert_eq!(restored.get(s).unwrap(), b"persist me");
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(Page::from_bytes(&[0u8; 16]).is_err());
        let mut bad = [0u8; PAGE_SIZE];
        // n_slots = huge
        bad[0] = 0xFF;
        bad[1] = 0xFF;
        assert!(matches!(
            Page::from_bytes(&bad),
            Err(StorageError::Corrupt { .. })
        ));
    }

    #[test]
    fn holes_are_tracked_outside_the_image() {
        let mut p = Page::new();
        let a = p.insert(&[0xAA; 100]).unwrap();
        p.insert(&[0xBB; 100]).unwrap();
        assert!(!p.holes, "inserts leave the page packed");
        assert!(p.is_packed());
        p.delete(a).unwrap();
        assert!(p.holes);
        // A loaded image carries no flag: it is recomputed from the layout.
        assert!(Page::from_bytes(p.as_bytes()).unwrap().holes);
        p.compact();
        assert!(!p.holes);
        assert!(!Page::from_bytes(p.as_bytes()).unwrap().holes);
    }

    #[test]
    fn from_bytes_rejects_slots_that_overfill_the_page() {
        let mut p = Page::new();
        p.insert(&[7u8; 5000]).unwrap();
        p.insert(b"x").unwrap();
        let mut bytes = *p.as_bytes();
        // Point slot 1 at slot 0's 5000 bytes: each slot is in bounds, but
        // together they claim more than the page holds.
        bytes.copy_within(HEADER..HEADER + SLOT, HEADER + SLOT);
        assert!(matches!(
            Page::from_bytes(&bytes),
            Err(StorageError::Corrupt { .. })
        ));
    }

    #[test]
    fn from_bytes_rejects_overlapping_slot() {
        let mut p = Page::new();
        p.insert(b"abc").unwrap();
        let mut bytes = *p.as_bytes();
        // Point slot 0 beyond the page end.
        let base = HEADER;
        bytes[base..base + 2].copy_from_slice(&((PAGE_SIZE - 1) as u16).to_le_bytes());
        bytes[base + 2..base + 4].copy_from_slice(&10u16.to_le_bytes());
        assert!(matches!(
            Page::from_bytes(&bytes),
            Err(StorageError::Corrupt { .. })
        ));
    }
}
