//! Every on-disk framing decision besides the log frame ([`crate::wal`]):
//! the `DocRecord` both document stores log, framed from its head and the
//! caller's blob; the sealed frame
//! `[magic 8][crc32(body)][body]` of `SSESNAP1`, `SSE{1,2}IDX2` and
//! `SSELSMM1`; the 16-byte stamp `[magic 8][u32][crc32(first 12)]` of
//! `SSEBKND1` and `SSESHRD1`; and [`commit_by_rename`], the one way a file
//! is replaced, so every rename is followed by a directory fsync before
//! anything depends on it. Integers are little-endian; the body decoders
//! stay with their owners (DESIGN.md §4g lists the files).

use crate::crc32::{crc32, Crc32};
use crate::error::{Result, StorageError};
use crate::vfs::{Vfs, VfsFile};
use crate::wal::Wal;
use std::io::ErrorKind;
use std::path::Path;

const OP_PUT: u8 = 0;
const OP_DELETE: u8 = 1;

/// One document-store WAL record: `[0][id u64][len u32][blob]` or
/// `[1][id u64]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DocRecord<'a> {
    /// Store (or replace) the blob under the id.
    Put(u64, &'a [u8]),
    /// Remove the id.
    Delete(u64),
}

impl<'a> DocRecord<'a> {
    /// Append the record to `wal`, copying the blob once: into the frame.
    ///
    /// # Errors
    /// I/O errors from the log.
    pub(crate) fn append_to(self, wal: &mut Wal) -> Result<()> {
        let (op, id, blob) = match self {
            DocRecord::Put(id, blob) => (OP_PUT, id, Some(blob)),
            DocRecord::Delete(id) => (OP_DELETE, id, None),
        };
        let mut head = [op; 13];
        head[1..9].copy_from_slice(&id.to_le_bytes());
        let len = blob.map_or(9, |blob| {
            head[9..].copy_from_slice(&(blob.len() as u32).to_le_bytes());
            13
        });
        wal.append_batch(&[[&head[..len], blob.unwrap_or_default()]])
    }

    /// Decode one record.
    ///
    /// # Errors
    /// [`StorageError::Corrupt`] on an unknown opcode or a length the
    /// opcode rules out.
    pub(crate) fn decode(rec: &'a [u8]) -> Result<Self> {
        let corrupt = |what, detail| Err(StorageError::Corrupt { what, detail });
        let id = || u64::from_le_bytes(rec[1..9].try_into().expect("8 bytes"));
        match rec.first() {
            Some(&OP_PUT) if rec.len() >= 13 => {
                let len = u32::from_le_bytes(rec[9..13].try_into().expect("4 bytes")) as usize;
                let got = rec.len() - 13;
                if got == len {
                    return Ok(DocRecord::Put(id(), &rec[13..]));
                }
                corrupt("wal put record", format!("declared {len}, got {got}"))
            }
            Some(&OP_PUT) => corrupt("wal put record", format!("length {}", rec.len())),
            Some(&OP_DELETE) if rec.len() == 9 => Ok(DocRecord::Delete(id())),
            Some(&OP_DELETE) => corrupt("wal delete record", format!("length {}", rec.len())),
            _ => corrupt("wal record", "unknown opcode".to_string()),
        }
    }
}

/// The header of a sealed file whose body has CRC-32 `body_crc`.
#[must_use]
pub fn sealed_header(magic: &[u8; 8], body_crc: u32) -> [u8; 12] {
    let mut header = [0u8; 12];
    header[..8].copy_from_slice(magic);
    header[8..].copy_from_slice(&body_crc.to_le_bytes());
    header
}

/// `Corrupt`, named by the format's magic, for the file at `path`.
fn corrupt<T>(magic: &'static [u8; 8], reason: &str, path: &Path) -> Result<T> {
    Err(StorageError::Corrupt {
        what: std::str::from_utf8(magic).unwrap_or("durable file"),
        detail: format!("{reason} in {}", path.display()),
    })
}

/// Bytes of a sealed file the scrub reads at a time.
const VERIFY_CHUNK: usize = 64 * 1024;

/// Check a sealed file's `header` (its first 12 bytes, fewer when the file
/// is shorter) against `magic` and the CRC-32 of its body.
fn check_seal(header: &[u8], body_crc: u32, magic: &'static [u8; 8], path: &Path) -> Result<()> {
    if header.len() < 12 {
        return corrupt(magic, "truncated header", path);
    }
    if header[..8] != magic[..] {
        return corrupt(magic, "bad magic", path);
    }
    if body_crc.to_le_bytes() != header[8..] {
        return corrupt(magic, "checksum mismatch", path);
    }
    Ok(())
}

/// Check a sealed image's magic and body CRC and return its body.
///
/// # Errors
/// [`StorageError::Corrupt`] otherwise.
pub fn unseal<'a>(image: &'a [u8], magic: &'static [u8; 8], path: &Path) -> Result<&'a [u8]> {
    let (header, body) = image.split_at(image.len().min(12));
    check_seal(header, crc32(body), magic, path)?;
    Ok(body)
}

/// Scrub check of the sealed file at `path`: [`unseal`] it without
/// decoding the body, reading it in 64 KiB pieces through one handle
/// ([`Vfs::read_chunks`]) rather than whole. `Ok(false)` when there
/// is no such file.
///
/// # Errors
/// As [`unseal`], and I/O errors.
pub fn verify_sealed(vfs: &dyn Vfs, path: &Path, magic: &'static [u8; 8]) -> Result<bool> {
    let mut header = Vec::with_capacity(12);
    let mut crc = Crc32::new();
    let read = vfs.read_chunks(path, VERIFY_CHUNK, &mut |piece| {
        let head = piece.len().min(12 - header.len());
        header.extend_from_slice(&piece[..head]);
        crc.update(&piece[head..]);
    });
    match read {
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(false),
        read => read?,
    }
    check_seal(&header, crc.finalize(), magic, path)?;
    Ok(true)
}

/// Commit the stamp of `n` as `dir/name`.
///
/// # Errors
/// I/O errors.
pub fn write_stamp(vfs: &dyn Vfs, dir: &Path, name: &str, magic: &[u8; 8], n: u32) -> Result<()> {
    let mut stamp = magic.to_vec();
    stamp.extend_from_slice(&n.to_le_bytes());
    stamp.extend_from_slice(&crc32(&stamp).to_le_bytes());
    commit_by_rename(vfs, dir, &[name], |_, f| Ok(f.write_all(&stamp)?))
}

/// The value of the stamp at `path`, or `None` when there is no such file.
///
/// # Errors
/// [`StorageError::Corrupt`] on a bad length, magic or CRC; I/O errors.
pub fn read_stamp(vfs: &dyn Vfs, path: &Path, magic: &'static [u8; 8]) -> Result<Option<u32>> {
    let Some(bytes) = read_if_exists(vfs, path)? else {
        return Ok(None);
    };
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    if bytes.len() != 16 || bytes[..8] != magic[..] || crc32(&bytes[..12]) != u32_at(12) {
        return corrupt(magic, "bad length, magic or checksum", path);
    }
    Ok(Some(u32_at(8)))
}

/// Replace `dir/<name>` for each of `names`, in order: `write(i, file)`
/// fills `<name>.tmp` with its own sequence of `write_all` calls, which
/// is `sync_data`ed and renamed over `<name>`. One `sync_dir(dir)` after
/// the last rename makes the whole set durable. The only caller of
/// [`Vfs::rename`] outside the VFS implementations.
///
/// # Errors
/// The first error of any step. Renames before it may have happened, but
/// none is durable until a later commit's directory fsync.
pub fn commit_by_rename<N: AsRef<str>>(
    vfs: &dyn Vfs,
    dir: &Path,
    names: &[N],
    mut write: impl FnMut(usize, &mut dyn VfsFile) -> Result<()>,
) -> Result<()> {
    for (i, name) in names.iter().enumerate() {
        let tmp = dir.join(format!("{}.tmp", name.as_ref()));
        {
            let mut file = vfs.create(&tmp)?;
            write(i, file.as_mut())?;
            file.sync_data()?;
        }
        vfs.rename(&tmp, &dir.join(name.as_ref()))?;
    }
    Ok(vfs.sync_dir(dir)?)
}

/// The whole file at `path`, or `None` when there is no such file.
///
/// # Errors
/// Any other I/O error.
pub fn read_if_exists(vfs: &dyn Vfs, path: &Path) -> Result<Option<Vec<u8>>> {
    match vfs.read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultVfs, RealVfs};
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sse-durable-test-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn the_scrub_reads_a_sealed_file_in_chunks_and_finds_damage_in_the_last() {
        const MAGIC: &[u8; 8] = b"SSETEST1";
        let dir = temp_dir("verify");
        let path = dir.join("image");
        let body: Vec<u8> = (0..3 * VERIFY_CHUNK + 100)
            .map(|i| (i % 253) as u8)
            .collect();
        let mut image = sealed_header(MAGIC, crc32(&body)).to_vec();
        image.extend_from_slice(&body);
        let corrupt = |vfs: &dyn Vfs| {
            matches!(
                verify_sealed(vfs, &path, MAGIC),
                Err(StorageError::Corrupt { .. })
            )
        };
        for vfs in [&RealVfs as &dyn Vfs, &FaultVfs::counting()] {
            assert!(!verify_sealed(vfs, &path, MAGIC).unwrap(), "no file");
            std::fs::write(&path, &image).unwrap();
            assert!(verify_sealed(vfs, &path, MAGIC).unwrap());
            let mut flipped = image.clone();
            *flipped.last_mut().unwrap() ^= 1;
            std::fs::write(&path, &flipped).unwrap();
            assert!(corrupt(vfs), "a flipped byte in the last chunk");
            std::fs::write(&path, &image[..image.len() - 1]).unwrap();
            assert!(corrupt(vfs), "a truncated body");
            std::fs::write(&path, &image[..7]).unwrap();
            assert!(corrupt(vfs), "a truncated header");
            std::fs::remove_file(&path).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_commit_fsyncs_the_directory_once_for_the_set() {
        let dir = temp_dir("commit");
        let vfs = FaultVfs::counting();
        let stats = vfs.stats();
        commit_by_rename(&vfs, &dir, &["a", "b"], |i, f| {
            Ok(f.write_all(&[i as u8; 3])?)
        })
        .unwrap();
        assert_eq!(std::fs::read(dir.join("a")).unwrap(), [0; 3]);
        assert_eq!(std::fs::read(dir.join("b")).unwrap(), [1; 3]);
        assert!(!dir.join("a.tmp").exists());
        assert_eq!(stats.writes(), 2);
        assert_eq!(stats.dir_syncs(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
