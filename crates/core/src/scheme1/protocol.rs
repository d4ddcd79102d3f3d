//! Scheme 1 wire protocol.
//!
//! Message layout mirrors Figures 1 and 2 of the paper exactly — one
//! request/response pair per arrow. All encoding goes through the
//! [`sse_net::wire`] codec; the server treats every field as untrusted.

use crate::error::{Result, SseError};
use crate::proto_common::{self, expect_tag};
use sse_net::wire::{WireReader, WireWriter};

// `Ack`, `Result` and `Error` are the responses both schemes share.
pub use crate::proto_common::{decode_ack, decode_result, encode_ack, encode_error, encode_result};

/// Request tag bytes (client → server).
pub mod REQ_TAGS {
    #![allow(missing_docs, non_snake_case)]
    /// Store encrypted data items (`DataStorage`).
    pub const PUT_DOCS: u8 = 0x01;
    /// `MetadataStorage` round 1: fetch `F(r)` for a batch of tags.
    pub const GET_NONCES: u8 = 0x02;
    /// `MetadataStorage` round 2: apply masked deltas.
    pub const APPLY_UPDATES: u8 = 0x03;
    /// `Search` round 1: look up a tag, expect `F(r)`.
    pub const SEARCH_FIND: u8 = 0x04;
    /// `Search` round 2: reveal the nonce, expect matching documents.
    pub const SEARCH_REVEAL: u8 = 0x05;
    /// Batched `Search` round 2: reveal several nonces at once (protocol
    /// extension — lets a q-keyword boolean query finish in 2 rounds
    /// instead of 2q; round 1 reuses `GET_NONCES`).
    pub const SEARCH_REVEAL_MANY: u8 = 0x06;
    /// Capacity migration round 1 (extension): dump every searchable
    /// representation so the client can re-mask at a new width.
    pub const EXPORT_INDEX: u8 = 0x07;
    /// Capacity migration round 2 (extension): atomically replace the
    /// index with re-masked entries at a new capacity.
    pub const REPLACE_INDEX: u8 = 0x08;
    /// Ask a durable server to checkpoint its store + index to disk.
    pub const CHECKPOINT: u8 = 0x09;
}

/// Whether the request tagged `tag` only reads the server's state: what a
/// degraded (read-only) tenant may still serve. An unknown tag is not a
/// read.
#[must_use]
pub const fn is_read(tag: u8) -> bool {
    matches!(
        tag,
        REQ_TAGS::GET_NONCES
            | REQ_TAGS::SEARCH_FIND
            | REQ_TAGS::SEARCH_REVEAL
            | REQ_TAGS::SEARCH_REVEAL_MANY
            | REQ_TAGS::EXPORT_INDEX
    )
}

/// Scheme 1's own response tag bytes (server → client); the shared ones
/// are [`crate::proto_common::resp`].
mod RESP_TAGS {
    #![allow(non_snake_case)]
    pub const NONCES: u8 = 0x82;
    pub const FOUND: u8 = 0x84;
    pub const INDEX_DUMP: u8 = 0x87;
}

/// One update entry of `ApplyUpdates` as the client encodes it: the tag,
/// the XOR delta to fold into the stored masked array, and the replacement
/// `F(r')`. The server reads entries as [`UpdateEntryRef`]s.
#[derive(Clone)]
pub struct UpdateEntry {
    /// `f_kw(w)`.
    pub tag: [u8; 32],
    /// `U(w) ⊕ G(r) ⊕ G(r')` — or `U(w) ⊕ G(r')` for a fresh keyword.
    pub delta: Vec<u8>,
    /// Serialized ElGamal ciphertext `F(r')`.
    pub f_r: Vec<u8>,
}

/// An [`UpdateEntry`] as [`decode_request`] reads it, borrowed from the
/// encoded request.
#[derive(Clone, Copy)]
pub struct UpdateEntryRef<'a> {
    /// `f_kw(w)`.
    pub tag: [u8; 32],
    /// The XOR delta, in place in the request.
    pub delta: &'a [u8],
    /// Serialized `F(r')`, in place in the request.
    pub f_r: &'a [u8],
    /// The whole entry as it arrived, which a shard's record copies.
    pub wire: &'a [u8],
}

// ---- client-side encoders -------------------------------------------------

/// Encode `PutDocs`.
#[must_use]
pub fn encode_put_docs(docs: &[(u64, Vec<u8>)]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(REQ_TAGS::PUT_DOCS);
    proto_common::put_docs_body(&mut w, docs);
    w.finish()
}

/// Encode `GetNonces`.
#[must_use]
pub fn encode_get_nonces(tags: &[[u8; 32]]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(REQ_TAGS::GET_NONCES).put_u64(tags.len() as u64);
    for t in tags {
        w.put_array(t);
    }
    w.finish()
}

/// Encode `ApplyUpdates`.
#[must_use]
pub fn encode_apply_updates(entries: &[UpdateEntry]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(REQ_TAGS::APPLY_UPDATES);
    put_entries(w, entries)
}

/// The entry list both index updates end with.
fn put_entries(mut w: WireWriter, entries: &[UpdateEntry]) -> Vec<u8> {
    w.put_u64(entries.len() as u64);
    for e in entries {
        w.put_array(&e.tag).put_bytes(&e.delta).put_bytes(&e.f_r);
    }
    w.finish()
}

/// Encode `SearchFind`.
#[must_use]
pub fn encode_search_find(tag: &[u8; 32]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(REQ_TAGS::SEARCH_FIND).put_array(tag);
    w.finish()
}

/// Encode `SearchReveal`.
#[must_use]
pub fn encode_search_reveal(tag: &[u8; 32], seed: &[u8; 32]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(REQ_TAGS::SEARCH_REVEAL)
        .put_array(tag)
        .put_array(seed);
    w.finish()
}

/// Encode `SearchRevealMany`.
#[must_use]
pub fn encode_search_reveal_many(items: &[([u8; 32], [u8; 32])]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(REQ_TAGS::SEARCH_REVEAL_MANY)
        .put_u64(items.len() as u64);
    for (tag, seed) in items {
        w.put_array(tag).put_array(seed);
    }
    w.finish()
}

/// Encode `Checkpoint`.
#[must_use]
pub fn encode_checkpoint() -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(REQ_TAGS::CHECKPOINT);
    w.finish()
}

/// Encode `ExportIndex`.
#[must_use]
pub fn encode_export_index() -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(REQ_TAGS::EXPORT_INDEX);
    w.finish()
}

/// Encode `ReplaceIndex` with the new capacity and re-masked entries.
#[must_use]
pub fn encode_replace_index(capacity: u64, entries: &[UpdateEntry]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(REQ_TAGS::REPLACE_INDEX).put_u64(capacity);
    put_entries(w, entries)
}

// ---- server-side encoders -------------------------------------------------

/// Encode `Nonces`: per requested tag, the stored `F(r)` or absence.
#[must_use]
pub fn encode_nonces(items: &[Option<Vec<u8>>]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(RESP_TAGS::NONCES).put_u64(items.len() as u64);
    for item in items {
        match item {
            Some(f_r) => {
                w.put_u8(1).put_bytes(f_r);
            }
            None => {
                w.put_u8(0);
            }
        }
    }
    w.finish()
}

/// Encode `Found` (search round 1 response).
#[must_use]
pub fn encode_found(f_r: Option<&[u8]>) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(RESP_TAGS::FOUND);
    match f_r {
        Some(ct) => {
            w.put_u8(1).put_bytes(ct);
        }
        None => {
            w.put_u8(0);
        }
    }
    w.finish()
}

/// Encode `IndexDump` — the full set of searchable representations.
#[must_use]
pub fn encode_index_dump(entries: &[([u8; 32], Vec<u8>, Vec<u8>)]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(RESP_TAGS::INDEX_DUMP)
        .put_u64(entries.len() as u64);
    for (tag, masked, f_r) in entries {
        w.put_array(tag);
        w.put_bytes(masked);
        w.put_bytes(f_r);
    }
    w.finish()
}

/// One dumped searchable representation: `(tag, masked array, F(r))`.
pub type DumpedEntry = ([u8; 32], Vec<u8>, Vec<u8>);

/// Decode `IndexDump`.
///
/// # Errors
/// Protocol violations and wire errors.
pub fn decode_index_dump(buf: &[u8]) -> Result<Vec<DumpedEntry>> {
    let mut r = WireReader::new(buf);
    expect_tag(&mut r, RESP_TAGS::INDEX_DUMP, "IndexDump")?;
    let n = r.get_count(48)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = r.get_array32()?;
        let masked = r.get_bytes()?.to_vec();
        let f_r = r.get_bytes()?.to_vec();
        out.push((tag, masked, f_r));
    }
    r.finish()?;
    Ok(out)
}

// ---- client-side decoders -------------------------------------------------

/// Decode `Nonces`.
pub fn decode_nonces(buf: &[u8]) -> Result<Vec<Option<Vec<u8>>>> {
    let mut r = WireReader::new(buf);
    expect_tag(&mut r, RESP_TAGS::NONCES, "Nonces")?;
    let n = r.get_count(1)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let present = r.get_u8()?;
        if present == 1 {
            out.push(Some(r.get_bytes()?.to_vec()));
        } else {
            out.push(None);
        }
    }
    r.finish()?;
    Ok(out)
}

/// Decode `Found`.
pub fn decode_found(buf: &[u8]) -> Result<Option<Vec<u8>>> {
    let mut r = WireReader::new(buf);
    expect_tag(&mut r, RESP_TAGS::FOUND, "Found")?;
    let present = r.get_u8()?;
    let out = if present == 1 {
        Some(r.get_bytes()?.to_vec())
    } else {
        None
    };
    r.finish()?;
    Ok(out)
}

// ---- server-side decoders (defined here, used by server.rs) ----------------

/// A decoded client request (server side), borrowed from the request it
/// was decoded from.
pub enum Request<'a> {
    /// `DataStorage` upload, each blob in place in the request.
    PutDocs(Vec<(u64, &'a [u8])>),
    /// Update round 1.
    GetNonces(Vec<[u8; 32]>),
    /// Update round 2.
    ApplyUpdates(Vec<UpdateEntryRef<'a>>),
    /// Search round 1.
    SearchFind([u8; 32]),
    /// Search round 2.
    SearchReveal {
        /// The keyword tag.
        tag: [u8; 32],
        /// The revealed PRG seed.
        seed: [u8; 32],
    },
    /// Batched search round 2: several `(tag, seed)` reveals.
    SearchRevealMany(Vec<([u8; 32], [u8; 32])>),
    /// Flush durable state to disk.
    Checkpoint,
    /// Migration round 1: dump the index.
    ExportIndex,
    /// Migration round 2: replace the index at a new capacity.
    ReplaceIndex {
        /// New database capacity in documents.
        capacity: u64,
        /// Fresh entries (delta field holds the complete new masked array).
        entries: Vec<UpdateEntryRef<'a>>,
    },
}

/// Decode any client request (server side) without copying it: blobs and
/// update entries are slices of `buf`, so the server validates, journals,
/// applies and stores them from the bytes that arrived. The whole request
/// is checked before anything is returned.
///
/// # Errors
/// Wire errors on malformed input.
pub fn decode_request(buf: &[u8]) -> Result<Request<'_>> {
    let mut r = WireReader::new(buf);
    let tag = r.get_u8()?;
    let req = match tag {
        REQ_TAGS::PUT_DOCS => Request::PutDocs(proto_common::decode_put_docs_body(&mut r)?),
        REQ_TAGS::GET_NONCES => {
            let n = r.get_count(32)?;
            let mut tags = Vec::with_capacity(n);
            for _ in 0..n {
                tags.push(r.get_array32()?);
            }
            Request::GetNonces(tags)
        }
        REQ_TAGS::APPLY_UPDATES => Request::ApplyUpdates(get_entries(buf, &mut r)?),
        REQ_TAGS::REPLACE_INDEX => Request::ReplaceIndex {
            capacity: r.get_u64()?,
            entries: get_entries(buf, &mut r)?,
        },
        REQ_TAGS::SEARCH_FIND => Request::SearchFind(r.get_array32()?),
        REQ_TAGS::SEARCH_REVEAL => Request::SearchReveal {
            tag: r.get_array32()?,
            seed: r.get_array32()?,
        },
        REQ_TAGS::SEARCH_REVEAL_MANY => {
            let n = r.get_count(64)?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                let tag = r.get_array32()?;
                let seed = r.get_array32()?;
                items.push((tag, seed));
            }
            Request::SearchRevealMany(items)
        }
        REQ_TAGS::CHECKPOINT => Request::Checkpoint,
        REQ_TAGS::EXPORT_INDEX => Request::ExportIndex,
        other => {
            return Err(SseError::Wire(sse_net::wire::WireError::UnknownTag(other)));
        }
    };
    r.finish()?;
    Ok(req)
}

/// The entry list both index updates end with, read from `r` (a reader
/// over `buf`): each entry in place, with its bytes as they arrived.
fn get_entries<'a>(buf: &'a [u8], r: &mut WireReader<'a>) -> Result<Vec<UpdateEntryRef<'a>>> {
    let n = r.get_count(48)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let at = buf.len() - r.remaining();
        let (tag, delta, f_r) = (r.get_array32()?, r.get_bytes()?, r.get_bytes()?);
        let wire = &buf[at..buf.len() - r.remaining()];
        entries.push(UpdateEntryRef {
            tag,
            delta,
            f_r,
            wire,
        });
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_docs_round_trip() {
        let docs = vec![(1u64, vec![1, 2, 3]), (9, vec![])];
        let msg = encode_put_docs(&docs);
        match decode_request(&msg).unwrap() {
            // Each blob is read in place: the first ends 3 bytes before
            // the second's id and length prefix.
            Request::PutDocs(d) => {
                assert_eq!(d, [(1, &[1, 2, 3][..]), (9, &[][..])]);
                assert!(std::ptr::eq(d[0].1, &msg[msg.len() - 19..msg.len() - 16]));
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn get_nonces_round_trip() {
        let tags = vec![[1u8; 32], [2u8; 32]];
        match decode_request(&encode_get_nonces(&tags)).unwrap() {
            Request::GetNonces(t) => assert_eq!(t, tags),
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn apply_updates_round_trip() {
        let entries = vec![UpdateEntry {
            tag: [7u8; 32],
            delta: vec![0xAA; 16],
            f_r: vec![0xBB; 64],
        }];
        let encoded = encode_apply_updates(&entries);
        let Request::ApplyUpdates(e) = decode_request(&encoded).unwrap() else {
            panic!("wrong variant");
        };
        // The entries are read in place, each with its bytes as they
        // arrived: after the tag and the count.
        assert_eq!(e.len(), 1);
        assert_eq!(
            (e[0].tag, e[0].delta, e[0].f_r),
            ([7u8; 32], &[0xAA; 16][..], &[0xBB; 64][..])
        );
        assert_eq!(e[0].wire, &encoded[9..]);
    }

    #[test]
    fn search_messages_round_trip() {
        match decode_request(&encode_search_find(&[3u8; 32])).unwrap() {
            Request::SearchFind(t) => assert_eq!(t, [3u8; 32]),
            _ => panic!("wrong variant"),
        }
        match decode_request(&encode_search_reveal(&[3u8; 32], &[4u8; 32])).unwrap() {
            Request::SearchReveal { tag, seed } => {
                assert_eq!(tag, [3u8; 32]);
                assert_eq!(seed, [4u8; 32]);
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn responses_round_trip() {
        decode_ack(&encode_ack()).unwrap();
        let nonces =
            decode_nonces(&encode_nonces(&[Some(vec![1, 2]), None, Some(vec![])])).unwrap();
        assert_eq!(nonces, vec![Some(vec![1, 2]), None, Some(vec![])]);
        assert_eq!(decode_found(&encode_found(None)).unwrap(), None);
        assert_eq!(
            decode_found(&encode_found(Some(&[9, 9]))).unwrap(),
            Some(vec![9, 9])
        );
        let docs = vec![(5u64, b"blob".to_vec())];
        assert_eq!(
            crate::proto_common::decode_result_owned(&encode_result(&docs)).unwrap(),
            docs
        );
    }

    #[test]
    fn migration_messages_round_trip() {
        assert!(matches!(
            decode_request(&encode_export_index()).unwrap(),
            Request::ExportIndex
        ));
        let entries = vec![UpdateEntry {
            tag: [2u8; 32],
            delta: vec![1, 2, 3],
            f_r: vec![4, 5],
        }];
        let encoded = encode_replace_index(512, &entries);
        match decode_request(&encoded).unwrap() {
            Request::ReplaceIndex { capacity, entries } => {
                assert_eq!(capacity, 512);
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].delta, [1, 2, 3]);
                assert_eq!(entries[0].wire, &encoded[17..]);
            }
            _ => panic!("wrong variant"),
        }
        let dump = vec![([7u8; 32], vec![8, 8], vec![9])];
        assert_eq!(decode_index_dump(&encode_index_dump(&dump)).unwrap(), dump);
    }

    #[test]
    fn error_response_surfaces_as_protocol_violation() {
        let err = decode_ack(&encode_error("boom")).unwrap_err();
        assert!(matches!(err, SseError::ProtocolViolation { .. }));
        assert!(err.to_string().contains("boom"));
    }

    #[test]
    fn wrong_tag_is_rejected() {
        assert!(decode_ack(&encode_found(None)).is_err());
        assert!(decode_request(&[0x77]).is_err());
    }

    #[test]
    fn truncated_request_is_rejected() {
        let msg = encode_get_nonces(&[[1u8; 32]]);
        assert!(decode_request(&msg[..msg.len() - 1]).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut msg = encode_ack();
        msg.push(0);
        assert!(decode_ack(&msg).is_err());
    }

    #[test]
    fn forged_entry_counts_are_rejected() {
        // Regression for the fuzz finding: a message declaring billions of
        // entries with a tiny body must produce a wire error, not an
        // allocation abort.
        let mut w = sse_net::wire::WireWriter::new();
        w.put_u8(REQ_TAGS::APPLY_UPDATES).put_u64(u64::MAX / 4);
        assert!(decode_request(&w.finish()).is_err());

        let mut w = sse_net::wire::WireWriter::new();
        w.put_u8(REQ_TAGS::GET_NONCES).put_u64(1 << 40);
        assert!(decode_request(&w.finish()).is_err());
    }
}
