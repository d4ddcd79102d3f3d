//! Scheme 2 wire protocol — Figures 3 and 4, one request per arrow.

use crate::error::{Result, SseError};
use crate::proto_common;
use sse_net::wire::{WireReader, WireWriter};

/// Request tag bytes.
pub mod req {
    /// Store encrypted data items (`DataStorage`).
    pub const PUT_DOCS: u8 = 0x01;
    /// `MetadataStorage` (Fig. 3): append masked generations. One round.
    pub const APPEND_GENERATIONS: u8 = 0x10;
    /// `Search` (Fig. 4): tag + chain trapdoor. One round.
    pub const SEARCH: u8 = 0x11;
    /// Drop the keyword index (client re-initializes after chain
    /// exhaustion, §5.6). Document blobs are kept.
    pub const RESET_INDEX: u8 = 0x12;
    /// Batched `Search`: several trapdoors in one round (protocol
    /// extension for boolean queries).
    pub const SEARCH_MANY: u8 = 0x13;
    /// Delete document blobs (the deletion extension; posting-side removal
    /// travels as delete entries inside `APPEND_GENERATIONS`).
    pub const REMOVE_DOCS: u8 = 0x14;
    /// Ask a durable server to checkpoint its store + index to disk.
    pub const CHECKPOINT: u8 = 0x15;
}

/// Whether the request tagged `tag` only reads the server's state: what a
/// degraded (read-only) tenant may still serve. An unknown tag is not a
/// read.
#[must_use]
pub const fn is_read(tag: u8) -> bool {
    matches!(tag, req::SEARCH | req::SEARCH_MANY)
}

/// One generation to append: `(f_kw(w), E_k(I_new), f'(k))`.
#[derive(Clone)]
pub struct GenerationEntry {
    /// `f_kw(w)`.
    pub tag: [u8; 32],
    /// `E_k(I_{j+1}(w))` — the sealed list of new document ids.
    pub sealed_ids: Vec<u8>,
    /// `f'(k_{j+1}(w))`.
    pub commitment: [u8; 32],
}

/// A [`GenerationEntry`] borrowed from the encoded request.
#[derive(Clone, Copy)]
pub struct GenerationEntryRef<'a> {
    /// `f_kw(w)`.
    pub tag: [u8; 32],
    /// `E_k(I_{j+1}(w))`, in place in the request.
    pub sealed_ids: &'a [u8],
    /// `f'(k_{j+1}(w))`.
    pub commitment: [u8; 32],
}

/// Encode `PutDocs`.
#[must_use]
pub fn encode_put_docs(docs: &[(u64, Vec<u8>)]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(req::PUT_DOCS);
    proto_common::put_docs_body(&mut w, docs);
    w.finish()
}

/// Encode `AppendGenerations`.
#[must_use]
pub fn encode_append_generations(entries: &[GenerationEntry]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(req::APPEND_GENERATIONS)
        .put_u64(entries.len() as u64);
    for e in entries {
        w.put_array(&e.tag);
        w.put_bytes(&e.sealed_ids);
        w.put_array(&e.commitment);
    }
    w.finish()
}

/// Encode `Search` with trapdoor `T_w = (t_w, t'_w)`.
#[must_use]
pub fn encode_search(tag: &[u8; 32], t_prime: &[u8; 32]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(req::SEARCH).put_array(tag).put_array(t_prime);
    w.finish()
}

/// Encode `SearchMany` with one trapdoor per queried keyword.
#[must_use]
pub fn encode_search_many(trapdoors: &[([u8; 32], [u8; 32])]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(req::SEARCH_MANY).put_u64(trapdoors.len() as u64);
    for (tag, t_prime) in trapdoors {
        w.put_array(tag).put_array(t_prime);
    }
    w.finish()
}

/// Encode `RemoveDocs`.
#[must_use]
pub fn encode_remove_docs(ids: &[u64]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(req::REMOVE_DOCS).put_u64_vec(ids);
    w.finish()
}

/// Encode `Checkpoint`.
#[must_use]
pub fn encode_checkpoint() -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(req::CHECKPOINT);
    w.finish()
}

/// Encode `ResetIndex`.
#[must_use]
pub fn encode_reset_index() -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(req::RESET_INDEX);
    w.finish()
}

/// Decode an `AppendGenerations` without copying its sealed ids: what
/// the server applies, so each generation goes from the record straight
/// into its keyword's list. The whole request is checked before the
/// entries are returned.
///
/// # Errors
/// Wire errors on malformed input, or any other request.
pub fn decode_append_generations(buf: &[u8]) -> Result<Vec<GenerationEntryRef<'_>>> {
    let mut r = WireReader::new(buf);
    match r.get_u8()? {
        req::APPEND_GENERATIONS => {}
        other => return Err(SseError::Wire(sse_net::wire::WireError::UnknownTag(other))),
    }
    let entries = decode_entries(&mut r, |e| e)?;
    r.finish()?;
    Ok(entries)
}

/// The entries of an `AppendGenerations` body, each mapped by `f`.
fn decode_entries<'a, T>(
    r: &mut WireReader<'a>,
    f: impl Fn(GenerationEntryRef<'a>) -> T,
) -> Result<Vec<T>> {
    let n = r.get_count(72)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(f(GenerationEntryRef {
            tag: r.get_array32()?,
            sealed_ids: r.get_bytes()?,
            commitment: r.get_array32()?,
        }));
    }
    Ok(entries)
}

/// A decoded client request (server side).
pub enum Request {
    /// `DataStorage` upload.
    PutDocs(Vec<(u64, Vec<u8>)>),
    /// Fig. 3 append.
    AppendGenerations(Vec<GenerationEntry>),
    /// Fig. 4 search.
    Search {
        /// `f_kw(w)`.
        tag: [u8; 32],
        /// `t'_w = h^{l-ctr}(w ‖ k_w)`.
        t_prime: [u8; 32],
    },
    /// Index reset for epoch re-initialization.
    ResetIndex,
    /// Batched Fig. 4 search: several `(t_w, t'_w)` trapdoors.
    SearchMany(Vec<([u8; 32], [u8; 32])>),
    /// Delete document blobs by id.
    RemoveDocs(Vec<u64>),
    /// Flush durable state to disk.
    Checkpoint,
}

/// Decode any client request.
///
/// # Errors
/// Wire errors on malformed input.
pub fn decode_request(buf: &[u8]) -> Result<Request> {
    let mut r = WireReader::new(buf);
    let tag = r.get_u8()?;
    let request = match tag {
        req::PUT_DOCS => Request::PutDocs(proto_common::decode_put_docs_body(&mut r)?),
        req::APPEND_GENERATIONS => {
            Request::AppendGenerations(decode_entries(&mut r, |e| GenerationEntry {
                tag: e.tag,
                sealed_ids: e.sealed_ids.to_vec(),
                commitment: e.commitment,
            })?)
        }
        req::SEARCH => Request::Search {
            tag: r.get_array32()?,
            t_prime: r.get_array32()?,
        },
        req::RESET_INDEX => Request::ResetIndex,
        req::REMOVE_DOCS => Request::RemoveDocs(r.get_u64_vec()?),
        req::CHECKPOINT => Request::Checkpoint,
        req::SEARCH_MANY => {
            let n = r.get_count(64)?;
            let mut trapdoors = Vec::with_capacity(n);
            for _ in 0..n {
                let tag = r.get_array32()?;
                let t_prime = r.get_array32()?;
                trapdoors.push((tag, t_prime));
            }
            Request::SearchMany(trapdoors)
        }
        other => return Err(SseError::Wire(sse_net::wire::WireError::UnknownTag(other))),
    };
    r.finish()?;
    Ok(request)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_generations_round_trip() {
        let entries = vec![
            GenerationEntry {
                tag: [1u8; 32],
                sealed_ids: vec![9, 9, 9],
                commitment: [2u8; 32],
            },
            GenerationEntry {
                tag: [3u8; 32],
                sealed_ids: vec![],
                commitment: [4u8; 32],
            },
        ];
        let encoded = encode_append_generations(&entries);
        match decode_request(&encoded).unwrap() {
            Request::AppendGenerations(e) => {
                assert_eq!(e.len(), 2);
                assert_eq!(e[0].tag, [1u8; 32]);
                assert_eq!(e[0].sealed_ids, vec![9, 9, 9]);
                assert_eq!(e[1].commitment, [4u8; 32]);
            }
            _ => panic!("wrong variant"),
        }
        // The borrowed decode reads the same entries, in place.
        let borrowed = decode_append_generations(&encoded).unwrap();
        assert_eq!(borrowed.len(), 2);
        for (b, e) in borrowed.iter().zip(&entries) {
            assert_eq!(
                (b.tag, b.sealed_ids, b.commitment),
                (e.tag, &e.sealed_ids[..], e.commitment)
            );
        }
        // and refuses what `decode_request` refuses, or another request.
        let mut trailing = encoded.clone();
        trailing.push(0);
        assert!(decode_append_generations(&trailing).is_err());
        assert!(decode_append_generations(&encoded[..encoded.len() - 1]).is_err());
        assert!(decode_append_generations(&encode_reset_index()).is_err());
    }

    #[test]
    fn search_round_trip() {
        match decode_request(&encode_search(&[5u8; 32], &[6u8; 32])).unwrap() {
            Request::Search { tag, t_prime } => {
                assert_eq!(tag, [5u8; 32]);
                assert_eq!(t_prime, [6u8; 32]);
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn reset_and_put_docs_round_trip() {
        assert!(matches!(
            decode_request(&encode_reset_index()).unwrap(),
            Request::ResetIndex
        ));
        match decode_request(&encode_put_docs(&[(1, vec![2])])).unwrap() {
            Request::PutDocs(d) => assert_eq!(d, vec![(1, vec![2])]),
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn search_many_round_trip() {
        let trapdoors = vec![([1u8; 32], [2u8; 32]), ([3u8; 32], [4u8; 32])];
        match decode_request(&encode_search_many(&trapdoors)).unwrap() {
            Request::SearchMany(t) => assert_eq!(t, trapdoors),
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn remove_docs_round_trip() {
        match decode_request(&encode_remove_docs(&[3, 5])).unwrap() {
            Request::RemoveDocs(ids) => assert_eq!(ids, vec![3, 5]),
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(decode_request(&[0x55]).is_err());
    }

    #[test]
    fn truncated_rejected() {
        let msg = encode_search(&[1u8; 32], &[2u8; 32]);
        assert!(decode_request(&msg[..msg.len() - 5]).is_err());
    }
}
