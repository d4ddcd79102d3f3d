//! Protocol fragments shared by both schemes' wire formats: document
//! upload, acknowledgements, search results and error responses, plus the
//! client-side send and open steps both scheme clients share.

use crate::error::{Result, SseError};
use crate::types::{Document, SearchHits};
use sse_net::link::Transport;
use sse_net::wire::{WireReader, WireWriter};
use sse_primitives::drbg::HmacDrbg;
use sse_primitives::etm::EtmKey;

/// Shared response tag bytes.
pub mod resp {
    /// Generic acknowledgement.
    pub const ACK: u8 = 0x81;
    /// Search result: list of `(doc id, encrypted blob)`.
    pub const RESULT: u8 = 0x85;
    /// Batched search result: one result list per queried keyword.
    pub const RESULT_MANY: u8 = 0x86;
    /// Server-side error with a message.
    pub const ERROR: u8 = 0xFF;
}

/// Encode `Ack`.
#[must_use]
pub fn encode_ack() -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(resp::ACK);
    w.finish()
}

/// Encode an error response.
#[must_use]
pub fn encode_error(msg: &str) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(resp::ERROR).put_bytes(msg.as_bytes());
    w.finish()
}

/// Encode a search result into one allocation of exactly its length: the
/// tag and count (9 B), then each document's id and length prefix (16 B)
/// and blob.
#[must_use]
pub fn encode_result(docs: &[(u64, Vec<u8>)]) -> Vec<u8> {
    let len = 9 + docs.iter().map(|(_, blob)| 16 + blob.len()).sum::<usize>();
    let mut w = WireWriter::with_capacity(len);
    w.put_u8(resp::RESULT).put_u64(docs.len() as u64);
    for (id, blob) in docs {
        w.put_u64(*id).put_bytes(blob);
    }
    w.finish()
}

/// Read and check a response tag; converts server `Error` responses into
/// [`SseError::ProtocolViolation`].
pub fn expect_tag(r: &mut WireReader<'_>, want: u8, what: &'static str) -> Result<()> {
    let got = r.get_u8()?;
    if got == resp::ERROR {
        let msg = String::from_utf8_lossy(r.get_bytes()?).into_owned();
        return Err(SseError::ProtocolViolation {
            expected: what,
            got: format!("server error: {msg}"),
        });
    }
    if got != want {
        return Err(SseError::ProtocolViolation {
            expected: what,
            got: format!("tag {got:#04x}"),
        });
    }
    Ok(())
}

/// Decode `Ack`.
///
/// # Errors
/// Protocol violations and wire errors.
pub fn decode_ack(buf: &[u8]) -> Result<()> {
    let mut r = WireReader::new(buf);
    expect_tag(&mut r, resp::ACK, "Ack")?;
    r.finish()?;
    Ok(())
}

/// Decode a search result. Each blob is a slice of `buf`: the client
/// opens it from there into the one `Vec` the plaintext needs.
///
/// # Errors
/// Protocol violations and wire errors.
pub fn decode_result(buf: &[u8]) -> Result<Vec<(u64, &[u8])>> {
    let mut r = WireReader::new(buf);
    expect_tag(&mut r, resp::RESULT, "Result")?;
    let n = r.get_count(16)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let id = r.get_u64()?;
        out.push((id, r.get_bytes()?));
    }
    r.finish()?;
    Ok(out)
}

/// [`decode_result`] with owned blobs, for tests that compare a reply
/// against the documents they stored.
#[cfg(test)]
pub(crate) fn decode_result_owned(buf: &[u8]) -> Result<Vec<(u64, Vec<u8>)>> {
    Ok(decode_result(buf)?
        .into_iter()
        .map(|(id, blob)| (id, blob.to_vec()))
        .collect())
}

/// Encode a batched search result: one `(id, blob)` list per queried
/// keyword, position-aligned with the request.
#[must_use]
pub fn encode_result_many(results: &[Vec<(u64, Vec<u8>)>]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(resp::RESULT_MANY).put_u64(results.len() as u64);
    for docs in results {
        w.put_u64(docs.len() as u64);
        for (id, blob) in docs {
            w.put_u64(*id).put_bytes(blob);
        }
    }
    w.finish()
}

/// One `(doc id, encrypted blob)` result list per queried keyword, each
/// blob a slice of the reply it was decoded from.
pub type ResultLists<'a> = Vec<Vec<(u64, &'a [u8])>>;

/// Decode a batched search result (blobs borrowed from `buf`, as in
/// [`decode_result`]).
///
/// # Errors
/// Protocol violations and wire errors.
pub fn decode_result_many(buf: &[u8]) -> Result<ResultLists<'_>> {
    let mut r = WireReader::new(buf);
    expect_tag(&mut r, resp::RESULT_MANY, "ResultMany")?;
    let n = r.get_count(8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let m = r.get_count(16)?;
        let mut docs = Vec::with_capacity(m);
        for _ in 0..m {
            let id = r.get_u64()?;
            docs.push((id, r.get_bytes()?));
        }
        out.push(docs);
    }
    r.finish()?;
    Ok(out)
}

/// Encode a `PutDocs` body (after the scheme-specific request tag byte).
pub fn put_docs_body(w: &mut WireWriter, docs: &[(u64, Vec<u8>)]) {
    w.put_u64(docs.len() as u64);
    for (id, blob) in docs {
        w.put_u64(*id).put_bytes(blob);
    }
}

/// Decode a `PutDocs` body. Each blob is a slice of the request: the
/// server stores it from there, so the store's log frames it straight
/// from the bytes that arrived.
///
/// # Errors
/// Wire errors.
pub fn decode_put_docs_body<'a>(r: &mut WireReader<'a>) -> Result<Vec<(u64, &'a [u8])>> {
    let n = r.get_count(16)?;
    let mut docs = Vec::with_capacity(n);
    for _ in 0..n {
        let id = r.get_u64()?;
        docs.push((id, r.get_bytes()?));
    }
    Ok(docs)
}

/// Client side: send one request and check its `Ack`.
pub(crate) fn send<T: Transport>(link: &mut T, request: &[u8]) -> Result<()> {
    decode_ack(&link.round_trip(request)?)
}

/// Client side: send update messages and check every `Ack` — through
/// [`Transport::round_trip_batch`] when `batch` (no round for no parts;
/// every reply the transport returns must be an `Ack`, and a non-empty
/// batch must get at least one), else one [`send`] each, stopping at the
/// first failure.
pub(crate) fn send_all<T: Transport>(link: &mut T, parts: &[Vec<u8>], batch: bool) -> Result<()> {
    if !batch {
        return parts.iter().try_for_each(|p| send(link, p));
    }
    if parts.is_empty() {
        return Ok(());
    }
    let replies = link.round_trip_batch(parts)?;
    if replies.is_empty() {
        return Err(SseError::ProtocolViolation {
            expected: "Ack",
            got: format!("no reply to a batch of {}", parts.len()),
        });
    }
    replies.iter().try_for_each(|reply| decode_ack(reply))
}

/// Client side: `(id, E_km(M_i))` for each document, each under a fresh
/// IV drawn from the client's DRBG (so seeded runs are reproducible).
pub(crate) fn seal_blobs(
    etm: &EtmKey,
    drbg: &mut HmacDrbg,
    docs: &[Document],
) -> Vec<(u64, Vec<u8>)> {
    let seal = |d: &Document| {
        let mut iv = [0u8; 12];
        drbg.fill(&mut iv);
        (d.id, etm.seal_with_iv(&iv, &d.data))
    };
    docs.iter().map(seal).collect()
}

/// Client side: open every blob of a decoded result list under the data
/// key.
pub(crate) fn open_hits(etm: &EtmKey, encrypted: Vec<(u64, &[u8])>) -> Result<SearchHits> {
    let mut hits = Vec::with_capacity(encrypted.len());
    for (id, blob) in encrypted {
        hits.push((id, etm.open(blob)?));
    }
    Ok(hits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_round_trip() {
        decode_ack(&encode_ack()).unwrap();
    }

    #[test]
    fn result_round_trip() {
        let docs = vec![(1u64, vec![1, 2]), (2, vec![])];
        let encoded = encode_result(&docs);
        assert_eq!(
            encoded.len(),
            encoded.capacity(),
            "sized exactly, never grown"
        );
        assert_eq!(decode_result_owned(&encoded).unwrap(), docs);
    }

    #[test]
    fn error_surfaces_message() {
        let e = decode_ack(&encode_error("nope")).unwrap_err();
        assert!(e.to_string().contains("nope"));
    }

    #[test]
    fn result_many_round_trip() {
        let results = vec![
            vec![(1u64, vec![1, 2]), (2, vec![])],
            vec![],
            vec![(9, vec![9])],
        ];
        let encoded = encode_result_many(&results);
        let decoded = decode_result_many(&encoded).unwrap();
        let owned: Vec<Vec<(u64, Vec<u8>)>> = decoded
            .into_iter()
            .map(|docs| docs.into_iter().map(|(id, b)| (id, b.to_vec())).collect())
            .collect();
        assert_eq!(owned, results);
    }

    /// A transport with a wire-level batch, whose every batch gets
    /// `replies`.
    struct Batching(Vec<Vec<u8>>);

    impl Transport for Batching {
        fn round_trip(&mut self, _: &[u8]) -> std::io::Result<Vec<u8>> {
            Ok(encode_ack())
        }

        fn round_trip_batch(&mut self, _: &[Vec<u8>]) -> std::io::Result<Vec<Vec<u8>>> {
            Ok(self.0.clone())
        }
    }

    #[test]
    fn send_all_checks_every_reply_a_batch_gets() {
        let parts = [vec![1], vec![2], vec![3]];
        send_all(&mut Batching(vec![encode_ack()]), &parts, true).unwrap();
        send_all(&mut Batching(vec![]), &[], true).unwrap();
        let none = send_all(&mut Batching(vec![]), &parts, true).unwrap_err();
        assert!(
            none.to_string().contains("no reply to a batch of 3"),
            "{none}"
        );
        let err = vec![encode_ack(), encode_error("nope")];
        assert!(send_all(&mut Batching(err), &parts, true).is_err());
    }

    #[test]
    fn put_docs_body_round_trip() {
        let docs = vec![(7u64, b"x".to_vec())];
        let mut w = WireWriter::new();
        put_docs_body(&mut w, &docs);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        let decoded = decode_put_docs_body(&mut r).unwrap();
        assert_eq!(decoded, [(7, &b"x"[..])]);
        // The blob is read in place: the 1-byte blob ends the buffer.
        assert!(std::ptr::eq(decoded[0].1, &buf[24..]));
        r.finish().unwrap();
    }
}
