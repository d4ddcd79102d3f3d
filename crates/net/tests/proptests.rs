//! Property-based tests for the transport layer: frame decoding under
//! arbitrary chunking, and wire-codec round trips for arbitrary field
//! sequences.

use proptest::prelude::*;
use sse_net::frame::{encode_frame, FrameDecoder, StreamingDecoder, MAX_FRAME_LEN};
use sse_net::pool::{BufPool, PooledBuf};
use sse_net::wire::{WireReader, WireWriter};

/// Split `stream` at the given (arbitrary) boundaries, producing the
/// adversarial TCP segmentation the streaming decoder must survive —
/// anything from byte-at-a-time to fully coalesced, including empty
/// segments.
fn segment(stream: &[u8], cuts: &[usize]) -> Vec<Vec<u8>> {
    let mut points: Vec<usize> = cuts.iter().map(|c| c % (stream.len() + 1)).collect();
    points.push(0);
    points.push(stream.len());
    points.sort_unstable();
    points
        .windows(2)
        .map(|w| stream[w[0]..w[1]].to_vec())
        .collect()
}

/// The decoded frames as owned bytes, comparable with the oracle's.
fn owned(frames: &[PooledBuf]) -> Vec<Vec<u8>> {
    frames.iter().map(|f| f.to_vec()).collect()
}

/// A field in a synthetic wire message.
#[derive(Clone, Debug)]
enum Field {
    U8(u8),
    U32(u32),
    U64(u64),
    Bytes(Vec<u8>),
    U64Vec(Vec<u64>),
}

fn field_strategy() -> impl Strategy<Value = Field> {
    prop_oneof![
        any::<u8>().prop_map(Field::U8),
        any::<u32>().prop_map(Field::U32),
        any::<u64>().prop_map(Field::U64),
        prop::collection::vec(any::<u8>(), 0..100).prop_map(Field::Bytes),
        prop::collection::vec(any::<u64>(), 0..20).prop_map(Field::U64Vec),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wire_round_trips_arbitrary_field_sequences(
        fields in prop::collection::vec(field_strategy(), 0..20)
    ) {
        let mut w = WireWriter::new();
        for f in &fields {
            match f {
                Field::U8(v) => { w.put_u8(*v); }
                Field::U32(v) => { w.put_u32(*v); }
                Field::U64(v) => { w.put_u64(*v); }
                Field::Bytes(v) => { w.put_bytes(v); }
                Field::U64Vec(v) => { w.put_u64_vec(v); }
            }
        }
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        for f in &fields {
            match f {
                Field::U8(v) => prop_assert_eq!(r.get_u8().unwrap(), *v),
                Field::U32(v) => prop_assert_eq!(r.get_u32().unwrap(), *v),
                Field::U64(v) => prop_assert_eq!(r.get_u64().unwrap(), *v),
                Field::Bytes(v) => prop_assert_eq!(r.get_bytes().unwrap(), &v[..]),
                Field::U64Vec(v) => prop_assert_eq!(&r.get_u64_vec().unwrap(), v),
            }
        }
        r.finish().unwrap();
    }

    #[test]
    fn truncated_wire_messages_never_panic(
        fields in prop::collection::vec(field_strategy(), 1..10),
        cut in any::<usize>(),
    ) {
        let mut w = WireWriter::new();
        for f in &fields {
            match f {
                Field::U8(v) => { w.put_u8(*v); }
                Field::U32(v) => { w.put_u32(*v); }
                Field::U64(v) => { w.put_u64(*v); }
                Field::Bytes(v) => { w.put_bytes(v); }
                Field::U64Vec(v) => { w.put_u64_vec(v); }
            }
        }
        let buf = w.finish();
        let cut = cut % (buf.len() + 1);
        // Reading the truncated buffer must return errors, never panic.
        let mut r = WireReader::new(&buf[..cut]);
        for f in &fields {
            let res = match f {
                Field::U8(_) => r.get_u8().map(|_| ()),
                Field::U32(_) => r.get_u32().map(|_| ()),
                Field::U64(_) => r.get_u64().map(|_| ()),
                Field::Bytes(_) => r.get_bytes().map(|_| ()),
                Field::U64Vec(_) => r.get_u64_vec().map(|_| ()),
            };
            if res.is_err() {
                break;
            }
        }
    }

    #[test]
    fn frames_survive_arbitrary_chunking(
        bodies in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..300), 1..10),
        chunk_size in 1usize..64,
    ) {
        let mut stream = Vec::new();
        for b in &bodies {
            stream.extend_from_slice(&encode_frame(b));
        }
        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        for chunk in stream.chunks(chunk_size) {
            decoder.push(chunk);
            while let Some(frame) = decoder.next_frame().unwrap() {
                decoded.push(frame);
            }
        }
        prop_assert_eq!(decoded, bodies);
        prop_assert_eq!(decoder.buffered(), 0);
    }

    /// The streaming decoder is observationally identical to the one-shot
    /// decoder under arbitrary segmentation: same frames out, in order,
    /// no partial bytes left when the stream ends on a boundary.
    #[test]
    fn streaming_decoder_matches_one_shot_under_any_segmentation(
        bodies in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..300), 1..10),
        cuts in prop::collection::vec(any::<usize>(), 0..40),
    ) {
        let mut stream = Vec::new();
        for b in &bodies {
            stream.extend_from_slice(&encode_frame(b));
        }

        let mut oracle = FrameDecoder::new();
        oracle.push(&stream);
        let mut expected = Vec::new();
        while let Some(frame) = oracle.next_frame().unwrap() {
            expected.push(frame);
        }

        let mut streaming = StreamingDecoder::new();
        let mut frames = Vec::new();
        for chunk in segment(&stream, &cuts) {
            streaming.feed_pooled(&chunk, &mut frames).unwrap();
        }
        let got = owned(&frames);
        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(got, bodies);
        prop_assert_eq!(streaming.buffered(), 0);
    }

    /// Truncating the byte stream at every possible offset leaves both
    /// decoders agreeing: the same complete frames decoded, the same
    /// count of leftover partial bytes, and no error from a merely
    /// truncated (as opposed to forged) stream.
    #[test]
    fn streaming_decoder_matches_one_shot_under_truncation(
        bodies in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..120), 1..6),
        cut in any::<usize>(),
        cuts in prop::collection::vec(any::<usize>(), 0..10),
    ) {
        let mut stream = Vec::new();
        for b in &bodies {
            stream.extend_from_slice(&encode_frame(b));
        }
        let cut = cut % (stream.len() + 1);
        let stream = &stream[..cut];

        let mut oracle = FrameDecoder::new();
        oracle.push(stream);
        let mut expected = Vec::new();
        while let Some(frame) = oracle.next_frame().unwrap() {
            expected.push(frame);
        }

        let mut streaming = StreamingDecoder::new();
        let mut frames = Vec::new();
        for chunk in segment(stream, &cuts) {
            streaming.feed_pooled(&chunk, &mut frames).unwrap();
        }
        let got = owned(&frames);
        prop_assert_eq!(got, expected);
        prop_assert_eq!(streaming.buffered(), oracle.buffered());
    }

    /// The pooled decoder is observationally identical to the one-shot
    /// decoder for every segmentation **and** every pool shape: the same
    /// frame bytes come out whether bodies land in recycled class
    /// buffers, fresh ones, or oversize exact allocations — and when the
    /// views drop, the pool's books balance (nothing poisoned, free
    /// lists inside the configured bound, no buffer re-acquired without
    /// having been recycled first).
    #[test]
    fn pooled_decoder_matches_one_shot_for_any_chunking_and_pool_shape(
        bodies in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..300), 1..10),
        cuts in prop::collection::vec(any::<usize>(), 0..40),
        ladder_pick in 0usize..4,
        max_free in 0usize..5,
    ) {
        let ladders: [&[usize]; 4] = [
            &[16, 64, 256],
            &[32, 1024],
            &[8],
            &[64, 256, 1024, 4096],
        ];
        let ladder = ladders[ladder_pick];
        let pool = BufPool::with_config(ladder, max_free);

        let mut stream = Vec::new();
        for b in &bodies {
            stream.extend_from_slice(&encode_frame(b));
        }
        let mut oracle = FrameDecoder::new();
        oracle.push(&stream);
        let mut expected = Vec::new();
        while let Some(frame) = oracle.next_frame().unwrap() {
            expected.push(frame);
        }

        let mut pooled = StreamingDecoder::with_pool(MAX_FRAME_LEN, pool.clone());
        let mut got: Vec<PooledBuf> = Vec::new();
        for chunk in segment(&stream, &cuts) {
            pooled.feed_pooled(&chunk, &mut got).unwrap();
        }
        prop_assert_eq!(got.len(), expected.len());
        for (view, frame) in got.iter().zip(&expected) {
            prop_assert_eq!(&view[..], &frame[..]);
        }

        drop(got);
        drop(pooled);
        let c = pool.counters();
        prop_assert_eq!(c.poisoned, 0);
        prop_assert!(c.hits <= c.recycles, "a hit needs a prior recycle");
        prop_assert!(c.recycles <= c.hits + c.misses);
        prop_assert!(pool.free_buffers() <= ladder.len() * max_free);
    }

    /// A forged length prefix (beyond the configured limit) fails both
    /// decoders with the same declared length, at the same frame
    /// position, regardless of how the bytes were segmented — and any
    /// clean frames before it decode identically first.
    #[test]
    fn forged_length_prefixes_fail_both_decoders_identically(
        bodies in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..60), 0..4),
        forged_len in 1025u32..u32::MAX,
        tail in prop::collection::vec(any::<u8>(), 0..40),
        cuts in prop::collection::vec(any::<usize>(), 0..12),
    ) {
        const LIMIT: u32 = 1024;
        let mut stream = Vec::new();
        for b in &bodies {
            stream.extend_from_slice(&encode_frame(b));
        }
        stream.extend_from_slice(&forged_len.to_le_bytes());
        stream.extend_from_slice(&tail);

        let mut oracle = FrameDecoder::with_max_len(LIMIT);
        oracle.push(&stream);
        let mut expected = Vec::new();
        let oracle_err = loop {
            match oracle.next_frame() {
                Ok(Some(frame)) => expected.push(frame),
                Ok(None) => break None,
                Err(e) => break Some(e),
            }
        };
        let oracle_err = oracle_err.expect("forged prefix must error the oracle");

        let mut streaming = StreamingDecoder::with_max_len(LIMIT);
        let mut frames = Vec::new();
        let mut streaming_err = None;
        for chunk in segment(&stream, &cuts) {
            if let Err(e) = streaming.feed_pooled(&chunk, &mut frames) {
                streaming_err = Some(e);
                break;
            }
        }
        let got = owned(&frames);
        prop_assert_eq!(streaming_err, Some(oracle_err));
        prop_assert_eq!(got, expected);
    }
}
