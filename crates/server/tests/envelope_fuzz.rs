//! Property tests for every decoder a peer's bytes reach before a scheme
//! server does: the hello, the request and response envelopes, the
//! `UPDATE_MANY` batch, the `DEGRADED` payload and the `ADMIN_STATS`
//! snapshot. Arbitrary bytes never panic; every valid encoding
//! round-trips; every truncation and every single-byte mutation of a
//! valid encoding decodes to `None` or to a value, never a panic.
//!
//! The counting allocator is installed so the stats decoder's allocation
//! bound can be checked: it allocates no more than its input's length,
//! whatever counts the input declares.

use proptest::prelude::*;
use sse_server::proto::{
    decode_batch, decode_degraded, decode_request, decode_response, encode_batch, encode_degraded,
    encode_request, encode_response, Hello, SchemeId, StatsSnapshot, MAX_STAT_NAME_LEN,
};
use std::sync::{Mutex, PoisonError};

#[global_allocator]
static ALLOC: allocmeter::CountingAlloc = allocmeter::CountingAlloc;

/// Bytes the calling thread allocated while running `f`. The counters
/// are process-wide, so measurements take turns.
fn bytes_allocated<T>(f: impl FnOnce() -> T) -> (T, u64) {
    static TURN: Mutex<()> = Mutex::new(());
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    allocmeter::track_current_thread();
    let before = allocmeter::counters();
    let out = f();
    let bytes = allocmeter::counters().since(&before).bytes;
    allocmeter::untrack_current_thread();
    (out, bytes)
}

/// Feed `bytes` to every decoder.
fn decode_all(bytes: &[u8]) {
    let _ = Hello::decode(bytes);
    let _ = decode_request(bytes);
    let _ = decode_response(bytes);
    let _ = decode_degraded(bytes);
    let _ = decode_batch(bytes);
    let (_, allocated) = bytes_allocated(|| StatsSnapshot::decode(bytes));
    assert!(
        allocated <= bytes.len() as u64,
        "stats decode allocated {allocated} B for {} B of input",
        bytes.len()
    );
}

/// Every prefix of `body` and every copy of it with one byte XORed by
/// `flip` (nonzero), each through [`decode_all`].
fn decode_damaged(body: &[u8], flip: u8) {
    for cut in 0..body.len() {
        decode_all(&body[..cut]);
    }
    let mut mutated = body.to_vec();
    for i in 0..mutated.len() {
        mutated[i] ^= flip;
        decode_all(&mutated);
        mutated[i] ^= flip;
    }
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

fn scheme(two: bool) -> SchemeId {
    if two {
        SchemeId::Scheme2
    } else {
        SchemeId::Scheme1
    }
}

/// A snapshot whose counters are `values`, in [`StatsSnapshot::NAMES`]
/// order.
fn snapshot(values: &[u64], shard_contention: Vec<u64>) -> StatsSnapshot {
    let mut snap = StatsSnapshot {
        shard_contention,
        ..StatsSnapshot::default()
    };
    for (name, value) in StatsSnapshot::NAMES.iter().zip(values) {
        *snap.field_mut(name).unwrap() = *value;
    }
    snap
}

/// Byte offset of the counter count in an encoded snapshot with `shards`
/// contention entries.
fn count_offset(shards: usize) -> usize {
    8 + 8 * shards
}

/// `body` (an encoded snapshot with `shards` contention entries) with one
/// more counter, `(name, value)`, inserted before its `at`-th counter.
fn with_extra_counter(body: &[u8], shards: usize, at: usize, name: &[u8], value: u64) -> Vec<u8> {
    let count_at = count_offset(shards);
    let count = u64::from_le_bytes(body[count_at..count_at + 8].try_into().unwrap());
    let mut off = count_at + 8;
    for _ in 0..at.min(count as usize) {
        off += 1 + usize::from(body[off]) + 8;
    }
    let mut out = body[..off].to_vec();
    out[count_at..count_at + 8].copy_from_slice(&(count + 1).to_le_bytes());
    out.push(name.len() as u8);
    out.extend_from_slice(name);
    out.extend_from_slice(&value.to_le_bytes());
    out.extend_from_slice(&body[off..]);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        decode_all(&bytes);
    }

    #[test]
    fn hello_round_trips_and_survives_damage(
        tenant in prop::collection::vec(any::<u8>(), 1..24),
        two in any::<bool>(),
        flip in 1u8..=255,
    ) {
        let hello = Hello { tenant: text(&tenant), scheme: scheme(two) };
        let body = hello.encode();
        prop_assert_eq!(Hello::decode(&body), Some(hello));
        decode_damaged(&body, flip);
    }

    #[test]
    fn envelopes_round_trip_and_survive_damage(
        kind in any::<u8>(),
        seq in any::<u32>(),
        payload in prop::collection::vec(any::<u8>(), 0..48),
        flip in 1u8..=255,
    ) {
        let request = encode_request(kind, seq, &payload);
        prop_assert_eq!(decode_request(&request), Some((kind, seq, &payload[..])));
        decode_damaged(&request, flip);
        let response = encode_response(kind, seq, &payload);
        prop_assert_eq!(decode_response(&response), Some((kind, seq, &payload[..])));
        decode_damaged(&response, flip);
    }

    #[test]
    fn batches_round_trip_and_survive_damage(
        parts in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..12), 0..6),
        flip in 1u8..=255,
    ) {
        let body = encode_batch(&parts);
        let decoded = decode_batch(&body).unwrap();
        prop_assert_eq!(decoded.len(), parts.len());
        for (got, want) in decoded.iter().zip(&parts) {
            prop_assert_eq!(*got, &want[..]);
        }
        decode_damaged(&body, flip);
    }

    #[test]
    fn degraded_round_trips_and_survives_damage(
        retry_after_ms in any::<u32>(),
        reason in prop::collection::vec(any::<u8>(), 0..32),
        flip in 1u8..=255,
    ) {
        let reason = text(&reason);
        let body = encode_degraded(retry_after_ms, &reason);
        prop_assert_eq!(decode_degraded(&body), Some((retry_after_ms, reason)));
        decode_damaged(&body, flip);
    }

    #[test]
    fn stats_round_trip_and_survive_damage(
        values in prop::collection::vec(any::<u64>(), StatsSnapshot::NAMES.len()),
        contention in prop::collection::vec(any::<u64>(), 0..5),
        flip in 1u8..=255,
    ) {
        let snap = snapshot(&values, contention);
        let body = snap.encode();
        prop_assert_eq!(StatsSnapshot::decode(&body), Some(snap));
        decode_damaged(&body, flip);
    }

    #[test]
    fn stats_skip_an_unknown_counter_wherever_it_sits(
        values in prop::collection::vec(any::<u64>(), StatsSnapshot::NAMES.len()),
        shards in 0usize..4,
        at in any::<usize>(),
        name in prop::collection::vec(any::<u8>(), 0..=MAX_STAT_NAME_LEN),
        value in any::<u64>(),
    ) {
        let known = StatsSnapshot::NAMES.iter().any(|n| n.as_bytes() == &name[..]);
        prop_assume!(!known);
        let snap = snapshot(&values, vec![7; shards]);
        let body = snap.encode();
        let at = at % (StatsSnapshot::NAMES.len() + 1);
        let extended = with_extra_counter(&body, shards, at, &name, value);
        prop_assert_eq!(StatsSnapshot::decode(&extended), StatsSnapshot::decode(&body));
    }

    #[test]
    fn stats_reject_a_forged_counter_count_without_reserving_for_it(
        shards in 0usize..4,
        excess in 1u64..=u64::MAX - 1024,
    ) {
        let body = snapshot(&[], vec![1; shards]).encode();
        let count_at = count_offset(shards);
        let mut forged = body.clone();
        let count = u64::from_le_bytes(body[count_at..count_at + 8].try_into().unwrap());
        forged[count_at..count_at + 8].copy_from_slice(&(count + excess).to_le_bytes());
        let (decoded, allocated) = bytes_allocated(|| StatsSnapshot::decode(&forged));
        prop_assert_eq!(decoded, None);
        // At most the contention vector, which the payload does hold.
        prop_assert!(allocated <= 8 * shards as u64, "allocated {allocated} B");
    }
}
