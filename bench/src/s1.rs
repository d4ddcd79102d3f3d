//! `s1_traveler`: the paper's §6 traveler profile through the **real**
//! `PhrSystem<Scheme1Client<TcpTransport>>` — one bulk store of history in
//! set-up, then closed-loop `find_by_code` searches. Each search is two
//! wire rounds with an ElGamal decryption between them and a reply of
//! hundreds of encrypted records, so this is the one workload where
//! client crypto and large replies are meant to dominate. An *op* here is
//! one `find_by_code` call.

use crate::child::{Daemon, Storage};
use crate::replay::PhaseResult;
use crate::report::Report;
use crate::rng::SplitMix64;
use crate::run::{self, Inject, Measured, RunOpts, CONNS};
use crate::trace::hex;
use sse_core::scheme1::{Scheme1Client, Scheme1Config};
use sse_core::types::MasterKey;
use sse_phr::codes;
use sse_phr::record::{MedicalRecord, RecordKind};
use sse_phr::system::PhrSystem;
use sse_phr::workload::generate_records;
use sse_primitives::sha256::Sha256;
use sse_server::proto::SchemeId;
use sse_server::transport::TcpTransport;
use std::collections::BTreeMap;
use std::io::{Error, Result};
use std::time::Instant;

/// Scheme 1 bit-array capacity, on both sides (`--scheme1-capacity`).
pub const CAPACITY: u64 = 4096;
/// `find_by_code` calls per second this box sustains on one CPU, rounded
/// down; sizes the fixed op count like `run::rates`.
const FINDS_PER_S: f64 = 1_000.0;

pub type Phr<T> = PhrSystem<Scheme1Client<T>>;

/// One traveler: the history to store, the codes to look up, and the
/// plaintext oracle saying which record ids each code must return.
pub struct Traveler {
    pub tenant: String,
    pub key_seed: u64,
    pub records: Vec<MedicalRecord>,
    pub lookups: Vec<String>,
    pub oracle: BTreeMap<String, Vec<u64>>,
}

/// `history` records of which exactly a quarter are vaccinations — the
/// PHR generator's own one-in-four, made exact by drawing a surplus and
/// keeping the first of each kind. Left to chance the count moves by ±4 %
/// with the seed, and with it the size of the largest reply (≈ 100 KB,
/// every vaccination record): ten seeds read 61–100 µs of server CPU per
/// op, in two clusters either side of 500 records.
fn history_of(history: usize, seed: u64) -> Vec<MedicalRecord> {
    let (mut vaccinations, mut others) = (history / 4, history - history / 4);
    let mut records: Vec<MedicalRecord> = generate_records(history * 3 / 2, seed)
        .into_iter()
        .filter(|r| {
            let left = if r.kind == RecordKind::Vaccination {
                &mut vaccinations
            } else {
                &mut others
            };
            *left > 0 && {
                *left -= 1;
                true
            }
        })
        .collect();
    assert_eq!(records.len(), history, "the surplus ran short of a kind");
    for (id, r) in records.iter_mut().enumerate() {
        r.id = id as u64;
    }
    records
}

/// The §6 profile: a journalist checking vaccination validity — a third
/// of the searches ask for all vaccination records (the large reply), the
/// rest for one procedure code. Not half and half: the median of a
/// two-class mix that sits on the class boundary reads one class or the
/// other by the seed (1.07–1.42 ms over ten seeds).
pub fn gen_traveler(seed: u64, conn: usize, history: usize, lookups: usize) -> Traveler {
    let mut rng = SplitMix64::fork(seed, 0x400 + conn as u64);
    let records = history_of(history, rng.next_u64());
    let mut oracle: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for r in &records {
        let kind = r.kind.keyword().to_string();
        for code in r.codes.iter().chain([&kind]) {
            let ids = oracle.entry(code.clone()).or_default();
            if ids.last() != Some(&r.id) {
                ids.push(r.id);
            }
        }
    }
    let lookups = (0..lookups)
        .map(|_| {
            if rng.below(3) == 0 {
                RecordKind::Vaccination.keyword().to_string()
            } else {
                codes::PROCEDURES[rng.below(codes::PROCEDURES.len() as u64) as usize].to_string()
            }
        })
        .collect();
    Traveler {
        tenant: format!("traveler-{conn}"),
        key_seed: rng.next_u64(),
        records,
        lookups,
        oracle,
    }
}

/// SHA-256 over the stored payloads and the lookup sequence.
pub fn travelers_sha256(travelers: &[Traveler]) -> String {
    let mut h = Sha256::new();
    for t in travelers {
        h.update(t.tenant.as_bytes());
        for r in &t.records {
            h.update(&r.to_payload());
        }
        for code in &t.lookups {
            h.update(code.as_bytes());
            h.update(&[0]);
        }
    }
    hex(&h.finalize())
}

/// The real Scheme 1 client over any transport, seeded so the same
/// `--seed` sends the same bytes.
pub fn client_over<T: sse_net::link::Transport>(transport: T, t: &Traveler) -> Scheme1Client<T> {
    Scheme1Client::new_seeded(
        transport,
        MasterKey::from_seed(t.key_seed),
        Scheme1Config::fast_profile(CAPACITY),
        t.key_seed ^ 0x5EED,
    )
}

fn scheme_err(e: sse_core::SseError) -> Error {
    Error::other(e.to_string())
}

/// Do the found records carry exactly the ids the plaintext oracle lists
/// for `code`?
pub fn hits_match(t: &Traveler, code: &str, found: &[MedicalRecord]) -> bool {
    let mut ids: Vec<u64> = found.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    t.oracle
        .get(code)
        .map_or(ids.is_empty(), |want| *want == ids)
}

/// Closed loop of `find_by_code` calls on one connection.
fn run_finds(
    phr: &mut Phr<TcpTransport>,
    t: &Traveler,
    cap: std::time::Duration,
    corrupt_first: bool,
) -> Result<PhaseResult> {
    let mut res = PhaseResult::begin(t.lookups.len());
    let start = Instant::now();
    let mut sent_at = start;
    for (k, code) in t.lookups.iter().enumerate() {
        if sent_at - start > cap {
            break;
        }
        let mut found = phr.find_by_code(code).map_err(scheme_err)?;
        let now = Instant::now();
        if corrupt_first && k == 0 {
            found.pop();
        }
        res.attempted += 1;
        if !hits_match(t, code, &found) {
            res.failed += 1;
            res.first_failure.get_or_insert_with(|| {
                format!(
                    "find_by_code({code}) returned {} records, the plaintext oracle lists {}",
                    found.len(),
                    t.oracle.get(code).map_or(0, Vec::len)
                )
            });
        }
        res.search
            .push(res.cal.at_ref((now - sent_at).as_nanos() as u64));
        res.mark(now - start);
        sent_at = Instant::now();
    }
    res.wall = start.elapsed();
    Ok(res)
}

/// Run `s1_traveler` end to end.
///
/// # Errors
/// As [`run::run_replay`].
pub fn run(opts: &RunOpts) -> Result<Measured> {
    let mut report = Report::new(opts.workload);
    run::progress(&format!("{}: generating the profile", opts.workload));
    let history = if opts.smoke { 500 } else { 2_000 };
    let lookups = (FINDS_PER_S * opts.seconds) as usize;

    // Set-up is the traveler's one bulk store, through the real client.
    let (travelers, (daemon, mut phrs)) = run::timed_set_up(
        opts,
        &mut report,
        || -> Vec<Traveler> {
            (0..CONNS)
                .map(|c| gen_traveler(opts.seed, c, history, lookups))
                .collect()
        },
        |travelers, _| {
            let daemon = Daemon::spawn(&opts.serverd, Storage::InMemory)?;
            let mut phrs = Vec::with_capacity(CONNS);
            for t in travelers {
                let transport = TcpTransport::connect(&daemon.addr, &t.tenant, SchemeId::Scheme1)?;
                let mut phr = PhrSystem::new(client_over(transport, t));
                phr.add_records(&t.records).map_err(scheme_err)?;
                phrs.push(phr);
            }
            Ok((daemon, phrs))
        },
    )?;
    report.trace_sha256 = travelers_sha256(&travelers);

    let mut admin = TcpTransport::connect(&daemon.addr, &travelers[0].tenant, SchemeId::Scheme1)?;
    let corrupt = opts.inject == Some(Inject::CorruptReply);
    run::progress("lat phase");
    let lat = run::run_phase(&daemon, &mut admin, &mut phrs, |i, phr| {
        run_finds(
            phr,
            &travelers[i],
            run::cap(opts.seconds),
            corrupt && i == 0,
        )
    })?;
    run::tally(&mut report, &lat, "lat");
    run::set_latencies(&mut report, &lat);
    run::set_main(&mut report, &lat);
    run::set_totals(&mut report, &lat, &lat);
    report.set("failed_ratio", run::ratio(report.failed, report.attempted));
    run::progress("measured");
    Ok(Measured {
        report,
        traces: Vec::new(),
        data_dir: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sse_core::scheme1::InMemoryScheme1Client;

    #[test]
    fn traveler_profile_is_seeded_and_the_oracle_agrees_with_the_scheme() {
        let a = gen_traveler(5, 0, 200, 50);
        let b = gen_traveler(5, 0, 200, 50);
        let c = gen_traveler(6, 0, 200, 50);
        assert_eq!(travelers_sha256(&[a]), travelers_sha256(&[b]));
        let a = gen_traveler(5, 0, 200, 50);
        assert_ne!(travelers_sha256(&[a]), travelers_sha256(&[c]));

        let t = gen_traveler(5, 1, 200, 50);
        let vaccination = t
            .lookups
            .iter()
            .filter(|c| *c == "kind:vaccination")
            .count();
        assert!((5..30).contains(&vaccination), "{vaccination} of 50");
        assert_eq!(t.oracle["kind:vaccination"].len(), 50);
        let mut phr = PhrSystem::new(InMemoryScheme1Client::new_in_memory(
            MasterKey::from_seed(t.key_seed),
            Scheme1Config::fast_profile(CAPACITY),
        ));
        phr.add_records(&t.records).unwrap();
        for code in &t.lookups {
            let mut found = phr.find_by_code(code).unwrap();
            assert!(hits_match(&t, code, &found), "{code}");
            // A missing record is caught (unless there was none to lose).
            if found.pop().is_some() {
                assert!(!hits_match(&t, code, &found), "{code} minus one");
            }
        }
    }
}
