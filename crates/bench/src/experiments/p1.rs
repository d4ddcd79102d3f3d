//! P1 — the primitive costs behind Table 1's constants.
//!
//! Table 1 prices the schemes in primitive operations (hash steps, PRF
//! calls, modexps, tree lookups); this table prices those operations, so a
//! scheme-level number can be traced to its building blocks: ElGamal
//! modexp dominating Scheme 1's client, hash steps dominating Scheme 2's
//! server walk. Rows keep the `group/case[/parameter]` names EXPERIMENTS.md
//! and DESIGN.md cite. Every cell is [`batched_median_nanos`]: the median
//! over samples of (batch time / batch size). Constant inputs pass through
//! [`black_box`] so the compiler cannot fold the call out of the batch.

use crate::table::{fmt_nanos, Table};
use crate::timing::batched_median_nanos;
use crate::Scale;
use sse_index::bptree::BpTree;
use sse_index::postings::GenerationList;
use sse_primitives::aes::Aes128;
use sse_primitives::bignum::{BigUint, FixedBase};
use sse_primitives::chacha20::prg_expand;
use sse_primitives::drbg::HmacDrbg;
use sse_primitives::elgamal::ElGamal;
use sse_primitives::etm::EtmKey;
use sse_primitives::hashchain::{
    chain_commitment, chain_step, walk_forward, ChainWalker, HashChain,
};
use sse_primitives::hmac::hmac_sha256;
use sse_primitives::modp::ModpGroup;
use sse_primitives::sha256::sha256;
use std::hint::black_box;

/// The P1 table under construction and the samples each row takes.
struct Rows {
    table: Table,
    samples: usize,
}

impl Rows {
    /// Time `f` and add its row; `bytes` adds a throughput cell.
    fn time<R>(&mut self, name: &str, bytes: Option<usize>, f: impl FnMut() -> R) {
        let ns = batched_median_nanos(self.samples, f);
        let throughput = bytes.map_or_else(
            || "—".to_string(),
            |b| format!("{:.1} MiB/s", b as f64 / (ns * 1e-9) / (1024.0 * 1024.0)),
        );
        self.table
            .row(vec![name.to_string(), fmt_nanos(ns), throughput]);
    }
}

/// Run P1.
#[must_use]
pub fn p1_primitives(scale: Scale) -> Table {
    let mut rows = Rows {
        table: Table::new(
            "P1",
            "primitive costs (median ns per call, batched)",
            "Table 1's unit costs: hash step, PRF, PRG, EtM, modexp, B+-tree",
            &["case", "per call", "throughput"],
        ),
        samples: match scale {
            Scale::Quick => 11,
            Scale::Full => 31,
        },
    };
    hashing(&mut rows);
    ciphers(&mut rows);
    modexp_ablation(&mut rows);
    elgamal(&mut rows);
    bptree(&mut rows);
    chain_derivation(&mut rows);
    rows.table.note(
        "each cell: the median over samples of (batch time / N), N grown \
until a batch takes ≥ 1 ms; throughput is bytes per call over that median.",
    );
    rows.table
}

fn hashing(rows: &mut Rows) {
    for size in [64usize, 1024, 8192] {
        let data = vec![0xAAu8; size];
        rows.time(&format!("prim_hash/sha256/{size}"), Some(size), || {
            sha256(black_box(&data))
        });
    }
    let (key, msg) = ([1u8; 32], [2u8; 32]);
    rows.time("prim_hash/hmac_sha256_32b", None, || {
        hmac_sha256(black_box(&key), &msg)
    });
    let k = [3u8; 32];
    rows.time("prim_hash/chain_step", None, || chain_step(black_box(&k)));
    let k = [4u8; 32];
    rows.time("prim_hash/chain_walk_1024", None, || {
        walk_forward(black_box(&k), 1024)
    });
    // The server's search walk: 1024 fused (h, f') steps to the element
    // whose commitment matches — against `chain_walk_1024`, the price of
    // the second lane.
    let target = chain_commitment(&walk_forward(&k, 1024));
    rows.time("prim_hash/walker_1024_steps", None, || {
        let mut walker = ChainWalker::new(black_box(&k));
        assert!(walker.seek_commitment(&target, 1024));
        *walker.element()
    });
}

fn ciphers(rows: &mut Rows) {
    let aes = Aes128::new(&[5u8; 16]);
    let block = [6u8; 16];
    rows.time("prim_cipher/aes128_block", None, || {
        aes.encrypt(black_box(&block))
    });
    // Opening a sealed message, subkey derivation included: a Scheme 1
    // reply-sized blob (CTR + HMAC bulk) and a Scheme 2 generation-sized
    // one (fixed cost: HKDF, key schedule, HMAC set-up).
    for (name, size) in [("etm_open_50k", 50_000usize), ("etm_open_40B", 40)] {
        let master = [8u8; 32];
        let sealed = EtmKey::new(&master).seal_with_iv(&[9u8; 12], &vec![0x5Au8; size]);
        rows.time(&format!("prim_cipher/{name}"), Some(size), || {
            EtmKey::new(black_box(&master)).open(&sealed).unwrap()
        });
    }
    // The Scheme 1 client's case: a traveler-record-sized blob opened
    // under a key held across the reply (no derivation, no keying).
    let key = EtmKey::new(&[8u8; 32]);
    let sealed = key.seal_with_iv(&[9u8; 12], &[0x5Au8; 110]);
    rows.time("prim_cipher/etm_open_110B_keyed", Some(110), || {
        key.open(black_box(&sealed)).unwrap()
    });
    let seed = [7u8; 32];
    for size in [128usize, 4096] {
        rows.time(
            &format!("prim_cipher/prg_expand/{size}"),
            Some(size),
            || prg_expand(black_box(&seed), size),
        );
    }
}

/// Ablation: fixed-base windowed table vs Montgomery vs plain
/// square-and-multiply modexp (DESIGN.md §4b, §4f).
///
/// `montgomery_*` and `naive_g_*` time `Montgomery::pow`'s fixed 4-bit
/// window ladder (four squarings and one product per window, the window
/// count set by the modulus width), `fixed_base_g_*` one product per
/// nonzero nibble against a precomputed table, both on the one CIOS
/// product kernel; `plain_*` is square-and-multiply with a division per
/// product, outside the kernel.
fn modexp_ablation(rows: &mut Rows) {
    for (bits, grp) in [
        ("256", ModpGroup::modp_256()),
        ("2048", ModpGroup::modp_2048()),
    ] {
        let mut drbg = HmacDrbg::from_u64(3);
        let base = BigUint::random_range(&mut drbg, &BigUint::one(), &grp.p);
        let exp = grp.random_exponent(&mut drbg);
        rows.time(
            &format!("prim_modexp_ablation/montgomery_{bits}"),
            None,
            || base.mod_pow(&exp, &grp.p),
        );
        rows.time(&format!("prim_modexp_ablation/plain_{bits}"), None, || {
            base.mod_pow_plain(&exp, &grp.p)
        });
        // The fixed-base arms pin the base to `g`: the table is only usable
        // for a base known ahead of time, which is exactly the `g^x` shape
        // on the hot path. `naive_g_*` is the same base through the generic
        // window ladder on the same kernel, so the pair isolates the
        // table's contribution.
        let fb = FixedBase::new(&grp.g, &grp.p, grp.p.bit_len());
        rows.time(
            &format!("prim_modexp_ablation/fixed_base_g_{bits}"),
            None,
            || fb.pow(&exp),
        );
        rows.time(
            &format!("prim_modexp_ablation/naive_g_{bits}"),
            None,
            || grp.g.mod_pow(&exp, &grp.p),
        );
    }
}

fn elgamal(rows: &mut Rows) {
    for (name, group) in [
        ("modp256_fast", ModpGroup::modp_256()),
        ("modp2048_secure", ModpGroup::modp_2048()),
    ] {
        let mut drbg = HmacDrbg::from_u64(1);
        let eg = ElGamal::keygen(group, &mut drbg);
        let nonce = [9u8; 32];
        rows.time(&format!("prim_elgamal/encrypt_nonce_{name}"), None, || {
            eg.encrypt_nonce(&nonce, &mut drbg)
        });
        let ct = eg.encrypt_nonce(&nonce, &mut drbg);
        rows.time(
            &format!("prim_elgamal/decrypt_to_seed_{name}"),
            None,
            || eg.decrypt_to_seed(&ct).unwrap(),
        );
    }
}

fn bptree(rows: &mut Rows) {
    for n in [1_000usize, 100_000] {
        let mut tree: BpTree<[u8; 32], u64> = BpTree::new();
        let mut drbg = HmacDrbg::from_u64(2);
        let keys: Vec<[u8; 32]> = (0..n).map(|_| drbg.gen_key()).collect();
        for (i, k) in keys.iter().enumerate() {
            tree.insert(*k, i as u64);
        }
        let mut i = 0usize;
        rows.time(&format!("prim_bptree/get/{n}"), None, || {
            i = (i + 7919) % n;
            tree.get(&keys[i]).copied()
        });
    }
    // What a Scheme 2 update after a publish costs the tree: clone it as
    // the search snapshot, then append one generation to a random keyword
    // whose list holds `gens`. Each call starts from `base`, so every list
    // stays at `gens` and the copy-on-write path is taken every time. The
    // copy is one allocation and a `memcpy` of the list's block: the
    // `gens/{g}` rows (and `1000`, which is g = 16) are what the Scheme 2
    // server's inline budget is sized from (DESIGN.md §4n).
    let cases = [1_000usize, 100_000]
        .map(|n| (n, 16usize, n.to_string()))
        .into_iter()
        .chain([32, 64, 128, 256].map(|g| (1_000, g, format!("gens/{g}"))));
    for (n, gens, name) in cases {
        let mut base: BpTree<[u8; 32], GenerationList> = BpTree::new();
        let mut drbg = HmacDrbg::from_u64(3);
        let keys: Vec<[u8; 32]> = (0..n).map(|_| drbg.gen_key()).collect();
        for key in &keys {
            let mut list = GenerationList::new();
            (0..gens).for_each(|g| list.push(&[g as u8; 48], &[g as u8; 32]));
            base.insert(*key, list);
        }
        let mut i = 0usize;
        rows.time(
            &format!("prim_bptree/append_after_publish/{name}"),
            None,
            || {
                i = (i + 7919) % n;
                let mut tree = base.clone();
                let snapshot = tree.clone();
                tree.get_mut(&keys[i])
                    .unwrap()
                    .push(&[0xFF; 48], &[0xFF; 32]);
                (tree, snapshot)
            },
        );
    }
}

/// Client-side key derivation walks `l - ctr` steps from the nearest
/// pebble: the most expensive at ctr = 1 (a young database), the cheapest
/// near exhaustion (§5.6, DESIGN.md §4b).
fn chain_derivation(rows: &mut Rows) {
    for l in [1024usize, 4096, 16384] {
        let chain = HashChain::new(&[b"w", b"k"], l);
        rows.time(&format!("e6_chain/derive_ctr1_l/{l}"), None, || {
            chain.key_for_counter(1).unwrap()
        });
        rows.time(&format!("e6_chain/derive_near_tip_l/{l}"), None, || {
            chain.key_for_counter(l as u64 - 1).unwrap()
        });
    }
}
