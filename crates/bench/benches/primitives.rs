//! Primitive-level ablation bench: the building blocks whose costs explain
//! the scheme-level numbers (DESIGN.md calls these out — e.g. ElGamal
//! modexp dominating Scheme 1's client, hash steps dominating Scheme 2's
//! server walk).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sse_index::bptree::BpTree;
use sse_index::postings::{Generation, GenerationList};
use sse_primitives::aes::Aes128;
use sse_primitives::chacha20::prg_expand;
use sse_primitives::drbg::HmacDrbg;
use sse_primitives::elgamal::ElGamal;
use sse_primitives::etm::EtmKey;
use sse_primitives::hashchain::{chain_commitment, chain_step, walk_forward, ChainWalker};
use sse_primitives::hmac::hmac_sha256;
use sse_primitives::modp::ModpGroup;
use sse_primitives::sha256::sha256;

fn bench_hashing(c: &mut Criterion) {
    let mut group = c.benchmark_group("prim_hash");
    for size in [64usize, 1024, 8192] {
        let data = vec![0xAAu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("sha256", size), &size, |b, _| {
            b.iter(|| std::hint::black_box(sha256(&data)));
        });
    }
    group.bench_function("hmac_sha256_32b", |b| {
        let key = [1u8; 32];
        let msg = [2u8; 32];
        b.iter(|| std::hint::black_box(hmac_sha256(&key, &msg)));
    });
    group.bench_function("chain_step", |b| {
        let k = [3u8; 32];
        b.iter(|| std::hint::black_box(chain_step(&k)));
    });
    group.bench_function("chain_walk_1024", |b| {
        let k = [4u8; 32];
        b.iter(|| std::hint::black_box(walk_forward(&k, 1024)));
    });
    // The server's search walk: 1024 fused (h, f') steps to the element
    // whose commitment matches — against `chain_walk_1024`, the price of
    // the second lane.
    group.bench_function("walker_1024_steps", |b| {
        let k = [4u8; 32];
        let target = chain_commitment(&walk_forward(&k, 1024));
        b.iter(|| {
            let mut walker = ChainWalker::new(&k);
            assert!(walker.seek_commitment(&target, 1024));
            std::hint::black_box(*walker.element())
        });
    });
    group.finish();
}

fn bench_ciphers(c: &mut Criterion) {
    let mut group = c.benchmark_group("prim_cipher");
    group.bench_function("aes128_block", |b| {
        let aes = Aes128::new(&[5u8; 16]);
        let block = [6u8; 16];
        b.iter(|| std::hint::black_box(aes.encrypt(&block)));
    });
    // Opening a sealed message, subkey derivation included: a Scheme 1
    // reply-sized blob (CTR + HMAC bulk) and a Scheme 2 generation-sized
    // one (fixed cost: HKDF, key schedule, HMAC set-up).
    for (name, size) in [("etm_open_50k", 50_000usize), ("etm_open_40B", 40)] {
        let master = [8u8; 32];
        let sealed = EtmKey::new(&master).seal_with_iv(&[9u8; 12], &vec![0x5Au8; size]);
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(EtmKey::new(&master).open(&sealed).unwrap()));
        });
    }
    for size in [128usize, 4096] {
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("prg_expand", size), &size, |b, &size| {
            let seed = [7u8; 32];
            b.iter(|| std::hint::black_box(prg_expand(&seed, size)));
        });
    }
    group.finish();
}

/// Ablation: fixed-base windowed table vs Montgomery vs plain
/// square-and-multiply modexp (DESIGN.md design-choice callouts; Montgomery
/// buys ~1.7x at 256-bit / ~1.4x at 2048-bit over plain, and the fixed-base
/// table buys another ~4-6x on top for the `g^x` shape that dominates
/// Scheme 1's ElGamal encryptions and trapdoor evaluations).
fn bench_modexp_ablation(c: &mut Criterion) {
    use sse_primitives::bignum::{BigUint, FixedBase};
    let mut group = c.benchmark_group("prim_modexp_ablation");
    group.sample_size(10);
    for (name, grp) in [
        ("256", ModpGroup::modp_256()),
        ("2048", ModpGroup::modp_2048()),
    ] {
        let mut drbg = HmacDrbg::from_u64(3);
        let base = BigUint::random_range(&mut drbg, &BigUint::one(), &grp.p);
        let exp = grp.random_exponent(&mut drbg);
        group.bench_function(format!("montgomery_{name}"), |b| {
            b.iter(|| std::hint::black_box(base.mod_pow(&exp, &grp.p)));
        });
        group.bench_function(format!("plain_{name}"), |b| {
            b.iter(|| std::hint::black_box(base.mod_pow_plain(&exp, &grp.p)));
        });
        // The fixed-base arms pin the base to `g`: the table is only usable
        // for a base known ahead of time, which is exactly the `g^x` shape
        // on the hot path. `naive_g_*` is the same base through the generic
        // Montgomery ladder, so the pair isolates the table's contribution.
        let fb = FixedBase::new(&grp.g, &grp.p, grp.p.bit_len());
        group.bench_function(format!("fixed_base_g_{name}"), |b| {
            b.iter(|| std::hint::black_box(fb.pow(&exp)));
        });
        group.bench_function(format!("naive_g_{name}"), |b| {
            b.iter(|| std::hint::black_box(grp.g.mod_pow(&exp, &grp.p)));
        });
    }
    group.finish();
}

fn bench_elgamal(c: &mut Criterion) {
    let mut group = c.benchmark_group("prim_elgamal");
    group.sample_size(10);
    for (name, group_fn) in [
        ("modp256_fast", ModpGroup::modp_256 as fn() -> ModpGroup),
        ("modp2048_secure", ModpGroup::modp_2048 as fn() -> ModpGroup),
    ] {
        let mut drbg = HmacDrbg::from_u64(1);
        let eg = ElGamal::keygen(group_fn(), &mut drbg);
        let nonce = [9u8; 32];
        group.bench_function(format!("encrypt_nonce_{name}"), |b| {
            b.iter(|| std::hint::black_box(eg.encrypt_nonce(&nonce, &mut drbg)));
        });
        let ct = eg.encrypt_nonce(&nonce, &mut drbg);
        group.bench_function(format!("decrypt_to_seed_{name}"), |b| {
            b.iter(|| std::hint::black_box(eg.decrypt_to_seed(&ct).unwrap()));
        });
    }
    group.finish();
}

fn bench_bptree(c: &mut Criterion) {
    let mut group = c.benchmark_group("prim_bptree");
    for n in [1_000usize, 100_000] {
        let mut tree: BpTree<[u8; 32], u64> = BpTree::new();
        let mut drbg = HmacDrbg::from_u64(2);
        let mut keys = Vec::with_capacity(n);
        for i in 0..n {
            let k = drbg.gen_key();
            tree.insert(k, i as u64);
            keys.push(k);
        }
        group.bench_with_input(BenchmarkId::new("get", n), &n, |b, &n| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 7919) % n;
                std::hint::black_box(tree.get(&keys[i]))
            });
        });
    }
    // What a Scheme 2 update after a publish costs the tree: clone it as
    // the search snapshot, then append one generation to a random keyword
    // whose list holds 16. Each iteration starts from `base`, so every list
    // stays at 16 and the copy-on-write path is taken every time.
    for n in [1_000usize, 100_000] {
        let generation = |g: u8| Generation {
            masked_ids: vec![g; 48],
            key_commitment: [g; 32],
        };
        let mut base: BpTree<[u8; 32], GenerationList> = BpTree::new();
        let mut drbg = HmacDrbg::from_u64(3);
        let keys: Vec<[u8; 32]> = (0..n).map(|_| drbg.gen_key()).collect();
        for key in &keys {
            let mut list = GenerationList::new();
            (0..16).for_each(|g| list.push(generation(g)));
            base.insert(*key, list);
        }
        group.bench_with_input(BenchmarkId::new("append_after_publish", n), &n, |b, &n| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 7919) % n;
                let mut tree = base.clone();
                let snapshot = tree.clone();
                tree.get_mut(&keys[i]).unwrap().push(generation(16));
                std::hint::black_box((tree, snapshot))
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_hashing,
    bench_ciphers,
    bench_modexp_ablation,
    bench_elgamal,
    bench_bptree
);
criterion_main!(benches);
