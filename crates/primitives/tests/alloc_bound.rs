//! Heap allocations per ElGamal operation, as counts: the Scheme 1
//! client's `F^{-1}` (`decrypt_to_seed`) and `F` (`encrypt_nonce`) run on
//! one Montgomery product kernel that writes into a workspace allocated
//! once per exponentiation, so a regression to per-product allocation
//! shows here as a jump of two to three orders of magnitude, on any
//! machine.
//!
//! And per symmetric operation under a held key: an `EtmKey` seal or open
//! allocates only the `Vec` it returns, and a `Prf` evaluation nothing,
//! since the key state (AES round keys, keyed HMAC) is built once per key.
//!
//! One `#[test]`: the allocation counters are process-wide, and a second
//! test running beside this one would move them.

use sse_primitives::drbg::HmacDrbg;
use sse_primitives::elgamal::ElGamal;
use sse_primitives::etm::EtmKey;
use sse_primitives::modp::ModpGroup;
use sse_primitives::prf::Prf;

#[global_allocator]
static ALLOC: allocmeter::CountingAlloc = allocmeter::CountingAlloc;

/// Allocations one `decrypt_to_seed` may cost, at either group size.
const DECRYPT_ALLOCS: u64 = 32;
/// Allocations one `encrypt_nonce` may cost, at either group size.
const ENCRYPT_ALLOCS: u64 = 48;
/// Operations measured per group; the bound holds for the worst of them.
const OPS: usize = 8;
/// Allocations one `EtmKey::seal` or `EtmKey::open` may cost: its result.
const ETM_ALLOCS: u64 = 1;

/// Allocations `op` makes on this thread.
fn allocs<R>(op: impl FnOnce() -> R) -> u64 {
    let before = allocmeter::counters();
    std::hint::black_box(op());
    allocmeter::counters().since(&before).allocs
}

#[test]
fn allocations_per_operation_are_bounded() {
    allocmeter::track_current_thread();
    for group in [ModpGroup::modp_256(), ModpGroup::modp_2048()] {
        let name = group.name;
        let mut drbg = HmacDrbg::from_u64(1);
        let eg = ElGamal::keygen(group, &mut drbg);
        // Warm the group's lazily built tables outside the measurement.
        let ct = eg.encrypt_nonce(&[9u8; 32], &mut drbg);
        eg.decrypt_to_seed(&ct).unwrap();

        let (mut enc, mut dec) = (0u64, 0u64);
        for i in 0..OPS {
            let nonce = [i as u8; 32];
            let mut ct = None;
            enc = enc.max(allocs(|| ct = Some(eg.encrypt_nonce(&nonce, &mut drbg))));
            let ct = ct.unwrap();
            dec = dec.max(allocs(|| eg.decrypt_to_seed(&ct).unwrap()));
        }
        eprintln!("{name}: encrypt_nonce {enc} allocs, decrypt_to_seed {dec} allocs");
        assert!(
            dec <= DECRYPT_ALLOCS,
            "{name}: decrypt_to_seed made {dec} allocations (bound {DECRYPT_ALLOCS})"
        );
        assert!(
            enc <= ENCRYPT_ALLOCS,
            "{name}: encrypt_nonce made {enc} allocations (bound {ENCRYPT_ALLOCS})"
        );
    }

    let etm = EtmKey::new(&[7u8; 32]);
    let prf = Prf::new([8u8; 32]);
    // Warm the thread's IV source outside the measurement.
    let _ = etm.seal(b"warm-up");
    let (mut seal, mut open, mut eval) = (0u64, 0u64, 0u64);
    for len in [0usize, 40, 110, 4096] {
        let pt = vec![len as u8; len];
        let mut ct = Vec::new();
        seal = seal.max(allocs(|| ct = etm.seal(&pt)));
        open = open.max(allocs(|| etm.open(&ct).unwrap()));
        eval = eval.max(allocs(|| prf.eval(&pt)));
    }
    eprintln!("EtmKey::seal {seal} allocs, EtmKey::open {open} allocs, Prf::eval {eval} allocs");
    assert!(
        seal <= ETM_ALLOCS,
        "EtmKey::seal made {seal} allocations (bound {ETM_ALLOCS})"
    );
    assert!(
        open <= ETM_ALLOCS,
        "EtmKey::open made {open} allocations (bound {ETM_ALLOCS})"
    );
    assert_eq!(eval, 0, "Prf::eval made {eval} allocations");
}
