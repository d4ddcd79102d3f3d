//! E2 — Scheme 2 search cost vs. update/search interleaving.
//!
//! Reproduces Table 1's `O(log(u) + l/2x)` row: the forward chain walk a
//! search pays grows with the number of counter advances since that
//! keyword's generations were written. We sweep `x` (updates between two
//! consecutive searches) and report measured walk steps and latency.

use crate::table::{fmt_nanos, Table};
use crate::Scale;
use sse_core::scheme2::{InMemoryScheme2Client, Scheme2Config};
use sse_core::types::{Document, Keyword, MasterKey};
use std::time::Instant;

/// Run E2.
#[must_use]
pub fn e2_chain_walk(scale: Scale) -> Table {
    let xs: &[u64] = match scale {
        Scale::Quick => &[1, 4, 16],
        Scale::Full => &[1, 2, 4, 8, 16, 32, 64],
    };
    let searches_per_config = match scale {
        Scale::Quick => 8u64,
        Scale::Full => 16,
    };
    let chain_length = 8192u64;

    let mut table = Table::new(
        "E2",
        "Scheme 2 search cost vs updates-between-searches x",
        "Table 1 row 'Searching computation' (Scheme 2): O(log u + l/2x)",
        &[
            "x",
            "avg walk steps/search",
            "avg search latency",
            "gens decrypted/search",
        ],
    );

    for &x in xs {
        // Base policy (ctr advances every update) so the walk length is
        // exactly the counter gap the paper's formula models.
        let mut client = InMemoryScheme2Client::new_in_memory(
            MasterKey::from_seed(0xE2),
            Scheme2Config::base(chain_length).with_server_cache(true),
        );
        let hot = Keyword::new("hot-keyword");
        // Seed one generation so the first search has work.
        client
            .store(&[Document::new(0, vec![0u8; 16], ["hot-keyword"])])
            .unwrap();
        let mut next_id = 1u64;
        let mut total_latency = 0.0f64;
        for _ in 0..searches_per_config {
            // x updates touching the hot keyword (one doc each).
            for _ in 0..x {
                client
                    .store(&[Document::new(next_id, vec![0u8; 16], ["hot-keyword"])])
                    .unwrap();
                next_id += 1;
            }
            let start = Instant::now();
            std::hint::black_box(client.search(&hot).unwrap());
            total_latency += start.elapsed().as_nanos() as f64;
        }
        let stats = client.server_mut().stats();
        let walks = stats.chain_steps as f64 / stats.searches as f64;
        let gens = stats.generations_decrypted as f64 / stats.searches as f64;
        table.row(vec![
            x.to_string(),
            format!("{walks:.1}"),
            fmt_nanos(total_latency / searches_per_config as f64),
            format!("{gens:.1}"),
        ]);
    }
    table.note(
        "walk steps track the counter gap (≈ x per search minus the step \
landing exactly on the newest generation); the paper's l/2x form is the \
amortized bound when only a 1/x fraction of updates touch the searched \
keyword — the measured shape (linear in the gap) is the same.",
    );
    table.note(format!(
        "chain length l = {chain_length}; Optimization 1 caches already-decrypted \
generations, so 'gens decrypted/search' stays ≈ x instead of growing with history."
    ));
    table
}
