//! Update-leakage analysis and the §5.7 mitigations.
//!
//! The paper concedes that updates leak: the server sees *how many
//! keywords* each update touches, and which keyword tags recur across
//! updates. Two mitigations are proposed:
//!
//! * **Batched updates** — update many documents at once so only the
//!   aggregate keyword count is visible; per-document inference degrades as
//!   the batch grows ("the information leakage goes asymptotically towards
//!   zero bits").
//! * **Fake updates** — pad every update to an identical keyword count
//!   with no-op entries, making all updates look alike in that count.
//!   Not in length for Scheme 2: a sealed generation carries 8 bytes per
//!   id, so a no-op one is shorter than a real one (Scheme 1's all-zero
//!   arrays have full width). This module models the count only.
//!
//! This module quantifies both. The *observation* available to the
//! honest-but-curious server is exactly the number of entries in an
//! update message (`ApplyUpdates` / `AppendGenerations`); we measure how
//! well per-document keyword counts can be estimated from it, and how much
//! entropy the observation stream itself carries.

use crate::types::Document;
use std::collections::BTreeSet;

/// What the server observes for one update batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateObservation {
    /// Number of documents in the batch (public: PutDocs count).
    pub batch_docs: usize,
    /// Number of keyword entries in the metadata message.
    pub keyword_entries: usize,
}

/// Leakage report over a sequence of update batches.
#[derive(Clone, Debug)]
pub struct LeakageReport {
    /// Per-batch observations.
    pub observations: Vec<UpdateObservation>,
    /// Mean absolute error of the adversary's per-document keyword-count
    /// estimates (higher = less leaked).
    pub per_doc_mae: f64,
    /// Shannon entropy (bits) of the keyword-entry observation stream
    /// (0 = every update looks identical, i.e. nothing to learn).
    pub observation_entropy_bits: f64,
}

/// Unique keyword count over a batch of documents — the entry count of an
/// *unpadded* update message (both schemes send one entry per unique
/// keyword in the batch).
#[must_use]
pub fn unique_keywords(batch: &[Document]) -> usize {
    batch
        .iter()
        .flat_map(|d| d.keywords.iter())
        .collect::<BTreeSet<_>>()
        .len()
}

/// Analyze what a sequence of update batches leaks.
///
/// `pad_to`: if set, every update is padded with fake entries up to this
/// count (entries beyond it are *not* truncated — a batch with more unique
/// keywords than the pad target still sends them all, as the paper's fake
/// updates can only add).
#[must_use]
pub fn analyze_updates(batches: &[Vec<Document>], pad_to: Option<usize>) -> LeakageReport {
    let observations: Vec<UpdateObservation> = batches
        .iter()
        .map(|batch| {
            let real = unique_keywords(batch);
            let sent = match pad_to {
                Some(p) => real.max(p),
                None => real,
            };
            UpdateObservation {
                batch_docs: batch.len(),
                keyword_entries: sent,
            }
        })
        .collect();

    // Adversary's best per-document estimate from one observation: the
    // average `keyword_entries / batch_docs`. Compare against ground truth.
    let mut abs_err_sum = 0.0;
    let mut doc_count = 0usize;
    for (batch, obs) in batches.iter().zip(observations.iter()) {
        if batch.is_empty() {
            continue;
        }
        let estimate = obs.keyword_entries as f64 / obs.batch_docs as f64;
        for d in batch {
            abs_err_sum += (d.keywords.len() as f64 - estimate).abs();
            doc_count += 1;
        }
    }
    let per_doc_mae = if doc_count == 0 {
        0.0
    } else {
        abs_err_sum / doc_count as f64
    };

    LeakageReport {
        per_doc_mae,
        observation_entropy_bits: shannon_entropy(observations.iter().map(|o| o.keyword_entries)),
        observations,
    }
}

/// Shannon entropy (bits) of a discrete observation stream.
fn shannon_entropy(values: impl Iterator<Item = usize>) -> f64 {
    let mut counts: std::collections::BTreeMap<usize, u64> = std::collections::BTreeMap::new();
    let mut total = 0u64;
    for v in values {
        *counts.entry(v).or_insert(0) += 1;
        total += 1;
    }
    if total == 0 {
        return 0.0;
    }
    counts
        .values()
        .map(|&c| {
            let p = c as f64 / total as f64;
            -p * p.log2()
        })
        .sum()
}

/// Split a document stream into batches of `batch_size` (the batched-update
/// mitigation: the caller chooses how much to aggregate).
#[must_use]
pub fn batch_documents(docs: &[Document], batch_size: usize) -> Vec<Vec<Document>> {
    assert!(batch_size > 0, "batch size must be positive");
    docs.chunks(batch_size).map(<[Document]>::to_vec).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Documents with varying keyword counts (1..=5).
    fn corpus() -> Vec<Document> {
        (0..40u64)
            .map(|i| {
                let k = (i % 5) + 1;
                let kws: Vec<String> = (0..k).map(|j| format!("kw-{i}-{j}")).collect();
                Document::new(i, vec![], kws.iter().map(String::as_str))
            })
            .collect()
    }

    #[test]
    fn unique_keywords_deduplicates() {
        let batch = vec![
            Document::new(0, vec![], ["a", "b"]),
            Document::new(1, vec![], ["b", "c"]),
        ];
        assert_eq!(unique_keywords(&batch), 3);
    }

    #[test]
    fn single_doc_updates_leak_exact_counts() {
        let docs = corpus();
        let batches = batch_documents(&docs, 1);
        let report = analyze_updates(&batches, None);
        // With batch = 1 and disjoint keywords, the estimate is exact.
        assert!(report.per_doc_mae < 1e-9, "mae = {}", report.per_doc_mae);
        // Five distinct observation values -> about log2(5) bits.
        assert!(report.observation_entropy_bits > 2.0);
    }

    #[test]
    fn batching_degrades_per_doc_inference() {
        let docs = corpus();
        let mae_1 = analyze_updates(&batch_documents(&docs, 1), None).per_doc_mae;
        let mae_8 = analyze_updates(&batch_documents(&docs, 8), None).per_doc_mae;
        let mae_40 = analyze_updates(&batch_documents(&docs, 40), None).per_doc_mae;
        assert!(mae_1 < mae_8, "batching must increase estimation error");
        assert!(mae_8 <= mae_40 + 1e-9);
        assert!(mae_40 > 1.0, "full-corpus batch leaves only the mean");
    }

    #[test]
    fn padding_flattens_observations_to_zero_entropy() {
        let docs = corpus();
        let batches = batch_documents(&docs, 1);
        let padded = analyze_updates(&batches, Some(8));
        assert_eq!(
            padded.observation_entropy_bits, 0.0,
            "all updates look identical under padding"
        );
        for obs in &padded.observations {
            assert_eq!(obs.keyword_entries, 8);
        }
    }

    #[test]
    fn padding_never_truncates() {
        let batch = vec![Document::new(0, vec![], ["a", "b", "c", "d", "e", "f"])];
        let report = analyze_updates(&[batch], Some(3));
        assert_eq!(report.observations[0].keyword_entries, 6);
    }

    #[test]
    fn entropy_of_constant_stream_is_zero() {
        assert_eq!(shannon_entropy([4usize, 4, 4, 4].into_iter()), 0.0);
    }

    #[test]
    fn entropy_of_uniform_pair_is_one_bit() {
        let h = shannon_entropy([1usize, 2, 1, 2].into_iter());
        assert!((h - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_batch_size_panics() {
        let _ = batch_documents(&corpus(), 0);
    }

    #[test]
    fn empty_input_is_benign() {
        let report = analyze_updates(&[], None);
        assert_eq!(report.per_doc_mae, 0.0);
        assert_eq!(report.observation_entropy_bits, 0.0);
        assert!(report.observations.is_empty());
    }
}
