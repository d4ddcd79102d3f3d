//! `cargo test` inside `bench/`: the whole set at 1/20 of the op counts
//! through `bench/run.sh --smoke`, checking the shape of `latest.json`,
//! that every metric the catalogue promises a workload is there, that no
//! operation failed — and that the verifier is not a rubber stamp: a
//! corrupted reply and a dropped acknowledged document must both make the
//! benchmark exit non-zero.
//!
//! One test function on purpose: the three runs pin to the same CPU, and
//! side by side they would only measure each other.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("bench/ sits in the repo root")
        .to_path_buf()
}

fn run_sh(args: &[&str]) -> Output {
    Command::new("bash")
        .arg("bench/run.sh")
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("bash is on PATH")
}

/// The value of `"key":` inside `text` after position `from`, up to the
/// next comma or brace — enough JSON for a test that must not depend on
/// the crate's own parser being right.
fn number_after(text: &str, from: usize, key: &str) -> Option<f64> {
    let at = from + text[from..].find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = text[at..].trim_start();
    let end = rest.find([',', '}', '\n'])?;
    rest[..end].trim().parse().ok()
}

/// Position of workload `w`'s entry in `latest.json`.
fn workload_at(doc: &str, w: &str) -> usize {
    doc.find(&format!("\"{w}\": {{"))
        .unwrap_or_else(|| panic!("latest.json has no entry for {w}"))
}

const WORKLOADS: [&str; 5] = [
    "s2_warm_search",
    "s2_gp_mixed",
    "s2_update_btree",
    "s2_update_lsm",
    "s1_traveler",
];

/// The issue's ✓ table: which end-to-end metrics each workload reports.
fn promised(w: &str) -> Vec<&'static str> {
    let mut m = vec![
        "setup_s",
        "ops_s",
        "search_p50_us",
        "search_p90_us",
        "search_p99_us",
        "server_cpu_us_per_op",
        "server_rss_mb",
        "wire_bytes_per_op",
        "failed_ratio",
    ];
    if w != "s2_warm_search" && w != "s1_traveler" {
        m.extend(["update_p50_us", "update_p90_us", "update_p99_us"]);
    }
    if w.starts_with("s2_update") {
        m.extend(["disk_bytes_per_update", "recover_s"]);
    }
    m
}

#[test]
fn smoke_set_has_every_promised_metric_and_the_verifier_catches_injected_faults() {
    let out_dir = format!("bench/out/smoke-test-{}", std::process::id());
    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
    let _cleanup = Cleanup(repo_root().join(&out_dir));

    // 1. The set.
    let started = std::time::Instant::now();
    let set = run_sh(&["--smoke", "--seed", "11", "--out", &out_dir]);
    let stdout = String::from_utf8_lossy(&set.stdout);
    assert!(
        set.status.success(),
        "smoke set failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&set.stderr)
    );
    let doc = std::fs::read_to_string(repo_root().join(&out_dir).join("latest.json"))
        .expect("the set writes latest.json");
    for w in WORKLOADS {
        let at = workload_at(&doc, w);
        assert_eq!(number_after(&doc, at, "failed"), Some(0.0), "{w}");
        assert!(doc[at..].contains("\"correct\": true"), "{w}");
        let e2e = at + doc[at..].find("\"end_to_end\"").expect("end_to_end group");
        for m in promised(w) {
            let m_at = e2e
                + doc[e2e..]
                    .find(&format!("\"{m}\": {{"))
                    .unwrap_or_else(|| panic!("{w} does not report {m}"));
            let v = number_after(&doc, m_at, "value").unwrap_or_else(|| panic!("{w} {m}"));
            if m == "failed_ratio" {
                assert_eq!(v, 0.0, "{w} failed_ratio");
            } else {
                assert!(v > 0.0, "{w} {m} = {v}");
            }
            // And as a text line: `workload metric value unit`.
            assert!(
                stdout.lines().any(|l| l.starts_with(&format!("{w} {m} "))),
                "{w} {m} not printed"
            );
        }
        // Trace spans for every workload.
        let spans = repo_root().join(&out_dir).join(format!("trace-{w}.json"));
        let spans = std::fs::read_to_string(&spans).expect("the traced pass writes its spans");
        assert!(spans.contains("\"name\":\"net.frame_decode\""), "{w}");
    }
    // The acceptance criteria's predictions, which hold at any scale.
    let layer = |w: &str, m: &str| {
        let at = workload_at(&doc, w);
        let m_at = at + doc[at..].find(&format!("\"{m}\": {{")).expect(m);
        number_after(&doc, m_at, "value").expect(m)
    };
    assert!(layer("s2_warm_search", "core.memo_hit_ratio") >= 0.99);
    assert!(layer("s2_gp_mixed", "core.memo_hit_ratio") <= 0.05);
    assert_eq!(layer("s2_warm_search", "core.fsyncs_per_update"), 0.0);
    assert_eq!(layer("s2_gp_mixed", "core.fsyncs_per_update"), 0.0);
    assert!(layer("s2_update_btree", "core.fsyncs_per_update") > 0.0);
    assert!(layer("s2_update_lsm", "core.fsyncs_per_update") > 0.0);
    assert_eq!(layer("s2_update_btree", "storage.runs_flushed"), 0.0);
    assert!(layer("s2_update_lsm", "storage.runs_flushed") > 0.0);
    let sha = |w: &str| {
        let at = workload_at(&doc, w);
        let s = at + doc[at..].find("\"trace_sha256\": \"").unwrap() + 17;
        doc[s..s + 64].to_string()
    };
    assert_eq!(sha("s2_update_btree"), sha("s2_update_lsm"));
    assert_ne!(sha("s2_update_btree"), sha("s2_warm_search"));
    // Generous: the issue's target is 20 s on an idle box, and the first
    // run also builds.
    eprintln!("smoke set took {:.1?}", started.elapsed());

    // 2. A corrupted reply is caught.
    for w in ["s2_warm_search", "s1_traveler"] {
        let bad = run_sh(&[
            "--workload",
            w,
            "--seed",
            "11",
            "--seconds",
            "0.6",
            "--trace",
            "0",
            "--smoke",
            "--inject",
            "corrupt-reply",
            "--out",
            &out_dir,
        ]);
        let stdout = String::from_utf8_lossy(&bad.stdout);
        assert!(
            !bad.status.success(),
            "{w}: a corrupted reply went unnoticed"
        );
        let last = stdout.lines().last().unwrap_or_default();
        assert!(last.contains("\"correct\":false"), "{w}: {last}");
        assert_eq!(number_after(last, 0, "failed"), Some(1.0), "{w}: {last}");
    }

    // 3. A dropped acknowledged document is caught by the restart check.
    let bad = run_sh(&[
        "--workload",
        "s2_update_btree",
        "--seed",
        "11",
        "--seconds",
        "0.6",
        "--trace",
        "0",
        "--smoke",
        "--inject",
        "drop-acked",
        "--out",
        &out_dir,
    ]);
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(
        !bad.status.success(),
        "a dropped acked document went unnoticed"
    );
    assert!(
        stdout.contains("acknowledged documents were not found")
            || stdout.contains("acked-prefix oracle"),
        "{stdout}"
    );
}
