//! `sse-perf compare` and `sse-perf repeat`: holding one set of results
//! against another with the catalogue's bounds, and measuring how far a
//! set moves when nothing changed.
//!
//! Both read and write the `latest.json` shape — per workload, per
//! metric, a `value` — and `repeat` adds the run-to-run statistics
//! (`q1`, `q3`, `spread`, `max_dev`, `runs`) that `compare` needs to tell
//! "unchanged" from "cannot tell".

use crate::catalogue::{Better, END_TO_END, WORKLOADS};
use crate::json::{self, Json};
use crate::quantile;
use std::io::{Error, Result};
use std::path::Path;

/// Verdict on one metric × workload pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Worse than the baseline by more than the bound.
    Regressed,
    /// The baseline's own run-to-run spread exceeds the bound, so a move
    /// of the bound's size proves nothing either way.
    Unresolved,
    /// One side does not report the metric.
    Missing,
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Apply one metric's bound. `spread` is the baseline's inter-quartile
/// distance over its median, when the baseline recorded one.
pub fn judge(better: Better, bound: f64, a: f64, b: f64, spread: Option<f64>) -> Verdict {
    if bound == 0.0 {
        // "Any rise": for failed_ratio, whose baseline is zero.
        return if worsening(better, a.max(1e-300), b) > 0.0 && b != a {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
    }
    if spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worsening(better, a, b) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn metric<'a>(doc: &'a Json, workload: &str, name: &str) -> Option<&'a Json> {
    doc.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(name)
}

/// Compare every end-to-end metric × workload of `b` against baseline
/// `a`, one row each. Returns `false` if anything regressed.
pub fn compare_docs(a: &Json, b: &Json) -> bool {
    println!(
        "{:<16} {:<22} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "baseline", "candidate", "change", "bound", "spread"
    );
    let mut ok = true;
    for w in &WORKLOADS {
        for m in END_TO_END.iter().filter(|m| (m.applies)(w.name)) {
            let (va, vb) = (
                metric(a, w.name, m.name).and_then(|j| j.get("value")?.as_f64()),
                metric(b, w.name, m.name).and_then(|j| j.get("value")?.as_f64()),
            );
            let spread = metric(a, w.name, m.name).and_then(|j| j.get("spread")?.as_f64());
            let (verdict, change) = match (va, vb) {
                (Some(va), Some(vb)) => (
                    judge(m.better, m.bound, va, vb, spread),
                    format!(
                        "{:+.1}%",
                        100.0 * (vb - va) / va.abs().max(f64::MIN_POSITIVE)
                    ),
                ),
                _ => (Verdict::Missing, "-".into()),
            };
            let num = |v: Option<f64>| v.map_or("-".into(), |v| format!("{v:.4}"));
            println!(
                "{:<16} {:<22} {:>12} {:>12} {:>8} {:>6.0}% {:>7}  {}",
                w.name,
                m.name,
                num(va),
                num(vb),
                change,
                m.bound * 100.0,
                spread.map_or("-".into(), |s| format!("{:.1}%", s * 100.0)),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Missing => "MISSING",
                }
            );
            ok &= !matches!(verdict, Verdict::Regressed | Verdict::Missing);
        }
    }
    ok
}

/// `sse-perf compare A.json B.json`.
///
/// # Errors
/// Unreadable or unparsable files.
pub fn compare_files(a: &Path, b: &Path) -> Result<bool> {
    let load = |p: &Path| -> Result<Json> {
        json::parse(&std::fs::read_to_string(p)?)
            .map_err(|e| Error::other(format!("{}: {e}", p.display())))
    };
    Ok(compare_docs(&load(a)?, &load(b)?))
}

/// Fold `docs` (one `latest.json` document per repeat) into one document
/// whose every metric carries the median as `value` plus the spread.
pub fn aggregate(docs: &[Json]) -> Json {
    let first = &docs[0];
    let workloads = first
        .get("workloads")
        .and_then(Json::as_obj)
        .unwrap_or_default()
        .iter()
        .map(|(wname, w)| {
            let groups = ["end_to_end", "per_layer"].map(|group| {
                let metrics = w
                    .get(group)
                    .and_then(Json::as_obj)
                    .unwrap_or_default()
                    .iter()
                    .map(|(mname, m)| {
                        let runs: Vec<f64> = docs
                            .iter()
                            .filter_map(|d| {
                                d.get("workloads")?
                                    .get(wname)?
                                    .get(group)?
                                    .get(mname)?
                                    .get("value")?
                                    .as_f64()
                            })
                            .collect();
                        (mname.clone(), summarize(&runs, m.get("unit")))
                    });
                (group, Json::obj(metrics))
            });
            let correct = docs.iter().all(|d| {
                d.get("workloads")
                    .and_then(|ws| ws.get(wname))
                    .and_then(|w| w.get("correct"))
                    == Some(&Json::Bool(true))
            });
            let mut fields = vec![
                ("correct", Json::Bool(correct)),
                (
                    "trace_sha256",
                    w.get("trace_sha256").cloned().unwrap_or(Json::Null),
                ),
            ];
            fields.extend(groups);
            (wname.clone(), Json::obj(fields))
        });
    Json::obj([
        ("repeats", Json::Num(docs.len() as f64)),
        ("seed", first.get("seed").cloned().unwrap_or(Json::Null)),
        (
            "seconds",
            first.get("seconds").cloned().unwrap_or(Json::Null),
        ),
        (
            "parallelism",
            first.get("parallelism").cloned().unwrap_or(Json::Null),
        ),
        ("workloads", Json::obj(workloads)),
    ])
}

fn summarize(runs: &[f64], unit: Option<&Json>) -> Json {
    let median = quantile::median(&mut runs.to_vec()).unwrap_or(0.0);
    let mut fields = vec![
        ("value", Json::Num(median)),
        ("unit", unit.cloned().unwrap_or(Json::Null)),
    ];
    if let Some((q1, q3)) = quantile::quartiles(runs) {
        let max_dev = runs.iter().map(|r| (r - median).abs()).fold(0.0, f64::max);
        fields.extend([
            ("q1", Json::Num(q1)),
            ("q3", Json::Num(q3)),
            (
                "spread",
                quantile::iqr_over_median(runs).map_or(Json::Null, Json::Num),
            ),
            (
                "max_dev",
                if median == 0.0 {
                    Json::Null
                } else {
                    Json::Num(max_dev / median.abs())
                },
            ),
        ]);
    }
    fields.push((
        "runs",
        Json::Arr(runs.iter().map(|&r| Json::Num(r)).collect()),
    ));
    Json::obj(fields)
}

/// `sse-perf repeat N`: run the set `n` times, print each end-to-end
/// metric's median, quartiles and largest deviation, and return the
/// aggregate document.
///
/// # Errors
/// The first run that fails to produce a document.
pub fn repeat(
    n: usize,
    mut run_set: impl FnMut(usize) -> Result<(Json, bool)>,
) -> Result<(Json, bool)> {
    if n == 0 {
        return Err(Error::other("repeat needs at least one run"));
    }
    let mut docs = Vec::with_capacity(n);
    let mut all_ok = true;
    for i in 0..n {
        let (doc, ok) = run_set(i)?;
        all_ok &= ok;
        docs.push(doc);
    }
    let agg = aggregate(&docs);
    println!(
        "{:<16} {:<22} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "workload", "metric", "median", "q1", "q3", "iqr/med", "max dev"
    );
    for w in &WORKLOADS {
        for m in END_TO_END.iter().filter(|m| (m.applies)(w.name)) {
            let Some(j) = metric(&agg, w.name, m.name) else {
                continue;
            };
            let f = |key: &str| j.get(key).and_then(Json::as_f64);
            let pct = |v: Option<f64>| v.map_or("-".into(), |v| format!("{:.1}%", v * 100.0));
            println!(
                "{:<16} {:<22} {:>12.4} {:>12.4} {:>12.4} {:>8} {:>8}",
                w.name,
                m.name,
                f("value").unwrap_or(0.0),
                f("q1").unwrap_or(0.0),
                f("q3").unwrap_or(0.0),
                pct(f("spread")),
                pct(f("max_dev")),
            );
        }
    }
    Ok((agg, all_ok))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::{GP, WARM};

    fn doc(workload: &str, metrics: &[(&str, f64)]) -> Json {
        Json::obj([(
            "workloads",
            Json::obj([(
                workload,
                Json::obj([
                    ("correct", Json::Bool(true)),
                    (
                        "end_to_end",
                        Json::obj(metrics.iter().map(|(k, v)| {
                            (
                                *k,
                                Json::obj([("value", Json::Num(*v)), ("unit", Json::str("x"))]),
                            )
                        })),
                    ),
                    ("per_layer", Json::obj::<&str>([])),
                ]),
            )]),
        )])
    }

    #[test]
    fn bounds_apply_in_the_metric_s_own_direction() {
        // Lower is better: +30 % latency regresses at a 25 % bound, -30 % does not.
        assert_eq!(
            judge(Better::Lower, 0.25, 100.0, 130.0, None),
            Verdict::Regressed
        );
        assert_eq!(judge(Better::Lower, 0.25, 100.0, 70.0, None), Verdict::Ok);
        assert_eq!(judge(Better::Lower, 0.25, 100.0, 120.0, None), Verdict::Ok);
        // Higher is better: throughput down 30 % regresses, up 30 % does not.
        assert_eq!(
            judge(Better::Higher, 0.25, 100.0, 70.0, None),
            Verdict::Regressed
        );
        assert_eq!(judge(Better::Higher, 0.25, 100.0, 130.0, None), Verdict::Ok);
        // A baseline that itself spreads wider than the bound resolves nothing.
        assert_eq!(
            judge(Better::Lower, 0.25, 100.0, 180.0, Some(0.4)),
            Verdict::Unresolved
        );
        // "Any rise" on a zero baseline.
        assert_eq!(judge(Better::Lower, 0.0, 0.0, 0.0, None), Verdict::Ok);
        assert_eq!(
            judge(Better::Lower, 0.0, 0.0, 1e-6, None),
            Verdict::Regressed
        );
    }

    #[test]
    fn aggregate_reports_median_and_python_quartiles() {
        let docs: Vec<Json> = [10.0, 12.0, 11.0, 30.0]
            .iter()
            .map(|&v| doc(WARM, &[("ops_s", v)]))
            .collect();
        let agg = aggregate(&docs);
        let m = metric(&agg, WARM, "ops_s").unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(11.5));
        // statistics.quantiles([10, 11, 12, 30], n=4) == [10.25, 11.5, 25.5]
        assert_eq!(m.get("q1").and_then(Json::as_f64), Some(10.25));
        assert_eq!(m.get("q3").and_then(Json::as_f64), Some(25.5));
        assert_eq!(
            m.get("runs").and_then(Json::as_arr).map(<[Json]>::len),
            Some(4)
        );
        // spread = (q3 - q1) / median, what `compare` reads back.
        let spread = m.get("spread").and_then(Json::as_f64).unwrap();
        assert!((spread - 15.25 / 11.5).abs() < 1e-12);
    }

    #[test]
    fn compare_fails_on_a_regression_and_on_a_missing_metric() {
        // Every workload reporting every metric at 100 (failed_ratio 0),
        // except that `search_p50_us` reads `p50`.
        let set = |p50: f64| {
            let metrics: Vec<(&str, f64)> = END_TO_END
                .iter()
                .map(|m| match m.name {
                    "search_p50_us" => (m.name, p50),
                    "failed_ratio" => (m.name, 0.0),
                    _ => (m.name, 100.0),
                })
                .collect();
            let entry = doc(GP, &metrics);
            let entry = entry.get("workloads").unwrap().get(GP).unwrap();
            Json::obj([(
                "workloads",
                Json::obj(WORKLOADS.iter().map(|w| (w.name, entry.clone()))),
            )])
        };
        assert!(compare_docs(&set(100.0), &set(100.0)));
        assert!(compare_docs(&set(100.0), &set(120.0)), "within the bound");
        assert!(!compare_docs(&set(100.0), &set(140.0)), "beyond the bound");
        // A document with four workloads missing must not pass silently.
        let lone = doc(GP, &[("ops_s", 1.0)]);
        assert!(!compare_docs(&lone, &lone));
    }
}
