//! One workload's results: every metric by catalogue name, the verifier's
//! verdict, and the renderings (text lines, the driver's result line, the
//! `latest.json` entry).

use crate::catalogue::{self, END_TO_END, LAYERS};
use crate::json::Json;

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// Samples behind a timing (latency quantiles report their count).
    pub samples: Option<u64>,
}

#[derive(Clone, Debug)]
pub struct Report {
    pub workload: &'static str,
    pub metrics: Vec<Metric>,
    /// Requests sent, measured phases and restart probes together.
    pub attempted: u64,
    /// Replies that were not OK, were missing, or were not the oracle's.
    pub failed: u64,
    pub trace_sha256: String,
    /// The first thing the verifier objected to, if anything.
    pub failure: Option<String>,
}

impl Report {
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            trace_sha256: String::new(),
            failure: None,
        }
    }

    /// Record a metric. The name must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_n(name, value, None);
    }

    pub fn set_n(&mut self, name: &'static str, value: f64, samples: Option<u64>) {
        let _ = catalogue::unit_of(name);
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name,
            value,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn fail(&mut self, why: String) {
        self.failure.get_or_insert(why);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failure.is_none()
    }

    /// `workload metric value unit` lines, catalogue order, then the
    /// trace hash and the verdict.
    pub fn print_lines(&self) {
        let names = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(LAYERS.iter().map(|m| m.name));
        for name in names {
            if let Some(m) = self.metrics.iter().find(|m| m.name == name) {
                let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
                println!(
                    "{} {} {} {}{n}",
                    self.workload,
                    name,
                    fmt_value(m.value),
                    catalogue::unit_of(name)
                );
            }
        }
        println!(
            "{} loadgen.trace_sha256 {}",
            self.workload, self.trace_sha256
        );
        match &self.failure {
            None => println!(
                "{} verified {}/{} replies",
                self.workload,
                self.attempted - self.failed,
                self.attempted
            ),
            Some(why) => println!(
                "{} FAILED ({} of {} replies wrong): {why}",
                self.workload, self.failed, self.attempted
            ),
        }
    }

    /// The driver's result line. `trace` selects the per-layer list
    /// (`BENCHMARK.json`'s `per_layer`: the end-to-end metrics only some
    /// workloads have, then the layer metrics; a metric this workload
    /// does not produce reads 0); otherwise the gated end-to-end list.
    pub fn result_line(&self, trace: bool) -> String {
        let names: Vec<&'static str> = if trace {
            END_TO_END
                .iter()
                .filter(|m| !m.gated)
                .map(|m| m.name)
                .chain(LAYERS.iter().map(|m| m.name))
                .collect()
        } else {
            END_TO_END
                .iter()
                .filter(|m| m.gated)
                .map(|m| m.name)
                .collect()
        };
        let metrics = names.into_iter().map(|name| {
            (
                name,
                Json::obj([
                    ("value", Json::Num(self.get(name).unwrap_or(0.0))),
                    ("unit", Json::str(catalogue::unit_of(name))),
                ]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .compact()
    }

    /// This workload's entry in `latest.json`.
    pub fn to_json(&self) -> Json {
        let group = |names: &mut dyn Iterator<Item = &'static str>| {
            Json::obj(names.filter_map(|name| {
                let m = self.metrics.iter().find(|m| m.name == name)?;
                let mut fields = vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(catalogue::unit_of(name))),
                ];
                if let Some(n) = m.samples {
                    fields.push(("samples", Json::Num(n as f64)));
                }
                Some((name, Json::obj(fields)))
            }))
        };
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("trace_sha256", Json::str(self.trace_sha256.clone())),
            ("end_to_end", group(&mut END_TO_END.iter().map(|m| m.name))),
            ("per_layer", group(&mut LAYERS.iter().map(|m| m.name))),
        ])
    }
}

/// Six significant digits for people; files and the result line keep
/// every digit.
fn fmt_value(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let digits = (5 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{v:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::new(catalogue::WARM);
        r.attempted = 100;
        r.set("ops_s", 1234.5678);
        r.set("update_p50_us", 9.5);
        r.set("net.pool_hit_ratio", 0.99);
        for trace in [false, true] {
            let doc = json::parse(&r.result_line(trace)).unwrap();
            let keys: Vec<&str> = doc
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
            let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
            let want = if trace {
                END_TO_END.iter().filter(|m| !m.gated).count() + LAYERS.len()
            } else {
                END_TO_END.iter().filter(|m| m.gated).count()
            };
            assert_eq!(metrics.len(), want);
            for (_, m) in metrics {
                assert!(m.get("value").and_then(Json::as_f64).is_some());
                assert!(m.get("unit").and_then(Json::as_str).is_some());
            }
        }
        let e2e = json::parse(&r.result_line(false)).unwrap();
        let ops = e2e.get("metrics").unwrap().get("ops_s").unwrap();
        assert_eq!(ops.get("value").and_then(Json::as_f64), Some(1234.5678));
    }

    #[test]
    fn a_wrong_reply_makes_the_report_incorrect() {
        let mut r = Report::new(catalogue::GP);
        r.attempted = 10;
        assert!(r.correct());
        r.failed = 1;
        r.fail("search reply differs".into());
        assert!(!r.correct());
        assert!(r.result_line(false).contains("\"correct\":false"));
    }

    #[test]
    fn values_print_with_six_significant_digits() {
        assert_eq!(fmt_value(72.406_251), "72.4063");
        assert_eq!(fmt_value(154_321.7), "154322");
        assert_eq!(fmt_value(0.001_234_567), "0.00123457");
        assert_eq!(fmt_value(0.0), "0");
    }
}
