//! The `/metrics` exposition builder: `(name, label-set)` → counter /
//! gauge / summary, built afresh for every scrape and rendered once.
//!
//! Nothing here outlives a scrape. The producers (the engine's request and
//! solver ledgers, the SLO view, the profiler) write their ledgers' current
//! values into a new [`Exposition`], and [`Exposition::render`] consumes
//! it, so a series whose row has left a ledger — a tenant that dropped out
//! of the exported ranking — leaves the exposition with it. Series keys are
//! the *canonical* rendered label set (pairs sorted by key, values
//! escaped), so `[("a","1"),("b","2")]` and `[("b","2"),("a","1")]` are the
//! same series, and a second write to a series overwrites the first.
//!
//! **Cardinality guard.** A scrape keyed by tenant-controlled strings must
//! not grow without bound: a family holds at most [`SERIES_CAP`] label
//! sets. Producers with a long tail fold it themselves first —
//! [`Exposition::counter_family`] sums the tail into `__other__`, the SLO
//! view keeps the most pessimistic value — so the folded series still
//! means something. A write that would open a label set past the cap is
//! dropped and counted in the `rrp_obs_series_dropped` self-metric, which
//! reads 0 while every producer pre-folds.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use rrp_trace::LogHistogram;

use crate::text::{escape_help, escape_label_value, fmt_f64};

/// Per-family cap on distinct label sets.
pub const SERIES_CAP: usize = 64;

/// Label value of the series a producer folds its tail into.
pub const OVERFLOW_LABEL: &str = "__other__";

/// Quantiles every summary exposes.
const SUMMARY_QUANTILES: [f64; 3] = [0.5, 0.9, 0.99];

enum Series {
    Counter(u64),
    Gauge(f64),
    /// A [`LogHistogram`]'s answers to [`SUMMARY_QUANTILES`] (within
    /// ~9.05% relative error) and count, plus the ledger's exact sum.
    Summary {
        quantiles: [f64; 3],
        sum: f64,
        count: u64,
    },
}

impl Series {
    /// The family type this series renders as (`# TYPE` line).
    fn kind(&self) -> &'static str {
        match self {
            Series::Counter(_) => "counter",
            Series::Gauge(_) => "gauge",
            Series::Summary { .. } => "summary",
        }
    }
}

struct Family {
    kind: &'static str,
    help: &'static str,
    /// Canonical label rendering (`k="v",…`, keys sorted) → series.
    series: BTreeMap<String, Series>,
}

/// One scrape's worth of metrics: written by the producers, then rendered
/// once in the Prometheus text format.
#[derive(Default)]
pub struct Exposition {
    families: BTreeMap<&'static str, Family>,
    /// New label sets refused by the cardinality guard.
    dropped: u64,
}

impl Exposition {
    /// Write a counter series: an authoritative total from a ledger.
    pub fn counter(
        &mut self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
        value: u64,
    ) {
        self.write(name, help, labels, Series::Counter(value));
    }

    /// Write a point-in-time gauge series.
    pub fn gauge(
        &mut self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
        value: f64,
    ) {
        self.write(name, help, labels, Series::Gauge(value));
    }

    /// Write a summary series: `hist`'s quantiles and count and the
    /// ledger's `sum` of observations, exposed as quantile samples plus
    /// `_sum` / `_count`.
    pub fn summary(
        &mut self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
        hist: &LogHistogram,
        sum: f64,
    ) {
        let quantiles = SUMMARY_QUANTILES.map(|q| hist.quantile(q));
        self.write(name, help, labels, Series::Summary { quantiles, sum, count: hist.count() });
    }

    /// Write a counter family keyed by one label whose values come and go
    /// (a per-tenant ledger): the family holds exactly `rows`, summed per
    /// label value. `rows` come in priority order; past [`SERIES_CAP`] the
    /// first `SERIES_CAP − 1` keep their own series and the rest are
    /// *summed* into `__other__`, so the family's total is preserved.
    pub fn counter_family(
        &mut self,
        name: &'static str,
        help: &'static str,
        key: &'static str,
        rows: &[(&str, u64)],
    ) {
        let named = if rows.len() > SERIES_CAP { SERIES_CAP - 1 } else { rows.len() };
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        for (i, &(value, n)) in rows.iter().enumerate() {
            let label = if i < named { value } else { OVERFLOW_LABEL };
            *totals.entry(canonical_labels(&[(key, label)])).or_default() += n;
        }
        if let Some(family) = self.family(name, help, "counter") {
            family.series =
                totals.into_iter().map(|(labels, n)| (labels, Series::Counter(n))).collect();
        }
    }

    /// The family `name`, created on first use; `None` (the write is
    /// dropped) when it already exists with a different kind.
    fn family(
        &mut self,
        name: &'static str,
        help: &'static str,
        kind: &'static str,
    ) -> Option<&mut Family> {
        let family = self.families.entry(name).or_insert_with(|| Family {
            kind,
            help,
            series: BTreeMap::new(),
        });
        (family.kind == kind).then_some(family)
    }

    fn write(
        &mut self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
        series: Series,
    ) {
        let key = canonical_labels(labels);
        let Some(family) = self.family(name, help, series.kind()) else { return };
        if family.series.len() < SERIES_CAP || family.series.contains_key(&key) {
            family.series.insert(key, series);
        } else {
            self.dropped += 1;
        }
    }

    /// Render in the Prometheus text exposition format (version 0.0.4):
    /// families by name, each with `# HELP` / `# TYPE` headers and one
    /// sample line per series in label order, then the guard's own
    /// `rrp_obs_series_dropped`.
    pub fn render(self) -> String {
        let mut out = String::with_capacity(4096);
        for (name, family) in &self.families {
            let _ = writeln!(out, "# HELP {name} {}", escape_help(family.help));
            let _ = writeln!(out, "# TYPE {name} {}", family.kind);
            for (labels, series) in &family.series {
                match series {
                    Series::Counter(n) => {
                        let _ = writeln!(out, "{name}{} {n}", braced(labels));
                    }
                    Series::Gauge(v) => {
                        let _ = writeln!(out, "{name}{} {}", braced(labels), fmt_f64(*v));
                    }
                    Series::Summary { quantiles, sum, count } => {
                        for (q, v) in SUMMARY_QUANTILES.into_iter().zip(quantiles) {
                            let with_q = if labels.is_empty() {
                                format!("{{quantile=\"{q}\"}}")
                            } else {
                                format!("{{{labels},quantile=\"{q}\"}}")
                            };
                            let _ = writeln!(out, "{name}{with_q} {}", fmt_f64(*v));
                        }
                        let _ = writeln!(out, "{name}_sum{} {}", braced(labels), fmt_f64(*sum));
                        let _ = writeln!(out, "{name}_count{} {count}", braced(labels));
                    }
                }
            }
        }
        let _ = writeln!(
            out,
            "# HELP rrp_obs_series_dropped New series dropped past the per-family cap by the label-cardinality guard\n# TYPE rrp_obs_series_dropped gauge\nrrp_obs_series_dropped {}",
            self.dropped
        );
        out
    }
}

/// Canonical label rendering: pairs sorted by key, values escaped, joined
/// as `k="v",…` (empty string for an unlabeled series).
fn canonical_labels(labels: &[(&'static str, &str)]) -> String {
    let mut pairs = labels.to_vec();
    pairs.sort_by_key(|&(k, _)| k);
    let mut out = String::new();
    for (k, v) in pairs {
        if !out.is_empty() {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    out
}

/// `{labels}` or nothing for the unlabeled series.
fn braced(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_render_and_accumulate() {
        let mut x = Exposition::default();
        x.counter("req_total", "Requests", &[("tenant", "a")], 3);
        x.counter("req_total", "Requests", &[("tenant", "b")], 1);
        // a second write to the same series overwrites it
        x.counter("req_total", "Requests", &[("tenant", "a")], 4);
        // a family write accumulates rows sharing a label into one series
        x.counter_family("hits_total", "Hits", "tenant", &[("a", 2), ("a", 5)]);
        let text = x.render();
        assert!(text.contains("# TYPE req_total counter"), "{text}");
        assert!(text.contains("req_total{tenant=\"a\"} 4"), "{text}");
        assert!(text.contains("req_total{tenant=\"b\"} 1"), "{text}");
        assert!(text.contains("hits_total{tenant=\"a\"} 7"), "{text}");
    }

    #[test]
    fn label_order_does_not_split_series() {
        let mut x = Exposition::default();
        x.counter("m", "h", &[("a", "1"), ("b", "2")], 1);
        x.counter("m", "h", &[("b", "2"), ("a", "1")], 2);
        let text = x.render();
        assert!(text.contains("m{a=\"1\",b=\"2\"} 2"), "{text}");
        assert_eq!(text.matches("m{").count(), 1, "{text}");
    }

    #[test]
    fn gauges_hold_floats() {
        let mut x = Exposition::default();
        x.gauge("depth", "Queue depth", &[], 3.5);
        x.gauge("skew", "Skew", &[], -0.25);
        let text = x.render();
        assert!(text.contains("depth 3.5"), "{text}");
        assert!(text.contains("skew -0.25"), "{text}");
    }

    #[test]
    fn summaries_expose_quantiles_sum_count() {
        let mut x = Exposition::default();
        let hist = LogHistogram::new();
        for i in 1..=100 {
            hist.record(i as f64);
        }
        x.summary("lat_ms", "Latency", &[("rung", "full")], &hist, 5050.0);
        let text = x.render();
        assert!(text.contains("lat_ms_sum{rung=\"full\"} 5050"), "{text}");
        assert!(text.contains("lat_ms_count{rung=\"full\"} 100"), "{text}");
        let samples = crate::text::parse(&text).expect("summary parses");
        let p50 = samples
            .iter()
            .find(|s| s.name == "lat_ms" && s.label("quantile") == Some("0.5"))
            .expect("p50 sample")
            .value;
        // quantile answer within the documented histogram error
        assert!((p50 - 51.0).abs() / 51.0 <= 0.0906, "p50 {p50}");
    }

    #[test]
    fn cardinality_guard_folds_into_other() {
        // a hostile flood of tenant ids, pre-folded by the family write:
        // the family sits exactly at the cap and nothing is dropped
        let ids: Vec<String> = (0..SERIES_CAP + 37).map(|i| format!("t{i:03}")).collect();
        let rows: Vec<(&str, u64)> = ids.iter().map(|id| (id.as_str(), 1)).collect();
        let mut x = Exposition::default();
        x.counter_family("t_total", "h", "tenant", &rows);
        let samples = crate::text::parse(&x.render()).expect("render parses");
        let family: Vec<_> = samples.iter().filter(|s| s.name == "t_total").collect();
        assert_eq!(family.len(), SERIES_CAP);
        let other = family.iter().find(|s| s.label("tenant") == Some(OVERFLOW_LABEL));
        assert_eq!(other.map(|s| s.value), Some(38.0), "the 38-row tail is summed");
        let dropped = samples.iter().find(|s| s.name == "rrp_obs_series_dropped");
        assert_eq!(dropped.map(|s| s.value), Some(0.0));
    }

    #[test]
    fn series_past_the_cap_are_dropped_and_counted() {
        let mut x = Exposition::default();
        for i in 0..SERIES_CAP + 3 {
            x.counter("t_total", "h", &[("tenant", &format!("t{i:03}"))], 1);
        }
        // overwriting a series already held is not a new label set
        x.counter("t_total", "h", &[("tenant", "t000")], 5);
        let text = x.render();
        let samples = crate::text::parse(&text).expect("render parses");
        assert_eq!(samples.iter().filter(|s| s.name == "t_total").count(), SERIES_CAP);
        assert!(text.contains("t_total{tenant=\"t000\"} 5"), "{text}");
        // no garbage fold series: the late label sets are simply absent
        assert!(!text.contains(OVERFLOW_LABEL), "{text}");
        assert!(!text.contains(&format!("t{SERIES_CAP:03}")), "{text}");
        assert!(text.contains("# TYPE rrp_obs_series_dropped gauge"), "{text}");
        assert!(text.contains("rrp_obs_series_dropped 3"), "{text}");
    }

    #[test]
    fn family_sync_sums_the_tail_and_replaces_stale_rows() {
        let busy: Vec<String> = (0..SERIES_CAP - 2).map(|i| format!("t{i:03}")).collect();
        let render = |tail: [(&str, u64); 4]| {
            let mut rows: Vec<(&str, u64)> = busy.iter().map(|t| (t.as_str(), 100)).collect();
            rows.extend(tail);
            let mut x = Exposition::default();
            x.counter_family("t_total", "h", "tenant", &rows);
            x.render()
        };
        let text = render([("x", 50), ("b", 5), ("c", 2), ("d", 1)]);
        assert!(text.contains("t_total{tenant=\"x\"} 50"), "{text}");
        // b, c and d are summed, not last-writer
        assert!(text.contains("t_total{tenant=\"__other__\"} 8"), "{text}");
        assert!(!text.contains("tenant=\"b\""), "{text}");
        // the next scrape's ranking is its own: `c` climbs into the named
        // rows and `x` drops into the tail instead of lingering
        let text = render([("c", 60), ("b", 5), ("x", 2), ("d", 1)]);
        assert!(text.contains("t_total{tenant=\"c\"} 60"), "{text}");
        assert!(!text.contains("tenant=\"x\""), "{text}");
        assert!(text.contains("t_total{tenant=\"__other__\"} 8"), "{text}");
        assert!(text.contains("rrp_obs_series_dropped 0"), "a pre-folded family never drops");
    }

    #[test]
    fn hostile_tenant_ids_stay_parseable() {
        let hostile = "a\"b\\c\nd";
        let mut x = Exposition::default();
        x.counter_family("rrp_requests_total", "h", "tenant", &[(hostile, 1)]);
        let text = x.render();
        let samples = crate::text::parse(&text).expect("hostile labels must not tear the format");
        let req =
            samples.iter().find(|s| s.name == "rrp_requests_total").expect("tenant series present");
        assert_eq!(req.label("tenant"), Some(hostile));
    }

    #[test]
    fn type_conflict_write_is_dropped() {
        let mut x = Exposition::default();
        x.counter("x", "h", &[], 1);
        x.gauge("x", "h", &[], 99.0); // wrong kind: dropped
        x.counter_family("g", "h", "k", &[("a", 1)]);
        x.summary("g", "h", &[], &LogHistogram::new(), 0.0);
        let text = x.render();
        assert!(text.contains("x 1"), "{text}");
        assert!(!text.contains("99"), "{text}");
        assert!(text.contains("# TYPE g counter"), "{text}");
        assert!(!text.contains("quantile"), "{text}");
    }
}
