//! The labeled metrics registry: `(name, label-set)` → counter / gauge /
//! summary, with a bounded label-cardinality guard.
//!
//! The registry is a scrape-time view: it counts nothing itself. Every
//! write is a `set` from a ledger the producer owns (the engine's request
//! and solver ledgers, the SLO engine, the profiler), made once per scrape
//! just before [`Registry::render`]. Registration takes one short lock and
//! returns an `Arc`ed handle. Series keys are the *canonical* rendered
//! label set (pairs sorted by key, values escaped), so
//! `[("a","1"),("b","2")]` and `[("b","2"),("a","1")]` are the same series.
//!
//! **Cardinality guard.** A scrape endpoint keyed by tenant-controlled
//! strings must not let one hostile tenant grow the registry without bound:
//! once a family holds `series_cap` distinct label sets, further *new*
//! label sets fold into a single `__other__` series (same label keys,
//! every value `__other__`) and the overflow is counted and exposed as
//! `rrp_obs_series_overflow_total`. A `set` through a folded handle keeps
//! the last writer, so producers with a long tail fold it themselves
//! first: [`Registry::set_counter_family`] sums the tail into `__other__`,
//! and `rrp-slo` keeps the most pessimistic value.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rrp_trace::LogHistogram;

use crate::text::{escape_help, escape_label_value, fmt_f64};

/// Default per-family cap on distinct label sets.
pub const DEFAULT_SERIES_CAP: usize = 64;

/// Label value used for series folded together by the cardinality guard.
pub const OVERFLOW_LABEL: &str = "__other__";

/// Quantiles every summary exposes.
const SUMMARY_QUANTILES: [f64; 3] = [0.5, 0.9, 0.99];

/// A monotonically increasing series handle, `set` at scrape time from an
/// authoritative counter elsewhere — only ever to non-decreasing values.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Overwrite with an authoritative value (scrape-time sync).
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time `f64` series handle (stored as bits in an `AtomicU64`).
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn value(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Default)]
struct SummaryInner {
    /// `f64` bits of the answer to each of [`SUMMARY_QUANTILES`].
    quantiles: [AtomicU64; 3],
    /// `f64` bits of the sum of observations.
    sum: AtomicU64,
    count: AtomicU64,
}

/// A distribution series handle: a [`LogHistogram`] ledger's quantiles
/// (within ~9.05% relative error) and count plus its sum, as of the last
/// `set`. Exposed in Prometheus text as a `summary` (quantiles + `_sum` +
/// `_count`).
#[derive(Clone, Default)]
pub struct Summary(Arc<SummaryInner>);

impl Summary {
    /// Overwrite with `hist`'s quantiles and count and the ledger's `sum`
    /// of observations (scrape-time sync).
    pub fn set(&self, hist: &LogHistogram, sum: f64) {
        for (slot, q) in self.0.quantiles.iter().zip(SUMMARY_QUANTILES) {
            slot.store(hist.quantile(q).to_bits(), Ordering::Relaxed);
        }
        self.0.sum.store(sum.to_bits(), Ordering::Relaxed);
        self.0.count.store(hist.count(), Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum.load(Ordering::Relaxed))
    }

    fn quantile_at(&self, i: usize) -> f64 {
        f64::from_bits(self.0.quantiles[i].load(Ordering::Relaxed))
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Summary,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Summary => "summary",
        }
    }
}

enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Summary(Summary),
}

struct Family {
    kind: Kind,
    help: &'static str,
    /// Canonical label rendering (`k="v",…`, keys sorted) → series.
    series: BTreeMap<String, Series>,
}

/// The metric store behind `/metrics`. Shared as `Arc<Registry>` between
/// the producers' scrape-time syncs and the exposition server (render).
pub struct Registry {
    families: Mutex<BTreeMap<&'static str, Family>>,
    series_cap: usize,
    /// Series registrations folded into `__other__` by the guard.
    overflowed: AtomicU64,
    /// Registrations that hit an existing family of a different type;
    /// they get a detached handle (updates invisible to scrapers).
    type_conflicts: AtomicU64,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A registry with the default per-family cardinality cap.
    pub fn new() -> Self {
        Self::with_series_cap(DEFAULT_SERIES_CAP)
    }

    /// A registry folding new label sets beyond `cap` per family into the
    /// `__other__` bucket (min 1).
    pub fn with_series_cap(cap: usize) -> Self {
        Self {
            families: Mutex::new(BTreeMap::new()),
            series_cap: cap.max(1),
            overflowed: AtomicU64::new(0),
            type_conflicts: AtomicU64::new(0),
        }
    }

    /// Series registrations the cardinality guard folded into `__other__`.
    pub fn overflowed(&self) -> u64 {
        self.overflowed.load(Ordering::Relaxed)
    }

    /// The per-family distinct-label-set cap this registry folds at.
    /// Cap-aware producers (e.g. `rrp-slo`'s per-tenant sync) use it to
    /// fold their own long tails *before* registration, so the folded
    /// series carries a meaningful aggregate instead of whichever value
    /// was set last.
    pub fn series_cap(&self) -> usize {
        self.series_cap
    }

    pub fn counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Counter {
        match self.register(name, help, labels, Kind::Counter) {
            Some(Series::Counter(c)) => c,
            _ => Counter::default(), // detached (type conflict)
        }
    }

    pub fn gauge(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Gauge {
        match self.register(name, help, labels, Kind::Gauge) {
            Some(Series::Gauge(g)) => g,
            _ => Gauge::default(),
        }
    }

    pub fn summary(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Summary {
        match self.register(name, help, labels, Kind::Summary) {
            Some(Series::Summary(s)) => s,
            _ => Summary::default(),
        }
    }

    /// Scrape-time sync of a counter family keyed by one label whose values
    /// come and go (a per-tenant ledger): afterwards the family holds
    /// exactly `rows`, swapped in under one lock so a concurrent render
    /// never sees it half-written. `rows` come in priority order; past the
    /// series cap the first `cap − 1` keep their own series and the rest
    /// are *summed* into `__other__`, so the family's total is preserved.
    pub fn set_counter_family(
        &self,
        name: &'static str,
        help: &'static str,
        key: &'static str,
        rows: &[(&str, u64)],
    ) {
        let named = if rows.len() > self.series_cap { self.series_cap - 1 } else { rows.len() };
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        for (i, &(value, n)) in rows.iter().enumerate() {
            let label = if i < named { value } else { OVERFLOW_LABEL };
            *totals.entry(canonical_labels(&[(key, label)])).or_default() += n;
        }
        let mut families = self.families.lock();
        let family = families.entry(name).or_insert_with(|| Family {
            kind: Kind::Counter,
            help,
            series: BTreeMap::new(),
        });
        if family.kind != Kind::Counter {
            self.type_conflicts.fetch_add(1, Ordering::Relaxed);
            return;
        }
        family.series = totals
            .into_iter()
            .map(|(labels, n)| (labels, Series::Counter(Counter(Arc::new(AtomicU64::new(n))))))
            .collect();
    }

    /// Shared registration path; `None` signals a family type conflict.
    fn register(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
        kind: Kind,
    ) -> Option<Series> {
        let mut families = self.families.lock();
        let family =
            families.entry(name).or_insert_with(|| Family { kind, help, series: BTreeMap::new() });
        if family.kind != kind {
            self.type_conflicts.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let key = canonical_labels(labels);
        if let Some(existing) = family.series.get(&key) {
            return Some(clone_series(existing));
        }
        let key = if family.series.len() < self.series_cap {
            key
        } else {
            // cardinality guard: fold this new label set into __other__
            self.overflowed.fetch_add(1, Ordering::Relaxed);
            let folded: Vec<(&'static str, &str)> =
                labels.iter().map(|&(k, _)| (k, OVERFLOW_LABEL)).collect();
            let folded_key = canonical_labels(&folded);
            if let Some(existing) = family.series.get(&folded_key) {
                return Some(clone_series(existing));
            }
            folded_key
        };
        let fresh = match kind {
            Kind::Counter => Series::Counter(Counter::default()),
            Kind::Gauge => Series::Gauge(Gauge::default()),
            Kind::Summary => Series::Summary(Summary::default()),
        };
        let handle = clone_series(&fresh);
        family.series.insert(key, fresh);
        Some(handle)
    }

    /// Render the whole registry in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` headers, one sample line per
    /// series, summaries as quantile samples plus `_sum` / `_count`.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(4096);
        let families = self.families.lock();
        for (name, family) in families.iter() {
            let _ = writeln!(out, "# HELP {name} {}", escape_help(family.help));
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.as_str());
            for (labels, series) in &family.series {
                match series {
                    Series::Counter(c) => {
                        let _ = writeln!(out, "{name}{} {}", braced(labels), c.get());
                    }
                    Series::Gauge(g) => {
                        let _ = writeln!(out, "{name}{} {}", braced(labels), fmt_f64(g.value()));
                    }
                    Series::Summary(s) => {
                        for (i, q) in SUMMARY_QUANTILES.into_iter().enumerate() {
                            let with_q = if labels.is_empty() {
                                format!("{{quantile=\"{q}\"}}")
                            } else {
                                format!("{{{labels},quantile=\"{q}\"}}")
                            };
                            let _ = writeln!(out, "{name}{with_q} {}", fmt_f64(s.quantile_at(i)));
                        }
                        let _ = writeln!(out, "{name}_sum{} {}", braced(labels), fmt_f64(s.sum()));
                        let _ = writeln!(out, "{name}_count{} {}", braced(labels), s.count());
                    }
                }
            }
        }
        drop(families);
        // the registry's own health: how much the guard had to fold
        let _ = writeln!(
            out,
            "# HELP rrp_obs_series_overflow_total Series folded into __other__ by the label-cardinality guard\n# TYPE rrp_obs_series_overflow_total counter\nrrp_obs_series_overflow_total {}",
            self.overflowed()
        );
        out
    }
}

fn clone_series(s: &Series) -> Series {
    match s {
        Series::Counter(c) => Series::Counter(c.clone()),
        Series::Gauge(g) => Series::Gauge(g.clone()),
        Series::Summary(su) => Series::Summary(su.clone()),
    }
}

/// Canonical label rendering: pairs sorted by key, values escaped, joined
/// as `k="v",…` (empty string for an unlabeled series).
fn canonical_labels(labels: &[(&'static str, &str)]) -> String {
    let mut pairs: Vec<(&str, &str)> = labels.iter().map(|&(k, v)| (k, v)).collect();
    pairs.sort_by(|a, b| a.0.cmp(b.0));
    let mut out = String::new();
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label_value(v));
        out.push('"');
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
        let reg = Registry::new();
        let a = reg.counter("req_total", "Requests", &[("tenant", "a")]);
        reg.counter("req_total", "Requests", &[("tenant", "b")]).set(1);
        a.set(3);
        // re-registration returns the same underlying series
        let a2 = reg.counter("req_total", "Requests", &[("tenant", "a")]);
        a2.set(4);
        let text = reg.render();
        assert!(text.contains("# TYPE req_total counter"), "{text}");
        assert!(text.contains("req_total{tenant=\"a\"} 4"), "{text}");
        assert!(text.contains("req_total{tenant=\"b\"} 1"), "{text}");
        // a family sync accumulates rows sharing a label into one series
        reg.set_counter_family("hits_total", "Hits", "tenant", &[("a", 2), ("a", 5)]);
        assert!(reg.render().contains("hits_total{tenant=\"a\"} 7"));
    }

    #[test]
    fn label_order_does_not_split_series() {
        let reg = Registry::new();
        let x = reg.counter("m", "h", &[("a", "1"), ("b", "2")]);
        let y = reg.counter("m", "h", &[("b", "2"), ("a", "1")]);
        x.set(2);
        assert_eq!(y.get(), 2);
        assert!(reg.render().contains("m{a=\"1\",b=\"2\"} 2"));
    }

    #[test]
    fn gauges_hold_floats() {
        let reg = Registry::new();
        let g = reg.gauge("depth", "Queue depth", &[]);
        g.set(3.5);
        assert!(reg.render().contains("depth 3.5"), "{}", reg.render());
        g.set(-0.25);
        assert!((g.value() + 0.25).abs() < 1e-12);
    }

    #[test]
    fn summaries_expose_quantiles_sum_count() {
        let reg = Registry::new();
        let s = reg.summary("lat_ms", "Latency", &[("rung", "full")]);
        let hist = LogHistogram::new();
        for i in 1..=100 {
            hist.record(i as f64);
        }
        s.set(&hist, 5050.0);
        assert_eq!(s.count(), 100);
        assert!((s.sum() - 5050.0).abs() < 1e-9);
        let text = reg.render();
        assert!(text.contains("lat_ms{rung=\"full\",quantile=\"0.5\"}"), "{text}");
        assert!(text.contains("lat_ms_sum{rung=\"full\"} 5050"), "{text}");
        assert!(text.contains("lat_ms_count{rung=\"full\"} 100"), "{text}");
        // quantile answer within the documented histogram error
        let p50 = s.quantile_at(0);
        assert!((p50 - 51.0).abs() / 51.0 <= 0.0906, "p50 {p50}");
    }

    #[test]
    fn cardinality_guard_folds_into_other() {
        let reg = Registry::with_series_cap(2);
        for i in 0..5 {
            reg.counter("t_total", "h", &[("tenant", &format!("t{i}"))]).set(1);
        }
        assert_eq!(reg.overflowed(), 3);
        let text = reg.render();
        assert!(text.contains("t_total{tenant=\"t0\"} 1"), "{text}");
        assert!(text.contains("t_total{tenant=\"t1\"} 1"), "{text}");
        // t2..t4 all land on one __other__ series
        assert!(text.contains("t_total{tenant=\"__other__\"} 1"), "{text}");
        assert!(!text.contains("tenant=\"t3\""), "{text}");
        assert!(text.contains("rrp_obs_series_overflow_total 3"), "{text}");
    }

    #[test]
    fn family_sync_sums_the_tail_and_replaces_stale_rows() {
        let reg = Registry::with_series_cap(3);
        let rows = [("a", 9), ("b", 5), ("c", 2), ("d", 1)];
        reg.set_counter_family("t_total", "h", "tenant", &rows);
        let text = reg.render();
        assert!(text.contains("t_total{tenant=\"a\"} 9"), "{text}");
        assert!(text.contains("t_total{tenant=\"b\"} 5"), "{text}");
        // c and d are summed, not last-writer
        assert!(text.contains("t_total{tenant=\"__other__\"} 3"), "{text}");
        // the next sync's ranking replaces the family wholesale: `b` drops
        // into the tail instead of lingering with a stale value
        reg.set_counter_family("t_total", "h", "tenant", &[("a", 9), ("c", 6), ("b", 5), ("d", 1)]);
        let text = reg.render();
        assert!(!text.contains("tenant=\"b\""), "{text}");
        assert!(text.contains("t_total{tenant=\"__other__\"} 6"), "{text}");
        assert_eq!(reg.overflowed(), 0, "a pre-folded family never trips the guard");
    }

    #[test]
    fn hostile_tenant_ids_stay_parseable() {
        let reg = Registry::new();
        let hostile = "a\"b\\c\nd";
        reg.set_counter_family("rrp_requests_total", "h", "tenant", &[(hostile, 1)]);
        let text = reg.render();
        let samples = crate::text::parse(&text).expect("hostile labels must not tear the format");
        let req =
            samples.iter().find(|s| s.name == "rrp_requests_total").expect("tenant series present");
        assert_eq!(req.label("tenant"), Some(hostile));
    }

    #[test]
    fn type_conflict_yields_detached_handle() {
        let reg = Registry::new();
        reg.counter("x", "h", &[]).set(1);
        let g = reg.gauge("x", "h", &[]); // wrong type: detached
        g.set(99.0);
        let text = reg.render();
        assert!(text.contains("x 1"), "{text}");
        assert!(!text.contains("99"), "{text}");
    }

    #[test]
    fn concurrent_updates_lose_nothing() {
        let reg = Arc::new(Registry::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let reg = Arc::clone(&reg);
                s.spawn(move || {
                    for i in 0..16 {
                        let label = format!("{t}-{i}");
                        reg.counter("n", "h", &[("k", &label)]).set(i + 1);
                        reg.counter("shared", "h", &[]).set(7);
                    }
                });
            }
        });
        let samples = crate::text::parse(&reg.render()).expect("render parses");
        let named: Vec<_> = samples.iter().filter(|s| s.name == "n").collect();
        assert_eq!(named.len(), 64, "every concurrently registered series landed");
        assert_eq!(named.iter().map(|s| s.value).sum::<f64>(), 4.0 * 136.0);
        assert_eq!(reg.counter("shared", "h", &[]).get(), 7);
    }
}
