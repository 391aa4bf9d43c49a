//! `haste-metrics` — the typed observability registry for the HASTE
//! service stack.
//!
//! Three instrument kinds, all safe on the request path:
//!
//! * [`Counter`] — a monotone `u64`,
//! * [`Gauge`] — a last-write-wins `u64`,
//! * [`Histogram`] — fixed log-spaced (1-2-5 decade) bucket boundaries in
//!   microseconds, shared by every histogram in the system so per-shard
//!   histograms merge bucket-wise with no resampling.
//!
//! Handles are `Arc`-backed and lock-free to record into: the registry
//! mutex is touched only when a handle is first created and when a
//! [`Snapshot`] is taken. The crate deliberately has **no clock** — it
//! never reads wall time; callers measure durations and pass them in, so
//! the deterministic scheduling paths stay free of time sources.
//!
//! A [`Snapshot`] is the frozen, mergeable view: it renders to
//! Prometheus-style text exposition ([`Snapshot::render`]) and parses
//! back from it ([`Snapshot::parse`]), which is how out-of-process shard
//! children ship their registries to the router. Merging is bucket-wise
//! for histograms and wrapping-add for counters, so it is associative
//! and commutative: merge order never changes the rendered output.
//!
//! Metric names follow the normative schema in
//! `docs/service_protocol.md` (`haste_<subsystem>_<name>_<unit>`); the
//! full set, with each family's cross-shard merge rule, lives in
//! [`catalog`].

pub mod catalog;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Shared histogram bucket upper bounds, in microseconds: a 1-2-5
/// sequence across nine decades, 1 µs to 1000 s. Every value above the
/// last bound lands in the implicit `+Inf` overflow bucket. The bounds
/// are integers (exactly representable as `f64`), so bucket assignment
/// and rendered `le` labels are bit-identical on every platform.
pub const BUCKET_BOUNDS_US: [u64; 28] = [
    1,
    2,
    5,
    10,
    20,
    50,
    100,
    200,
    500,
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    20_000_000,
    50_000_000,
    100_000_000,
    200_000_000,
    500_000_000,
    1_000_000_000,
];

/// Bucket count including the `+Inf` overflow bucket.
pub const BUCKET_COUNT: usize = BUCKET_BOUNDS_US.len() + 1;

/// The instrument kinds the registry can hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonically increasing count.
    Counter,
    /// Last-write-wins level.
    Gauge,
    /// Log-bucketed distribution over [`BUCKET_BOUNDS_US`].
    Histogram,
}

/// How two samples of the same gauge combine when snapshots merge.
/// Counters and histograms always sum; gauges declare their semantics in
/// the [`catalog`] (e.g. shard clocks take the max, pending queues sum).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GaugeMerge {
    /// Sum across shards (queue depths, task counts).
    Sum,
    /// Maximum across shards (clocks, per-process thread counts).
    Max,
}

/// Maps a measured value (microseconds) onto its bucket index. Total
/// over all `f64`: `NaN` and values above the last bound land in the
/// overflow bucket, negatives and `-inf` in the first. Deterministic —
/// the bounds are exact integers and the comparison is exact.
pub fn bucket_index(value_us: f64) -> usize {
    if value_us.is_nan() {
        return BUCKET_BOUNDS_US.len();
    }
    BUCKET_BOUNDS_US.partition_point(|&bound| (bound as f64) < value_us)
}

/// The microsecond contribution one observation adds to a histogram
/// sum: clamped to `[0, u64::MAX]`, `NaN` contributes zero. Sums are
/// kept as integers so merging is exact and order-independent.
fn sum_contribution(value_us: f64) -> u64 {
    if value_us.is_finite() && value_us > 0.0 {
        // The cast saturates at u64::MAX for out-of-range values.
        value_us.round() as u64
    } else {
        0
    }
}

// ----------------------------------------------------------------------
// Instruments
// ----------------------------------------------------------------------

/// A monotone counter handle. Cloning shares the underlying cell;
/// `Default` yields a detached cell visible to no registry.
#[derive(Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge handle.
#[derive(Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Replaces the level.
    pub fn set(&self, value: u64) {
        self.cell.store(value, Ordering::Relaxed);
    }

    /// The current level.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

struct HistogramCore {
    buckets: [AtomicU64; BUCKET_COUNT],
    sum_us: AtomicU64,
}

impl HistogramCore {
    fn new() -> HistogramCore {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
        }
    }
}

/// A log-bucketed distribution handle. Recording is two relaxed atomic
/// adds — no locks, no allocation, no panic path.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            core: Arc::new(HistogramCore::new()),
        }
    }
}

impl Histogram {
    /// Records one observation, in microseconds.
    pub fn observe(&self, value_us: f64) {
        self.observe_n(value_us, 1);
    }

    /// Records `n` observations of the same value — the batched-frame
    /// path, where one measured frame duration stands for every record
    /// it carried (keeping histogram counts equal to record counts).
    pub fn observe_n(&self, value_us: f64, n: u64) {
        if n == 0 {
            return;
        }
        let index = bucket_index(value_us).min(BUCKET_COUNT - 1);
        self.core.buckets[index].fetch_add(n, Ordering::Relaxed);
        self.core.sum_us.fetch_add(
            sum_contribution(value_us).saturating_mul(n),
            Ordering::Relaxed,
        );
    }

    /// Total observation count.
    pub fn count(&self) -> u64 {
        self.core
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }

    fn load(&self) -> (Vec<u64>, u128) {
        (
            self.core
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            u128::from(self.core.sum_us.load(Ordering::Relaxed)),
        )
    }
}

// ----------------------------------------------------------------------
// Registry
// ----------------------------------------------------------------------

enum SeriesCell {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Family {
    kind: Kind,
    label_key: &'static str,
    series: BTreeMap<String, SeriesCell>,
}

/// The typed instrument registry. One per process endpoint; handles are
/// created once at wiring time and recorded into lock-free afterwards.
#[derive(Default)]
pub struct Registry {
    families: Mutex<BTreeMap<&'static str, Family>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<&'static str, Family>> {
        // A panic while holding the lock cannot corrupt a BTreeMap of
        // atomics in a way reads care about; recover and continue.
        self.families.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn series(
        &self,
        name: &'static str,
        kind: Kind,
        label_key: &'static str,
        label_value: &str,
    ) -> Option<SeriesCell> {
        let mut families = self.lock();
        let family = families.entry(name).or_insert_with(|| Family {
            kind,
            label_key,
            series: BTreeMap::new(),
        });
        if family.kind != kind || family.label_key != label_key {
            // A name registered twice with conflicting shapes: refuse to
            // alias; the caller gets a detached instrument instead of a
            // panic on the request path.
            return None;
        }
        let cell = family
            .series
            .entry(label_value.to_string())
            .or_insert_with(|| match kind {
                Kind::Counter => SeriesCell::Counter(Counter::default()),
                Kind::Gauge => SeriesCell::Gauge(Gauge::default()),
                Kind::Histogram => SeriesCell::Histogram(Histogram::default()),
            });
        Some(match cell {
            SeriesCell::Counter(c) => SeriesCell::Counter(c.clone()),
            SeriesCell::Gauge(g) => SeriesCell::Gauge(g.clone()),
            SeriesCell::Histogram(h) => SeriesCell::Histogram(h.clone()),
        })
    }

    /// The unlabeled counter `name`, created on first use.
    pub fn counter(&self, name: &'static str) -> Counter {
        self.counter_with(name, "", "")
    }

    /// The counter series `name{label_key="label_value"}`.
    pub fn counter_with(
        &self,
        name: &'static str,
        label_key: &'static str,
        label_value: &str,
    ) -> Counter {
        match self.series(name, Kind::Counter, label_key, label_value) {
            Some(SeriesCell::Counter(c)) => c,
            _ => Counter::default(),
        }
    }

    /// The unlabeled gauge `name`, created on first use.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        self.gauge_with(name, "", "")
    }

    /// The gauge series `name{label_key="label_value"}`.
    pub fn gauge_with(
        &self,
        name: &'static str,
        label_key: &'static str,
        label_value: &str,
    ) -> Gauge {
        match self.series(name, Kind::Gauge, label_key, label_value) {
            Some(SeriesCell::Gauge(g)) => g,
            _ => Gauge::default(),
        }
    }

    /// The unlabeled histogram `name`, created on first use.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        self.histogram_with(name, "", "")
    }

    /// The histogram series `name{label_key="label_value"}`.
    pub fn histogram_with(
        &self,
        name: &'static str,
        label_key: &'static str,
        label_value: &str,
    ) -> Histogram {
        match self.series(name, Kind::Histogram, label_key, label_value) {
            Some(SeriesCell::Histogram(h)) => h,
            _ => Histogram::default(),
        }
    }

    /// Freezes the registry into a mergeable, renderable [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let families = self.lock();
        let mut snap = Snapshot::new();
        for (name, family) in families.iter() {
            for (label_value, cell) in family.series.iter() {
                let labels: Vec<(String, String)> = if family.label_key.is_empty() {
                    Vec::new()
                } else {
                    vec![(family.label_key.to_string(), label_value.clone())]
                };
                let key = SeriesKey {
                    name: name.to_string(),
                    labels,
                };
                let value = match cell {
                    SeriesCell::Counter(c) => Value::Counter(u128::from(c.get())),
                    SeriesCell::Gauge(g) => Value::Gauge(u128::from(g.get())),
                    SeriesCell::Histogram(h) => {
                        let (buckets, sum_us) = h.load();
                        Value::Histogram { buckets, sum_us }
                    }
                };
                snap.samples.insert(key, value);
            }
        }
        snap
    }
}

// ----------------------------------------------------------------------
// Snapshots: the frozen, mergeable, renderable view
// ----------------------------------------------------------------------

/// Identity of one time series: metric name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesKey {
    /// Metric (family) name.
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
}

/// One sample value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// Counter total.
    Counter(u128),
    /// Gauge level.
    Gauge(u128),
    /// Per-bucket (non-cumulative) counts over [`BUCKET_BOUNDS_US`] plus
    /// the overflow bucket, and the integer-microsecond sum.
    Histogram {
        /// Non-cumulative bucket counts, `BUCKET_COUNT` entries.
        buckets: Vec<u64>,
        /// Sum of observations in whole microseconds.
        sum_us: u128,
    },
}

/// A frozen set of samples: what `EXPORT?` renders, what the router
/// merges across shards, and what scrape validation parses back.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    samples: BTreeMap<SeriesKey, Value>,
}

fn make_key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
    let mut labels: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    labels.sort();
    SeriesKey {
        name: name.to_string(),
        labels,
    }
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Snapshot {
        Snapshot::default()
    }

    /// Inserts (or overwrites) a counter sample.
    pub fn set_counter(&mut self, name: &str, labels: &[(&str, &str)], value: u128) {
        self.samples
            .insert(make_key(name, labels), Value::Counter(value));
    }

    /// Inserts (or overwrites) a gauge sample. Its merge semantics come
    /// from the [`catalog`] at merge time.
    pub fn set_gauge(&mut self, name: &str, labels: &[(&str, &str)], value: u128) {
        self.samples
            .insert(make_key(name, labels), Value::Gauge(value));
    }

    /// Inserts (or overwrites) a histogram sample. Bucket vectors shorter
    /// than [`BUCKET_COUNT`] are zero-padded.
    pub fn set_histogram(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        mut buckets: Vec<u64>,
        sum_us: u128,
    ) {
        buckets.resize(BUCKET_COUNT, 0);
        self.samples
            .insert(make_key(name, labels), Value::Histogram { buckets, sum_us });
    }

    /// Iterates all samples in deterministic (name, labels) order.
    pub fn samples(&self) -> impl Iterator<Item = (&SeriesKey, &Value)> {
        self.samples.iter()
    }

    /// Looks up one sample.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Value> {
        self.samples.get(&make_key(name, labels))
    }

    /// Renames every family starting with `from` to start with `to`
    /// instead — how the router files a child's `haste_service_*`
    /// families under the `haste_shard_*` tier before merging.
    pub fn rename_prefix(&mut self, from: &str, to: &str) {
        let samples = std::mem::take(&mut self.samples);
        for (mut key, value) in samples {
            if let Some(rest) = key.name.strip_prefix(from) {
                key.name = format!("{to}{rest}");
            }
            self.samples.insert(key, value);
        }
    }

    /// Merges `other` into `self`, series by series: counters and
    /// histogram buckets/sums add (wrapping, hence associative and
    /// commutative — merge order never changes the rendered output),
    /// gauges combine per their [`catalog`] merge mode. A kind conflict
    /// between same-named series keeps the left operand.
    pub fn merge(&mut self, other: Snapshot) {
        for (key, incoming) in other.samples {
            match self.samples.get_mut(&key) {
                None => {
                    self.samples.insert(key, incoming);
                }
                Some(existing) => match (existing, incoming) {
                    (Value::Counter(a), Value::Counter(b)) => *a = a.wrapping_add(b),
                    (Value::Gauge(a), Value::Gauge(b)) => {
                        *a = match catalog::gauge_merge(&key.name) {
                            GaugeMerge::Sum => a.wrapping_add(b),
                            GaugeMerge::Max => (*a).max(b),
                        };
                    }
                    (
                        Value::Histogram { buckets, sum_us },
                        Value::Histogram {
                            buckets: other_buckets,
                            sum_us: other_sum,
                        },
                    ) => {
                        if buckets.len() < other_buckets.len() {
                            buckets.resize(other_buckets.len(), 0);
                        }
                        for (slot, add) in buckets.iter_mut().zip(other_buckets.iter()) {
                            *slot = slot.wrapping_add(*add);
                        }
                        *sum_us = sum_us.wrapping_add(other_sum);
                    }
                    // Kind conflict: keep the left operand.
                    (_, _) => {}
                },
            }
        }
    }

    /// Renders Prometheus-style text exposition: `# HELP` and `# TYPE`
    /// per family (help text from the [`catalog`]), then one sample line
    /// per series; histograms expand to cumulative `_bucket` lines plus
    /// `_sum`/`_count`. All values are integers — no float formatting —
    /// so the text is bit-stable across platforms.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut current_family: Option<&str> = None;
        for (key, value) in self.samples.iter() {
            if current_family != Some(key.name.as_str()) {
                current_family = Some(key.name.as_str());
                let help = match catalog::spec(&key.name) {
                    Some(spec) => spec.help,
                    None => "Uncataloged metric.",
                };
                let kind = match value {
                    Value::Counter(_) => "counter",
                    Value::Gauge(_) => "gauge",
                    Value::Histogram { .. } => "histogram",
                };
                out.push_str(&format!("# HELP {} {}\n", key.name, help));
                out.push_str(&format!("# TYPE {} {}\n", key.name, kind));
            }
            match value {
                Value::Counter(v) | Value::Gauge(v) => {
                    out.push_str(&key.name);
                    render_labels(&mut out, &key.labels, None);
                    out.push_str(&format!(" {v}\n"));
                }
                Value::Histogram { buckets, sum_us } => {
                    let mut cumulative: u64 = 0;
                    for (index, bound) in BUCKET_BOUNDS_US.iter().enumerate() {
                        cumulative =
                            cumulative.wrapping_add(buckets.get(index).copied().unwrap_or(0));
                        out.push_str(&format!("{}_bucket", key.name));
                        render_labels(&mut out, &key.labels, Some(&bound.to_string()));
                        out.push_str(&format!(" {cumulative}\n"));
                    }
                    cumulative = cumulative
                        .wrapping_add(buckets.get(BUCKET_COUNT - 1).copied().unwrap_or(0));
                    out.push_str(&format!("{}_bucket", key.name));
                    render_labels(&mut out, &key.labels, Some("+Inf"));
                    out.push_str(&format!(" {cumulative}\n"));
                    out.push_str(&format!("{}_sum", key.name));
                    render_labels(&mut out, &key.labels, None);
                    out.push_str(&format!(" {sum_us}\n"));
                    out.push_str(&format!("{}_count", key.name));
                    render_labels(&mut out, &key.labels, None);
                    out.push_str(&format!(" {cumulative}\n"));
                }
            }
        }
        out
    }

    /// Parses text exposition back into a snapshot — the inverse of
    /// [`render`](Snapshot::render) for documents this crate produced,
    /// and a strict validator for scrape output: every line must be
    /// `# HELP`, `# TYPE`, or `name{labels} value`, histograms must use
    /// exactly [`BUCKET_BOUNDS_US`] with monotone cumulative counts, and
    /// every sample must belong to a `# TYPE`-declared family.
    pub fn parse(text: &str) -> Result<Snapshot, String> {
        let mut kinds: BTreeMap<String, Kind> = BTreeMap::new();
        let mut snap = Snapshot::new();
        // Histogram accumulator: (family, labels-without-le) -> state.
        let mut partials: BTreeMap<SeriesKey, HistogramPartial> = BTreeMap::new();
        for (number, raw) in text.lines().enumerate() {
            let line = raw.trim_end();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# ") {
                let mut fields = rest.splitn(3, ' ');
                let directive = fields.next().unwrap_or("");
                let name = fields.next().unwrap_or("");
                match directive {
                    "HELP" if !name.is_empty() => continue,
                    "TYPE" => {
                        let kind = match fields.next() {
                            Some("counter") => Kind::Counter,
                            Some("gauge") => Kind::Gauge,
                            Some("histogram") => Kind::Histogram,
                            other => {
                                return Err(format!(
                                    "line {}: bad TYPE `{}`",
                                    number + 1,
                                    other.unwrap_or("")
                                ))
                            }
                        };
                        kinds.insert(name.to_string(), kind);
                        continue;
                    }
                    _ => return Err(format!("line {}: bad comment `{line}`", number + 1)),
                }
            }
            let (series, value_text) = split_sample_line(line)
                .ok_or_else(|| format!("line {}: bad sample `{line}`", number + 1))?;
            let value: u128 = value_text
                .parse()
                .map_err(|_| format!("line {}: bad value `{value_text}`", number + 1))?;
            let (key, labels) = series;
            if let Some(kind) = kinds.get(&key) {
                // A scalar family sample.
                match kind {
                    Kind::Counter => snap.samples.insert(
                        SeriesKey {
                            name: key,
                            labels,
                        },
                        Value::Counter(value),
                    ),
                    Kind::Gauge => snap.samples.insert(
                        SeriesKey {
                            name: key,
                            labels,
                        },
                        Value::Gauge(value),
                    ),
                    Kind::Histogram => {
                        return Err(format!(
                            "line {}: histogram family `{key}` sampled without a _bucket/_sum/_count suffix",
                            number + 1
                        ))
                    }
                };
                continue;
            }
            // A histogram component line.
            let (family, part) = match key
                .strip_suffix("_bucket")
                .map(|f| (f, HistPart::Bucket))
                .or_else(|| key.strip_suffix("_sum").map(|f| (f, HistPart::Sum)))
                .or_else(|| key.strip_suffix("_count").map(|f| (f, HistPart::Count)))
            {
                Some(split) => split,
                None => {
                    return Err(format!(
                        "line {}: sample `{key}` has no preceding # TYPE",
                        number + 1
                    ))
                }
            };
            if kinds.get(family) != Some(&Kind::Histogram) {
                return Err(format!(
                    "line {}: `{key}` does not belong to a declared histogram",
                    number + 1
                ));
            }
            let (le, labels): (Option<String>, Vec<(String, String)>) = match part {
                HistPart::Bucket => {
                    let mut le = None;
                    let rest: Vec<(String, String)> = labels
                        .into_iter()
                        .filter_map(|(k, v)| {
                            if k == "le" {
                                le = Some(v);
                                None
                            } else {
                                Some((k, v))
                            }
                        })
                        .collect();
                    match le {
                        Some(le) => (Some(le), rest),
                        None => {
                            return Err(format!(
                                "line {}: bucket line without an `le` label",
                                number + 1
                            ))
                        }
                    }
                }
                _ => (None, labels),
            };
            let partial = partials
                .entry(SeriesKey {
                    name: family.to_string(),
                    labels,
                })
                .or_default();
            match part {
                HistPart::Bucket => {
                    if let Some(le) = le {
                        partial.cumulative.push((le, value));
                    }
                }
                HistPart::Sum => partial.sum = Some(value),
                HistPart::Count => partial.count = Some(value),
            }
        }
        for (key, partial) in partials {
            let (buckets, total) = partial.finish(&key.name)?;
            let sum_us = partial.sum.unwrap_or(0);
            if let Some(count) = partial.count {
                if count != u128::from(total) {
                    return Err(format!(
                        "histogram `{}`: _count {} != cumulative bucket total {}",
                        key.name, count, total
                    ));
                }
            }
            snap.samples
                .insert(key, Value::Histogram { buckets, sum_us });
        }
        Ok(snap)
    }
}

#[derive(Clone, Copy)]
enum HistPart {
    Bucket,
    Sum,
    Count,
}

#[derive(Default)]
struct HistogramPartial {
    /// `(le label, cumulative count)` in document order.
    cumulative: Vec<(String, u128)>,
    sum: Option<u128>,
    count: Option<u128>,
}

impl HistogramPartial {
    /// Validates bucket boundaries against [`BUCKET_BOUNDS_US`] and
    /// de-cumulates into per-bucket counts; returns the overflow total.
    fn finish(&self, family: &str) -> Result<(Vec<u64>, u64), String> {
        if self.cumulative.len() != BUCKET_COUNT {
            return Err(format!(
                "histogram `{family}`: {} bucket lines, expected {}",
                self.cumulative.len(),
                BUCKET_COUNT
            ));
        }
        let mut buckets = Vec::with_capacity(BUCKET_COUNT);
        let mut previous: u128 = 0;
        for (index, (le, cumulative)) in self.cumulative.iter().enumerate() {
            let expected = match BUCKET_BOUNDS_US.get(index) {
                Some(bound) => bound.to_string(),
                None => "+Inf".to_string(),
            };
            if *le != expected {
                return Err(format!(
                    "histogram `{family}`: bucket {index} has le=\"{le}\", expected \"{expected}\""
                ));
            }
            if *cumulative < previous {
                return Err(format!(
                    "histogram `{family}`: cumulative counts decrease at le=\"{le}\""
                ));
            }
            let delta = cumulative - previous;
            let delta = u64::try_from(delta)
                .map_err(|_| format!("histogram `{family}`: bucket count overflows u64"))?;
            buckets.push(delta);
            previous = *cumulative;
        }
        let total =
            u64::try_from(previous).map_err(|_| format!("histogram `{family}`: total overflow"))?;
        Ok((buckets, total))
    }
}

fn render_labels(out: &mut String, labels: &[(String, String)], le: Option<&str>) {
    if labels.is_empty() && le.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (key, value) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(key);
        out.push_str("=\"");
        out.push_str(&escape_label(value));
        out.push('"');
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str("le=\"");
        out.push_str(le);
        out.push('"');
    }
    out.push('}');
}

fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn unescape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    let mut chars = value.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

type ParsedSeries = ((String, Vec<(String, String)>), String);

/// Splits `name{k="v",...} value` (labels optional) into its parts.
/// Returns `None` on any grammar violation.
fn split_sample_line(line: &str) -> Option<ParsedSeries> {
    let (series_text, value_text) = line.rsplit_once(' ')?;
    let value_text = value_text.to_string();
    let series_text = series_text.trim_end();
    if let Some((name, label_text)) = series_text.split_once('{') {
        let label_text = label_text.strip_suffix('}')?;
        if !valid_metric_name(name) {
            return None;
        }
        let mut labels = Vec::new();
        if !label_text.is_empty() {
            for pair in split_label_pairs(label_text)? {
                labels.push(pair);
            }
        }
        labels.sort();
        Some(((name.to_string(), labels), value_text))
    } else {
        if !valid_metric_name(series_text) {
            return None;
        }
        Some(((series_text.to_string(), Vec::new()), value_text))
    }
}

/// Splits `k="v",k2="v2"` respecting escapes inside quoted values.
fn split_label_pairs(text: &str) -> Option<Vec<(String, String)>> {
    let mut pairs = Vec::new();
    let mut rest = text;
    loop {
        let (key, after_key) = rest.split_once("=\"")?;
        if key.is_empty() {
            return None;
        }
        // Find the closing unescaped quote.
        let mut end = None;
        let mut escaped = false;
        for (offset, c) in after_key.char_indices() {
            if escaped {
                escaped = false;
                continue;
            }
            match c {
                '\\' => escaped = true,
                '"' => {
                    end = Some(offset);
                    break;
                }
                _ => {}
            }
        }
        let end = end?;
        let value = unescape_label(&after_key[..end]);
        pairs.push((key.to_string(), value));
        let tail = &after_key[end + 1..];
        if tail.is_empty() {
            return Some(pairs);
        }
        rest = tail.strip_prefix(',')?;
    }
}

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        && name.starts_with(|c: char| c.is_ascii_lowercase())
}

/// The smallest bucket upper bound at or above the `q`-quantile of a
/// non-cumulative bucket vector — the scrape-side percentile estimator
/// (an upper bound, conservative by one bucket). `None` for an empty
/// histogram; `u64::MAX` when the quantile falls in the overflow bucket.
pub fn quantile_upper_bound_us(buckets: &[u64], q: f64) -> Option<u64> {
    let total: u128 = buckets.iter().map(|&b| u128::from(b)).sum();
    if total == 0 {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let mut rank = (q * total as f64).ceil() as u128;
    rank = rank.clamp(1, total);
    let mut cumulative: u128 = 0;
    for (index, &count) in buckets.iter().enumerate() {
        cumulative += u128::from(count);
        if cumulative >= rank {
            return Some(match BUCKET_BOUNDS_US.get(index) {
                Some(bound) => *bound,
                None => u64::MAX,
            });
        }
    }
    Some(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_total_over_f64() {
        assert_eq!(bucket_index(f64::NEG_INFINITY), 0);
        assert_eq!(bucket_index(-1.0), 0);
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(1.0), 0); // le="1" includes 1.0
        assert_eq!(bucket_index(1.5), 1);
        assert_eq!(bucket_index(2.0), 1);
        assert_eq!(bucket_index(2.1), 2);
        assert_eq!(bucket_index(1_000_000_000.0), BUCKET_BOUNDS_US.len() - 1);
        assert_eq!(bucket_index(1_000_000_001.0), BUCKET_BOUNDS_US.len());
        assert_eq!(bucket_index(f64::INFINITY), BUCKET_BOUNDS_US.len());
        assert_eq!(bucket_index(f64::NAN), BUCKET_BOUNDS_US.len());
    }

    #[test]
    fn boundaries_are_strictly_increasing() {
        for window in BUCKET_BOUNDS_US.windows(2) {
            assert!(window[0] < window[1]);
        }
    }

    #[test]
    fn registry_handles_share_cells_and_snapshot() {
        let registry = Registry::new();
        let a = registry.counter_with("haste_service_requests_total", "opcode", "SUBMIT");
        let b = registry.counter_with("haste_service_requests_total", "opcode", "SUBMIT");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let hist = registry.histogram_with("haste_service_request_duration_us", "opcode", "SUBMIT");
        hist.observe(7.0);
        hist.observe_n(150.0, 4);
        assert_eq!(hist.count(), 5);
        let snap = registry.snapshot();
        assert_eq!(
            snap.get("haste_service_requests_total", &[("opcode", "SUBMIT")]),
            Some(&Value::Counter(3))
        );
        match snap.get("haste_service_request_duration_us", &[("opcode", "SUBMIT")]) {
            Some(Value::Histogram { buckets, sum_us }) => {
                assert_eq!(buckets.iter().sum::<u64>(), 5);
                assert_eq!(*sum_us, 7 + 150 * 4);
            }
            other => panic!("expected a histogram sample, got {other:?}"),
        }
    }

    #[test]
    fn conflicting_registration_detaches_instead_of_panicking() {
        let registry = Registry::new();
        let _counter = registry.counter("haste_engine_admitted_total");
        let gauge = registry.gauge("haste_engine_admitted_total");
        gauge.set(99); // lands nowhere visible
        let snap = registry.snapshot();
        assert_eq!(
            snap.get("haste_engine_admitted_total", &[]),
            Some(&Value::Counter(0))
        );
    }

    #[test]
    fn render_parse_roundtrips() {
        let registry = Registry::new();
        registry
            .counter_with("haste_service_requests_total", "opcode", "TICK")
            .add(11);
        registry.gauge("haste_engine_pending_tasks").set(4);
        let hist = registry.histogram_with("haste_service_request_duration_us", "opcode", "TICK");
        hist.observe(3.0);
        hist.observe(40.0);
        hist.observe(2e12); // overflow bucket
        let snap = registry.snapshot();
        let text = snap.render();
        let parsed = Snapshot::parse(&text).expect("own render must parse");
        assert_eq!(parsed, snap);
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn merge_is_order_invariant_bit_for_bit() {
        let mut a = Snapshot::new();
        a.set_counter("haste_engine_admitted_total", &[], 5);
        a.set_gauge("haste_engine_clock_slots", &[], 9);
        a.set_histogram("haste_shard_request_duration_us", &[], vec![1, 2, 3], 77);
        let mut b = Snapshot::new();
        b.set_counter("haste_engine_admitted_total", &[], 6);
        b.set_gauge("haste_engine_clock_slots", &[], 12);
        b.set_histogram("haste_shard_request_duration_us", &[], vec![4, 0, 1], 33);
        let mut c = Snapshot::new();
        c.set_gauge("haste_engine_clock_slots", &[], 3);
        c.set_histogram("haste_shard_request_duration_us", &[], vec![0, 7], 1);

        let mut left = a.clone();
        left.merge(b.clone());
        left.merge(c.clone());
        let mut right = c.clone();
        right.merge(b.clone());
        right.merge(a.clone());
        assert_eq!(left.render(), right.render());
        // clock is a max-merge gauge per the catalog
        assert_eq!(
            left.get("haste_engine_clock_slots", &[]),
            Some(&Value::Gauge(12))
        );
        assert_eq!(
            left.get("haste_engine_admitted_total", &[]),
            Some(&Value::Counter(11))
        );
    }

    #[test]
    fn rename_and_retain_rewrite_families() {
        let mut snap = Snapshot::new();
        snap.set_counter("haste_service_requests_total", &[("opcode", "SUBMIT")], 3);
        snap.set_gauge("haste_engine_clock_slots", &[], 7);
        snap.rename_prefix("haste_service_", "haste_shard_");
        assert_eq!(
            snap.get("haste_shard_requests_total", &[("opcode", "SUBMIT")]),
            Some(&Value::Counter(3))
        );
        assert_eq!(
            snap.get("haste_engine_clock_slots", &[]),
            Some(&Value::Gauge(7))
        );
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "garbage line\n",
            "# NOPE x y\n",
            "# TYPE haste_x_total counter\nhaste_x_total notanumber\n",
            "haste_orphan_total 3\n",                      // no TYPE
            "# TYPE haste_h_us histogram\nhaste_h_us 3\n", // bare histogram sample
            "# TYPE haste_h_us histogram\nhaste_h_us_bucket{le=\"7\"} 3\n", // bad bound
        ] {
            assert!(Snapshot::parse(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn label_escaping_roundtrips() {
        let mut snap = Snapshot::new();
        snap.set_counter(
            "haste_service_errors_total",
            &[("err_code", "bad\"quote\\slash")],
            2,
        );
        let text = snap.render();
        let parsed = Snapshot::parse(&text).expect("escaped labels parse");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn quantile_upper_bound_walks_buckets() {
        let mut buckets = vec![0u64; BUCKET_COUNT];
        buckets[0] = 50; // le=1
        buckets[3] = 49; // le=10
        buckets[BUCKET_COUNT - 1] = 1; // overflow
        assert_eq!(quantile_upper_bound_us(&buckets, 0.5), Some(1));
        assert_eq!(quantile_upper_bound_us(&buckets, 0.99), Some(10));
        assert_eq!(quantile_upper_bound_us(&buckets, 1.0), Some(u64::MAX));
        assert_eq!(quantile_upper_bound_us(&[0; BUCKET_COUNT], 0.5), None);
    }
}
