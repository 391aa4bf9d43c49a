//! What one run measured, the correctness and determinism gates, and the
//! output: human-readable lines, then the one-line JSON result.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use crate::trace::Tracer;
use crate::{work_dir, Args};

/// End-to-end metrics, printed with `--trace 0`. Every workload reports
/// every one of them (README.md, "End-to-end metrics").
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("plan_p50_ms", "ms"),
    ("plan_p80_ms", "ms"),
    ("tasks_per_s", "1/s"),
    ("utility", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer the workload
/// bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("submodular.greedy_ms", "ms"),
    ("submodular.oracle_marginals", "count"),
    ("submodular.oracle_commits", "count"),
    ("core.instance.build_ms", "ms"),
    ("core.offline.rounding_ms", "ms"),
    ("model.eval.p1_ms", "ms"),
    ("model.coverage.build_ms", "ms"),
    ("distributed.engine.coverage_build_ms", "ms"),
    ("distributed.engine.instance_build_ms", "ms"),
    ("distributed.engine.negotiate_ms", "ms"),
    ("distributed.engine.rounding_ms", "ms"),
    ("distributed.engine.other_ms", "ms"),
    ("distributed.engine.oracle_marginals", "count"),
    ("distributed.negotiation.messages", "count"),
    ("distributed.negotiation.rounds", "count"),
    ("service.router.replan_ms", "ms"),
    ("service.router.join_wait_ms", "ms"),
    ("service.router.tick_mean_ms", "ms"),
    ("service.router.submit_mean_us", "us"),
    ("service.router.frame_records", "count"),
    ("service.wire.submit_mean_us", "us"),
    ("client.frame_p50_us", "us"),
    ("client.frame_p90_us", "us"),
    ("service.snapshot.ms", "ms"),
    ("service.wal.append_mean_us", "us"),
    ("service.wal.appends", "count"),
    ("service.wal.fsync_mean_us", "us"),
    ("service.wal.fsyncs", "count"),
    ("service.wal.checkpoints", "count"),
    ("service.wal.checkpoint_ms", "ms"),
    ("service.wal.checkpoint_bytes", "bytes"),
    ("service.wal.bytes_written", "bytes"),
    ("service.recovery.recover_ms", "ms"),
    ("service.recovery.parse_ms", "ms"),
    ("service.recovery.replayed_ops", "count"),
    ("trace.overhead_pct", "%"),
];

pub struct Report {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
    pub attempted: u64,
    pub failed: u64,
    errors: Vec<String>,
    end_to_end: Vec<(&'static str, f64)>,
    layers: Vec<(&'static str, f64)>,
    /// Sample count behind each reported percentile or median.
    samples: Vec<(&'static str, usize)>,
    /// Values that must repeat exactly at a fixed seed.
    exact: Vec<(&'static str, String)>,
    episodes: usize,
}

impl Report {
    pub fn new(args: &Args) -> Report {
        Report {
            workload: args.workload.name(),
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            end_to_end: Vec::new(),
            layers: Vec::new(),
            samples: Vec::new(),
            exact: Vec::new(),
            episodes: 0,
        }
    }

    /// Records a failed correctness gate.
    pub fn error(&mut self, message: String) {
        eprintln!("perfbench: {message}");
        self.errors.push(message);
    }

    pub fn end_to_end(&mut self, name: &'static str, value: f64) {
        assert!(END_TO_END.iter().any(|(n, _)| *n == name), "{name}");
        self.end_to_end.push((name, value));
    }

    pub fn end_to_end_value(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, value)| value)
    }

    /// Replaces this process's `peak_rss_mb` with the median of it and the
    /// peaks the probe processes read (see `PEAK_PROBES` in `main.rs`).
    pub fn pool_peak_rss(&mut self, probes: &[f64]) {
        let Some(entry) = self
            .end_to_end
            .iter_mut()
            .find(|(n, _)| *n == "peak_rss_mb")
        else {
            return;
        };
        let mut peaks = probes.to_vec();
        peaks.push(entry.1);
        entry.1 = median(&peaks);
        self.samples.push(("peak_rss", peaks.len()));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.push((name, value));
    }

    pub fn samples(&mut self, name: &'static str, count: usize) {
        self.samples.push((name, count));
    }

    pub fn episodes(&mut self, count: usize) {
        self.episodes = count;
    }

    /// Adds a value of the determinism guard. Within a run the workload
    /// checks it against every episode; across runs
    /// [`check_determinism`](Report::check_determinism) does.
    pub fn exact(&mut self, name: &'static str, value: String) {
        self.exact.push((name, value));
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// Compares this run's exact values with those an earlier run of the
    /// same binary recorded at this workload and seed, or records them
    /// when there is none. The binary's fingerprint is part of the file
    /// name, so records of different builds never replace each other.
    pub fn check_determinism(&mut self) {
        let path = work_dir().join(format!(
            "exact-{}-seed{}-{}.txt",
            self.workload,
            self.seed,
            exe_fingerprint()
        ));
        let mut text = String::new();
        for (name, value) in &self.exact {
            let _ = writeln!(text, "{name} {value}");
        }
        match std::fs::read_to_string(&path) {
            Ok(previous) => {
                for (old, new) in previous.lines().zip(text.lines()) {
                    if old != new {
                        self.error(format!(
                            "determinism: `{new}` differs from an earlier run at this seed (`{old}`)"
                        ));
                    }
                }
                if previous.lines().count() != text.lines().count() {
                    self.error(format!(
                        "determinism: {} records other values than this run",
                        path.display()
                    ));
                }
            }
            Err(_) => {
                if let Err(e) = std::fs::write(&path, text) {
                    self.error(format!("cannot write {}: {e}", path.display()));
                }
            }
        }
    }

    /// Writes the span dump and the per-layer self-time table.
    pub fn write_trace(&mut self, tracer: &Tracer) {
        let stem = format!("trace-{}-seed{}", self.workload, self.seed);
        let mut table = format!(
            "{:<32} {:>8} {:>12} {:>12} {:>12}\n",
            "span", "count", "total_ms", "self_ms", "self_mean_us"
        );
        for row in tracer.self_times() {
            let _ = writeln!(
                table,
                "{:<32} {:>8} {:>12.3} {:>12.3} {:>12.2}",
                row.name,
                row.count,
                row.total_ns as f64 / 1e6,
                row.self_ns as f64 / 1e6,
                row.self_ns as f64 / 1e3 / row.count.max(1) as f64
            );
        }
        print!("{table}");
        for (file, body) in [
            (format!("{stem}.json"), tracer.dump_json()),
            (format!("{stem}.txt"), table),
        ] {
            let path = work_dir().join(file);
            if let Err(e) = std::fs::write(&path, body) {
                self.error(format!("cannot write {}: {e}", path.display()));
            }
        }
    }

    /// Prints the provenance, every metric, and the JSON result line.
    pub fn print(&mut self) {
        let (table, values) = if self.trace {
            (PER_LAYER, &self.layers)
        } else {
            (END_TO_END, &self.end_to_end)
        };
        let mut metrics = Vec::new();
        let mut missing = Vec::new();
        for (name, unit) in table {
            match values.iter().find(|(n, _)| n == name) {
                Some(&(_, value)) if value.is_finite() => metrics.push((*name, value, *unit)),
                Some(&(_, value)) => missing.push(format!("{name} is not finite ({value})")),
                // Per-layer: a bypassed layer did no work.
                None if self.trace => metrics.push((*name, 0.0, *unit)),
                None => missing.push(format!("{name} was not measured")),
            }
        }
        for message in missing {
            self.error(message);
        }
        // `nproc` is the host's CPU count; `cpus` is how many of them this
        // process may run on.
        let nproc = std::fs::read_to_string("/proc/cpuinfo").map_or(0, |info| {
            info.lines().filter(|l| l.starts_with("processor")).count()
        });
        let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
        println!(
            "# perfbench workload={} seed={} seconds={} trace={} episodes={} nproc={nproc} cpus={cpus} git_rev={}",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace),
            self.episodes,
            git_rev()
        );
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(name, n)| format!("{name}={n}"))
            .collect();
        println!("# samples {}", samples.join(" "));
        let exact: Vec<String> = self.exact.iter().map(|(n, v)| format!("{n}={v}")).collect();
        println!("# exact {}", exact.join(" "));
        for (name, value, unit) in &metrics {
            println!("# {name} = {value} {unit}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Element-wise minimum of equally long vectors of times: each request's
/// fastest time over the episodes that repeated it. On a shared host the
/// noise only ever adds time, so the fastest repeat is the steadiest
/// reading of the program.
pub fn fastest(episodes: impl IntoIterator<Item = Vec<f64>>) -> Vec<f64> {
    episodes
        .into_iter()
        .reduce(|mut best, times| {
            for (b, t) in best.iter_mut().zip(times) {
                *b = b.min(t);
            }
            best
        })
        .unwrap_or_default()
}

/// Smallest of `values` (NaN when empty).
pub fn minimum(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// Nearest-rank percentile: the value at 1-based rank `ceil(p/100 · n)`.
pub fn percentile(values: &[f64], p: usize) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Bytes this process has caused to be written to storage so far
/// (`write_bytes` of `/proc/self/io`; 0 where the kernel does not
/// account it).
pub fn storage_write_bytes() -> u64 {
    let io = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    io.lines()
        .find_map(|line| line.strip_prefix("write_bytes:"))
        .and_then(|rest| rest.trim().parse().ok())
        .unwrap_or(0)
}

/// FNV-1a of the running executable, so recorded exact values are only
/// compared between runs of the same build.
fn exe_fingerprint() -> String {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{hash:016x}-{}", bytes.len())
}

/// The checked-out commit (`git rev-parse HEAD`); `unknown` when the
/// checkout has no `.git` or git is not installed.
fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    if !git.exists() {
        return "unknown".to_string();
    }
    Command::new("git")
        .arg("--git-dir")
        .arg(&git)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |rev| rev.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};

    /// `(name, unit)` of each metric object in one section of
    /// BENCHMARK.json, in order.
    fn section(text: &str, key: &str) -> Vec<(String, String)> {
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|object| (field(object, "name"), field(object, "unit")))
            .collect()
    }

    fn field(object: &str, key: &str) -> String {
        let rest = &object[object.find(&format!("\"{key}\":")).expect("key present")..];
        let rest = &rest[key.len() + 3..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("string closes");
        rest[open..close].to_string()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let expected: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(section(&text, key), expected, "{key}");
        }
    }
}
