//! One command for the end-to-end and per-layer benchmark of the HASTE
//! solver (Alg. 2) and the sharded router (Alg. 3 behind the wire
//! protocol). README.md in this directory documents the workloads, the
//! metrics and how to run them.
//!
//! ```text
//! perfbench --workload offline-paper|online-stream|online-durable
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The process
//! exits non-zero when any correctness gate fails.

mod offline;
mod online;
mod report;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use report::Report;

const USAGE: &str = "usage: perfbench --workload offline-paper|online-stream|online-durable \
                     --seed N --seconds S --trace 0|1";

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OfflinePaper,
    OnlineStream,
    OnlineDurable,
}

impl Workload {
    fn parse(text: &str) -> Option<Workload> {
        match text {
            "offline-paper" => Some(Workload::OfflinePaper),
            "online-stream" => Some(Workload::OnlineStream),
            "online-durable" => Some(Workload::OnlineDurable),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflinePaper => "offline-paper",
            Workload::OnlineStream => "online-stream",
            Workload::OnlineDurable => "online-durable",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Run only up to the memory peak's reading and print the peak: the
    /// mode of the processes [`peak_probes`] starts.
    pub peak_probe: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    let mut peak_probe = false;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("bad seconds `{value}` (1..=600)"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}` (0 or 1)")),
                }
            }
            "--peak-probe" => {
                peak_probe = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad peak-probe `{value}` (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        peak_probe,
    })
}

/// Scratch space for WAL directories, span dumps and determinism
/// fingerprints: `perfbench/work/` of the checkout the benchmark was
/// built in.
pub fn work_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work")
}

/// Fresh processes started per run to read the memory peak. The peak of a
/// multi-threaded process depends on which allocator arenas and cached
/// thread stacks its threads happen to get: over repeated runs of one
/// seed, `online-durable` peaked at 33.7–36.8 MB, with one run in four or
/// so at 30–31 MB. So `peak_rss_mb` is the median of the run's own peak
/// and those of these processes.
const PEAK_PROBES: usize = 4;

/// Runs [`PEAK_PROBES`] processes of this binary, one after the other, each
/// up to the point where the workload reads its memory peak, and returns
/// their peaks in MiB.
fn peak_probes(args: &Args, report: &mut Report) -> Vec<f64> {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            report.error(format!("cannot locate the benchmark binary: {e}"));
            return Vec::new();
        }
    };
    let seed = args.seed.to_string();
    let mut peaks = Vec::with_capacity(PEAK_PROBES);
    for _ in 0..PEAK_PROBES {
        let output = Command::new(&exe)
            .args(["--workload", args.workload.name(), "--seed", &seed])
            .args(["--seconds", "1", "--trace", "0", "--peak-probe", "1"])
            .stderr(Stdio::inherit())
            .output();
        let peak = match output {
            Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout)
                .lines()
                .last()
                .and_then(|line| line.strip_prefix("peak_rss_mb "))
                .and_then(|value| value.parse::<f64>().ok())
                .ok_or_else(|| "a peak probe printed no peak".to_string()),
            Ok(out) => Err(format!("a peak probe failed: {}", out.status)),
            Err(e) => Err(format!("cannot start a peak probe: {e}")),
        };
        match peak {
            Ok(peak) => peaks.push(peak),
            Err(message) => report.error(message),
        }
    }
    peaks
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(work_dir()) {
        eprintln!("perfbench: cannot create {}: {e}", work_dir().display());
        return ExitCode::from(2);
    }
    let tracer = trace::Tracer::new();
    let mut report = Report::new(&args);
    let probes = if args.trace || args.peak_probe {
        Vec::new()
    } else {
        peak_probes(&args, &mut report)
    };
    match args.workload {
        Workload::OfflinePaper => offline::run(&args, &tracer, &mut report),
        Workload::OnlineStream => online::run(&args, false, &tracer, &mut report),
        Workload::OnlineDurable => online::run(&args, true, &tracer, &mut report),
    }
    if args.peak_probe {
        return match report.end_to_end_value("peak_rss_mb") {
            Some(peak) if report.correct() => {
                println!("peak_rss_mb {peak}");
                ExitCode::SUCCESS
            }
            _ => ExitCode::from(1),
        };
    }
    report.pool_peak_rss(&probes);
    report.check_determinism();
    if args.trace {
        report.write_trace(&tracer);
    }
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
