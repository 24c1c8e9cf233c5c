//! The repository's benchmark: three workloads driven through the
//! public functions of the workspace crates, with every output checked.
//!
//! * `compile-cold` — distinct programs posted to `lc-serve`'s
//!   `/compile`, so every request runs the compiler.
//! * `serve-mixed` — a skewed mix of `/compile` and `/analyze` over a
//!   pool larger than the server's cache.
//! * `exec-nest` — compiled nest shapes run by `coalesced_for` on real
//!   threads.
//!
//! See `README.md` beside this crate for the metrics and how to run it.

pub mod check;
pub mod exec;
pub mod gen;
pub mod layers;
pub mod replay;
pub mod serve;
pub mod stats;
pub mod trace;

use stats::Metric;

/// The workload names. `BENCHMARK.json` lists `compile-cold` and
/// `exec-nest`; `serve-mixed` runs the same way but is not listed.
pub const WORKLOADS: [&str; 3] = ["compile-cold", "serve-mixed", "exec-nest"];

/// Client threads, server workers and runtime threads alike.
pub const THREADS: usize = 2;

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// The traced window runs for this share of `--seconds`, after the
/// untraced one.
pub const TRACED_SHARE: f64 = 0.5;

/// The latency a failed, refused or wrong operation is recorded with:
/// it misses every latency limit.
pub const FAILED_MS: f64 = 60_000.0;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Also run a traced window and report per-layer metrics.
    pub trace: bool,
}

impl Args {
    /// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
                "--seconds" => {
                    args.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                        .ok_or_else(|| bad("expected seconds in (0, 600]"))?
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}, got `{}`",
                WORKLOADS.join(", "),
                args.workload
            ));
        }
        Ok(args)
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted, over every window of the run.
    pub attempted: u64,
    /// Operations failed, refused or answered wrongly.
    pub failed: u64,
    /// End-to-end metrics of the untraced window.
    pub e2e: Vec<Metric>,
    /// Metrics reported but not gated in `BENCHMARK.json`: the median
    /// latency, and the metrics of one request class of this workload.
    pub classes: Vec<Metric>,
    /// End-to-end metrics of the traced window.
    pub traced_e2e: Vec<Metric>,
    /// Per-layer metrics of the traced window.
    pub layers: Vec<Metric>,
    /// The traced window's spans.
    pub span_log: Option<Vec<trace::Span>>,
    /// Wrong outputs and counter disagreements.
    pub problems: Vec<String>,
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total and stolen CPU time of the host so far, in clock ticks, from the
/// first line of `/proc/stat`.
pub fn host_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((fields.iter().sum(), *fields.get(7)?))
}
