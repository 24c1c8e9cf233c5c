//! The `exec-nest` workload: compiled nest shapes run as one coalesced
//! parallel loop on real threads.

use std::time::Instant;

use lc_driver::Driver;
use lc_runtime::nest::{coalesced_for, inner_sweep_for, outer_for};
use lc_runtime::parallel::RuntimeOptions;
use lc_runtime::stats::RunStats;
use lc_sched::policy::Dispenser;
use lc_workloads::rt::{gen_a, gen_b, imbalanced_cell, matmul_cell, matmul_serial, AtomicMatrix};

use crate::gen::{exec_nests, exec_op, Body, NestSpec, POLICIES};
use crate::layers::{self, LayerData, RuntimeData};
use crate::stats::{median, Metric};
use crate::trace::{Layer, Recorder};
use crate::{peak_rss_mb, Args, Outcome, FAILED_MS, SETUP_REPS, THREADS, TRACED_SHARE};

/// One nest ready to run: its compiled shape, inputs, expected output
/// and output buffer.
struct Nest {
    spec: NestSpec,
    dims: Vec<u64>,
    a: Vec<i64>,
    b: Vec<i64>,
    want: Vec<i64>,
    out: AtomicMatrix,
}

/// The three nest executors of `lc_runtime::nest`.
#[derive(Clone, Copy)]
enum Mode {
    Coalesced,
    Outer,
    InnerSweep,
}

impl Nest {
    fn run(&self, mode: Mode, opts: &RuntimeOptions) -> RunStats {
        match self.spec.body {
            Body::Matmul { k } => {
                let body = |iv: &[i64]| matmul_cell(&self.a, &self.b, &self.out, k, iv);
                mode.run(&self.dims, opts, body)
            }
            Body::Imbalanced { weight } => {
                let body = |iv: &[i64]| {
                    let v = imbalanced_cell(weight, iv);
                    self.out.store(iv[0] as usize - 1, iv[1] as usize - 1, v);
                };
                mode.run(&self.dims, opts, body)
            }
        }
    }

    /// Compare the output with the serial reference, then clear it for
    /// the next run.
    fn check_and_reset(&self) -> bool {
        let ok = self.out.snapshot() == self.want;
        for i in 0..self.out.n {
            for j in 0..self.out.m {
                self.out.store(i, j, 0);
            }
        }
        ok
    }
}

impl Mode {
    fn run<F: Fn(&[i64]) + Sync>(self, dims: &[u64], opts: &RuntimeOptions, body: F) -> RunStats {
        match self {
            Mode::Coalesced => coalesced_for(dims, opts, body),
            Mode::Outer => outer_for(dims, opts, body),
            Mode::InnerSweep => inner_sweep_for(dims, opts, body),
        }
    }
}

/// Compile every nest of the set and prepare its inputs and reference.
fn setup(seed: u64) -> Result<Vec<Nest>, String> {
    let driver = Driver::default();
    exec_nests(seed)
        .into_iter()
        .map(|spec| {
            let out = driver
                .compile(&spec.source)
                .map_err(|e| format!("nest does not compile: {e}"))?;
            let dims = out
                .coalesced
                .first()
                .map(|c| c.dims.clone())
                .ok_or("nest was not coalesced")?;
            if dims != [spec.n as u64, spec.m as u64] {
                return Err(format!("coalesced dims {dims:?} differ from the nest"));
            }
            let (n, m) = (spec.n, spec.m);
            let (a, b, want) = match spec.body {
                Body::Matmul { k } => {
                    let (a, b) = (gen_a(n, k), gen_b(k, m));
                    let want = matmul_serial(&a, &b, n, m, k);
                    (a, b, want)
                }
                Body::Imbalanced { weight } => {
                    let mut want = Vec::with_capacity(n * m);
                    for i in 1..=n as i64 {
                        for j in 1..=m as i64 {
                            want.push(imbalanced_cell(weight, &[i, j]));
                        }
                    }
                    (vec![], vec![], want)
                }
            };
            Ok(Nest {
                out: AtomicMatrix::zeroed(n, m),
                spec,
                dims,
                a,
                b,
                want,
            })
        })
        .collect()
}

/// One window of nest runs.
#[derive(Default)]
struct Window {
    /// Wall time per run, in ms; failed runs are excluded.
    ok_ms: Vec<f64>,
    /// Wall time of the runs whose output did not match, in ms.
    bad_ms: Vec<f64>,
    next_r: u64,
    runtime: RuntimeData,
    spans: Vec<crate::trace::Span>,
    /// Reference runs (traced only) that produced a wrong result.
    bad_reference: Vec<String>,
}

fn run_window(nests: &[Nest], seed: u64, start_r: u64, seconds: f64, traced: bool) -> Window {
    let mut w = Window::default();
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, 1);
    let deadline = epoch + std::time::Duration::from_secs_f64(seconds);
    let mut r = start_r;
    while Instant::now() < deadline {
        let (ni, pi) = exec_op(seed, r);
        let nest = &nests[ni];
        let opts = RuntimeOptions {
            threads: THREADS,
            policy: POLICIES[pi],
        };
        let root = traced.then(|| rec.open(r, None, "op", Layer::Bench));
        let span = root.map(|p| rec.open(r, Some(p), "runtime.coalesced_for", Layer::Runtime));
        let t0 = Instant::now();
        let stats = nest.run(Mode::Coalesced, &opts);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if let Some(span) = span {
            rec.close(span);
        }
        if nest.check_and_reset() {
            w.ok_ms.push(ms);
        } else {
            w.bad_ms.push(ms);
        }
        if let Some(root) = root {
            let bad = trace_op(&mut w.runtime, &mut rec, root, r, nest, &opts, &stats, ms);
            w.bad_reference.extend(bad);
            rec.close(root);
        }
        r += 1;
    }
    w.next_r = r;
    w.spans = rec.spans;
    w
}

/// The traced part of one operation: runtime statistics of the coalesced
/// run, the dispatcher's chunk plan, and the two nested reference
/// executions of the same nest. Returns the reference executors that
/// produced a wrong result.
#[allow(clippy::too_many_arguments)]
fn trace_op(
    rt: &mut RuntimeData,
    rec: &mut Recorder,
    root: crate::trace::Open,
    r: u64,
    nest: &Nest,
    opts: &RuntimeOptions,
    stats: &RunStats,
    ms: f64,
) -> Vec<String> {
    rt.coalesced_ms.push(ms);
    let busy: Vec<u64> = stats
        .workers
        .iter()
        .map(|w| w.busy.as_nanos() as u64)
        .collect();
    let elapsed = stats.elapsed.as_nanos() as u64;
    rt.busy_ns += busy.iter().sum::<u64>();
    rt.capacity_ns += elapsed * stats.threads as u64;
    let max_busy = busy.iter().copied().max().unwrap_or(0);
    rt.fork_join_us
        .push(elapsed.saturating_sub(max_busy) as f64 / 1e3);
    rt.imbalance.push(stats.imbalance());

    let span = rec.open(r, Some(root), "sched.plan", Layer::Sched);
    let total = nest.dims.iter().product();
    std::hint::black_box(Dispenser::with_kind(total, THREADS, opts.policy).drain());
    rec.close(span);

    let mut bad = Vec::new();
    for (mode, name, out) in [
        (Mode::Outer, "runtime.outer_for", &mut rt.outer_ms),
        (
            Mode::InnerSweep,
            "runtime.inner_sweep_for",
            &mut rt.inner_ms,
        ),
    ] {
        let span = rec.open(r, Some(root), name, Layer::Runtime);
        let t0 = Instant::now();
        nest.run(mode, opts);
        out.push(t0.elapsed().as_secs_f64() * 1e3);
        rec.close(span);
        if !nest.check_and_reset() {
            bad.push(format!("{name} produced a wrong result on operation {r}"));
        }
    }
    bad
}

fn score(w: &Window, out: &mut Outcome) -> Vec<Metric> {
    let attempted = (w.ok_ms.len() + w.bad_ms.len()) as u64;
    out.attempted += attempted;
    out.failed += w.bad_ms.len() as u64;
    if !w.bad_ms.is_empty() {
        out.problems.push(format!(
            "{} nest runs produced a wrong result",
            w.bad_ms.len()
        ));
    }
    // A wrong result misses every latency limit.
    let all: Vec<f64> = w
        .ok_ms
        .iter()
        .copied()
        .chain(w.bad_ms.iter().map(|_| FAILED_MS))
        .collect();
    let busy_s: f64 = w.ok_ms.iter().chain(&w.bad_ms).sum::<f64>() / 1e3;
    vec![
        Metric::counted(
            "throughput_rps",
            "req/s",
            w.ok_ms.len() as f64 / busy_s.max(f64::MIN_POSITIVE),
            w.ok_ms.len(),
        ),
        Metric::percentile("latency_p99_ms", "ms", &all, 99.0),
    ]
}

/// Run `exec-nest`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut nests = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        nests = setup(args.seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut out = Outcome::default();
    let timed = run_window(&nests, args.seed, 0, args.seconds, false);
    let rss = peak_rss_mb();

    out.e2e.push(Metric::counted(
        "setup_s",
        "s",
        median(&setup_s),
        setup_s.len(),
    ));
    let e2e = score(&timed, &mut out);
    out.e2e.extend(e2e);
    out.e2e.push(Metric::value("peak_rss_mb", "MB", rss));
    let all: Vec<f64> = (timed.ok_ms.iter().copied())
        .chain(timed.bad_ms.iter().map(|_| FAILED_MS))
        .collect();
    out.classes = vec![
        Metric::percentile("exec_p50_ms", "ms", &all, 50.0),
        Metric::percentile("exec_p90_ms", "ms", &all, 90.0),
        Metric::counted(
            "failed_frac",
            "ratio",
            timed.bad_ms.len() as f64 / all.len().max(1) as f64,
            all.len(),
        ),
    ];
    if args.trace {
        let w = run_window(
            &nests,
            args.seed,
            timed.next_r,
            args.seconds * TRACED_SHARE,
            true,
        );
        out.traced_e2e = score(&w, &mut out);
        out.problems.extend(w.bad_reference.iter().take(5).cloned());
        let mut runtime = w.runtime;
        // Exact dispatch counts over the first operations of the stream.
        for r in 0..layers::COUNT_OPS {
            let (ni, pi) = exec_op(args.seed, r);
            let opts = RuntimeOptions {
                threads: THREADS,
                policy: POLICIES[pi],
            };
            runtime.dispatches[pi] += nests[ni].run(Mode::Coalesced, &opts).total_chunks();
            if !nests[ni].check_and_reset() {
                out.problems
                    .push(format!("operation {r} produced a wrong result"));
            }
        }
        let data = LayerData {
            ops: w.ok_ms.len() + w.bad_ms.len(),
            spans: w.spans,
            runtime: Some(runtime),
            ..LayerData::default()
        };
        out.layers = layers::metrics(&data);
        out.span_log = Some(data.spans);
    }
    Ok(out)
}
