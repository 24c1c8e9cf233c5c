//! The serving workloads, `compile-cold` and `serve-mixed`: closed-loop
//! clients posting to an in-process `lc_service::Server`.

use std::borrow::Cow;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use lc_driver::Driver;
use lc_service::client;
use lc_service::metrics::scrape_counter;
use lc_service::{Server, ServiceConfig};

use crate::check::{check_analyze, check_compiled, essential, returned_source};
use crate::gen::{self, fnv1a, Kind, Mixed, Request};
use crate::layers::{self, LayerData};
use crate::replay::{replay, Replay};
use crate::stats::{median, Metric};
use crate::trace::{Layer, Recorder, Span};
use crate::{peak_rss_mb, Args, Outcome, FAILED_MS, SETUP_REPS, THREADS, TRACED_SHARE};

/// Client timeout.
const TIMEOUT: Duration = Duration::from_secs(60);

/// Closed-loop client threads of the timed windows.
const CLIENTS: usize = 2;

/// Untimed warm-up compiles in `compile-cold` set-up.
const COLD_WARMUP: u64 = 32;

/// `compile-cold` requests generated during set-up; a faster host that
/// gets further generates the rest as it goes.
const COLD_PREGENERATED: u64 = 8192;

/// The generated inputs of one serving workload.
enum Inputs {
    Cold { seed: u64, sources: Vec<String> },
    Mixed(Mixed),
}

impl Inputs {
    fn request(&self, r: u64) -> Request {
        match self {
            Inputs::Cold { .. } => Request {
                kind: Kind::Compile,
                item: r as usize,
            },
            Inputs::Mixed(m) => m.request(r),
        }
    }

    fn source(&self, item: usize) -> Cow<'_, str> {
        match self {
            Inputs::Cold { seed, sources } => match sources.get(item) {
                Some(src) => Cow::Borrowed(src),
                None => Cow::Owned(gen::cold_source(*seed, item as u64)),
            },
            Inputs::Mixed(m) => Cow::Borrowed(&m.pool[item]),
        }
    }

    fn cold(&self) -> bool {
        matches!(self, Inputs::Cold { .. })
    }
}

/// Endpoint, program, and FNV-1a of what was kept of a 200 body (see
/// [`essential`]).
type BodyKey = (Kind, usize, u64);

/// Every 200 answer with one [`BodyKey`], as the clients saw it. Kept
/// per body rather than per request, so the benchmark's own memory
/// hardly grows with the number of requests a window completes.
#[derive(Default)]
struct Answers {
    /// What was kept of the body.
    kept: Vec<u8>,
    /// Latency of each `X-Cache: hit` answer, in µs.
    hit_us: Vec<f32>,
    /// Latency of every other answer (misses and `/analyze`), in µs.
    other_us: Vec<f32>,
}

impl Answers {
    fn absorb(&mut self, other: Answers) {
        if self.kept.is_empty() {
            self.kept = other.kept;
        }
        self.hit_us.extend(other.hit_us);
        self.other_us.extend(other.other_us);
    }
}

/// A request that got no 200 answer: endpoint, program, and status (0
/// for a transport error).
type Refused = (Kind, usize, u16);

/// `/metrics` counters the benchmark checks and reports.
const COUNTERS: [&str; 6] = [
    "lc_cache_hits_total",
    "lc_cache_evictions_total",
    "lc_jobs_rejected_total",
    "lc_jobs_expired_total",
    "lc_analyze_requests_total",
    "lc_compile_requests_total",
];

fn scrape(addr: SocketAddr) -> Result<[u64; 6], String> {
    let resp = client::get(addr, "/metrics", TIMEOUT).map_err(|e| format!("/metrics: {e}"))?;
    let text = resp.body_text();
    let mut out = [0; 6];
    for (slot, name) in out.iter_mut().zip(COUNTERS) {
        *slot = scrape_counter(&text, name).ok_or(format!("/metrics lacks {name}"))?;
    }
    Ok(out)
}

/// One timed window of closed-loop traffic.
struct Window {
    /// Requests sent.
    sent: u64,
    answers: HashMap<BodyKey, Answers>,
    refused: Vec<Refused>,
    elapsed_s: f64,
    next_r: u64,
    /// `/metrics` counter deltas over the window, in [`COUNTERS`] order.
    counters: [u64; 6],
    spans: Vec<Span>,
    replays: Vec<Replay>,
    /// Client latency minus in-process parse + compile time, per miss.
    overhead_ms: Vec<f64>,
    /// Replays whose compiled program `check_equivalent` rejected.
    check_errors: Vec<String>,
}

/// Traced-window state: the `Driver` the replay compiles with, and the
/// span epoch.
struct Tracing<'a> {
    driver: &'a Driver,
    epoch: Instant,
}

#[derive(Default)]
struct ClientOut {
    sent: u64,
    answers: HashMap<BodyKey, Answers>,
    refused: Vec<Refused>,
    spans: Vec<Span>,
    replays: Vec<Replay>,
    overhead_ms: Vec<f64>,
    check_errors: Vec<String>,
}

fn run_window(
    addr: SocketAddr,
    inputs: &Inputs,
    start_r: u64,
    seconds: f64,
    tracing: Option<&Tracing>,
) -> Result<Window, String> {
    let before = scrape(addr)?;
    let next = AtomicU64::new(start_r);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let outs: Vec<ClientOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let next = &next;
                s.spawn(move || client_loop(addr, inputs, next, deadline, tracing, t as u64 + 1))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    let after = scrape(addr)?;
    let mut w = Window {
        sent: 0,
        answers: HashMap::new(),
        refused: Vec::new(),
        elapsed_s,
        next_r: next.load(Ordering::SeqCst),
        counters: std::array::from_fn(|k| after[k] - before[k]),
        spans: Vec::new(),
        replays: Vec::new(),
        overhead_ms: Vec::new(),
        check_errors: Vec::new(),
    };
    for o in outs {
        w.sent += o.sent;
        for (key, a) in o.answers {
            w.answers.entry(key).or_default().absorb(a);
        }
        w.refused.extend(o.refused);
        w.spans.extend(o.spans);
        w.replays.extend(o.replays);
        w.overhead_ms.extend(o.overhead_ms);
        w.check_errors.extend(o.check_errors);
    }
    Ok(w)
}

fn client_loop(
    addr: SocketAddr,
    inputs: &Inputs,
    next: &AtomicU64,
    deadline: Instant,
    tracing: Option<&Tracing>,
    thread: u64,
) -> ClientOut {
    let mut out = ClientOut::default();
    let mut rec = tracing.map(|t| Recorder::new(t.epoch, thread));
    while Instant::now() < deadline {
        let r = next.fetch_add(1, Ordering::SeqCst);
        let req = inputs.request(r);
        let src = inputs.source(req.item);
        let root = rec
            .as_mut()
            .map(|rec| rec.open(r, None, "op", Layer::Bench));
        let post = rec
            .as_mut()
            .map(|rec| rec.open(r, root, "service.post", Layer::Service));
        let t0 = Instant::now();
        let res = client::post(addr, req.kind.path(), src.as_bytes(), TIMEOUT);
        let latency = t0.elapsed();
        if let (Some(rec), Some(post)) = (rec.as_mut(), post) {
            rec.close(post);
        }
        let latency_us = latency.as_secs_f64() * 1e6;
        out.sent += 1;
        // `Some(hit)` for a 200 answer.
        let answered = match res {
            Ok(resp) if resp.status == 200 => {
                let hit = resp.header("x-cache") == Some("hit");
                let kept = essential(req.kind == Kind::Compile, resp.body);
                let a = out
                    .answers
                    .entry((req.kind, req.item, fnv1a(&kept)))
                    .or_default();
                if a.kept.is_empty() {
                    a.kept = kept;
                }
                let list = if hit { &mut a.hit_us } else { &mut a.other_us };
                list.push(latency_us as f32);
                Some(hit)
            }
            Ok(resp) => {
                out.refused.push((req.kind, req.item, resp.status));
                None
            }
            Err(_) => {
                out.refused.push((req.kind, req.item, 0));
                None
            }
        };
        if let (Some(rec), Some(root), Some(t)) = (rec.as_mut(), root, tracing) {
            if let Some(hit) = answered {
                let rp = replay(rec, r, root, req.kind, &src, t.driver, false);
                if let Some(e) = &rp.check_error {
                    out.check_errors
                        .push(format!("request {r}: check_equivalent: {e}"));
                }
                if req.kind == Kind::Compile && !hit {
                    let inproc = (rp.parse_ns + rp.compile_ns) as f64 / 1e6;
                    out.overhead_ms.push(latency_us / 1e3 - inproc);
                }
                out.replays.push(rp);
            }
            rec.close(root);
        }
    }
    if let Some(rec) = rec {
        out.spans = rec.spans;
    }
    out
}

/// Post `sources` from [`THREADS`] clients; every answer must be 200.
fn post_all(addr: SocketAddr, sources: &[&str]) -> Result<(), String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                s.spawn(move || {
                    for src in sources.iter().skip(t).step_by(THREADS) {
                        let resp = client::post(addr, "/compile", src.as_bytes(), TIMEOUT)
                            .map_err(|e| format!("warm-up: {e}"))?;
                        if resp.status != 200 {
                            return Err(format!("warm-up answered {}", resp.status));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("warm-up thread panicked"))
    })
}

/// Build the inputs, start the server and warm it: the set-up one run
/// pays before timing starts.
fn setup(cold: bool, seed: u64) -> Result<(Inputs, Server), String> {
    let config = ServiceConfig {
        workers: THREADS,
        ..ServiceConfig::default()
    };
    let inputs = if cold {
        Inputs::Cold {
            seed,
            sources: (0..COLD_PREGENERATED)
                .map(|r| gen::cold_source(seed, r))
                .collect(),
        }
    } else {
        Inputs::Mixed(Mixed::new(seed))
    };
    let server = Server::start(config, "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let warm: Vec<String> = match &inputs {
        Inputs::Cold { seed, .. } => (0..COLD_WARMUP)
            .map(|k| gen::cold_warmup_source(*seed, k))
            .collect(),
        // Coldest first, so the hottest programs end up cached.
        Inputs::Mixed(m) => m.by_rank.iter().rev().map(|&i| m.pool[i].clone()).collect(),
    };
    let refs: Vec<&str> = warm.iter().map(String::as_str).collect();
    post_all(server.addr(), &refs)?;
    Ok((inputs, server))
}

/// Verify every stored body. Returns the failing keys with reasons.
fn verify(inputs: &Inputs, bodies: &HashMap<BodyKey, &[u8]>) -> HashMap<BodyKey, String> {
    let mut bad = HashMap::new();
    // Check each distinct (program, returned source) once.
    let mut compiled: HashMap<(usize, String), Vec<BodyKey>> = HashMap::new();
    let mut analyzed: Vec<BodyKey> = Vec::new();
    for (key, body) in bodies {
        match key.0 {
            Kind::Compile => match returned_source(body) {
                Ok(src) => compiled.entry((key.1, src)).or_default().push(*key),
                Err(e) => {
                    bad.insert(*key, e);
                }
            },
            Kind::Analyze => analyzed.push(*key),
        }
    }
    let compiled: Vec<_> = compiled.into_iter().collect();
    let failures: Vec<(BodyKey, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (compiled, analyzed) = (&compiled, &analyzed);
                s.spawn(move || {
                    let mut fails = Vec::new();
                    for ((item, returned), keys) in compiled.iter().skip(t).step_by(THREADS) {
                        if let Err(e) = check_compiled(&inputs.source(*item), returned) {
                            fails.extend(keys.iter().map(|k| (*k, e.clone())));
                        }
                    }
                    for key in analyzed.iter().skip(t).step_by(THREADS) {
                        if let Err(e) = check_analyze(&inputs.source(key.1), bodies[key]) {
                            fails.push((*key, e));
                        }
                    }
                    fails
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verifier panicked"))
            .collect()
    });
    bad.extend(failures);
    bad
}

/// A window's end-to-end results.
struct Scored {
    attempted: u64,
    failed: u64,
    e2e: Vec<Metric>,
    classes: Vec<Metric>,
    problems: Vec<String>,
}

fn score(inputs: &Inputs, w: &Window, bad: &HashMap<BodyKey, String>) -> Scored {
    let mut problems = Vec::new();
    let (mut all, mut hits, mut misses, mut analyze) = (vec![], vec![], vec![], vec![]);
    let (mut ok, mut rejected, mut hit_count, mut analyze_sent) = (0u64, 0u64, 0u64, 0u64);
    let ms = |us: &f32, good: bool| if good { *us as f64 / 1e3 } else { FAILED_MS };
    for (key @ (kind, item, _), a) in &w.answers {
        let mut good = !bad.contains_key(key);
        if let Some(why) = bad.get(key) {
            if problems.len() < 5 {
                problems.push(format!("program {item} ({}): {why}", kind.path()));
            }
        }
        match kind {
            Kind::Analyze => {
                analyze_sent += a.other_us.len() as u64;
                analyze.extend(a.other_us.iter().map(|us| ms(us, good)));
            }
            Kind::Compile => {
                hit_count += a.hit_us.len() as u64;
                if inputs.cold() && !a.hit_us.is_empty() {
                    good = false;
                    problems.push(format!("program {item} hit the cache in compile-cold"));
                }
                hits.extend(a.hit_us.iter().map(|us| ms(us, good)));
                misses.extend(a.other_us.iter().map(|us| ms(us, good)));
            }
        }
        if good {
            ok += (a.hit_us.len() + a.other_us.len()) as u64;
        }
    }
    for &(kind, _, status) in &w.refused {
        rejected += (status == 429) as u64;
        match kind {
            Kind::Analyze => {
                analyze_sent += 1;
                analyze.push(FAILED_MS);
            }
            Kind::Compile => misses.push(FAILED_MS),
        }
    }
    all.extend_from_slice(&hits);
    all.extend_from_slice(&misses);
    all.extend_from_slice(&analyze);
    let [d_hits, _, d_rejected, _, d_analyze, _] = w.counters;
    for (what, seen, counted) in [
        (
            "X-Cache: hit answers vs lc_cache_hits_total",
            hit_count,
            d_hits,
        ),
        (
            "429 answers vs lc_jobs_rejected_total",
            rejected,
            d_rejected,
        ),
        (
            "/analyze requests vs lc_analyze_requests_total",
            analyze_sent,
            d_analyze,
        ),
    ] {
        if seen != counted {
            problems.push(format!("counter disagreement: {what}: {seen} != {counted}"));
        }
    }
    let attempted = w.sent;
    let e2e = vec![
        Metric::counted(
            "throughput_rps",
            "req/s",
            ok as f64 / w.elapsed_s,
            ok as usize,
        ),
        Metric::percentile("latency_p99_ms", "ms", &all, 99.0),
    ];
    let mut classes = vec![Metric::percentile("latency_p50_ms", "ms", &all, 50.0)];
    if !inputs.cold() {
        classes.push(Metric::percentile("hit_p50_ms", "ms", &hits, 50.0));
    }
    classes.push(Metric::percentile("miss_p50_ms", "ms", &misses, 50.0));
    if !inputs.cold() {
        classes.push(Metric::percentile("analyze_p50_ms", "ms", &analyze, 50.0));
    }
    classes.push(Metric::counted(
        "failed_frac",
        "ratio",
        (attempted - ok) as f64 / attempted.max(1) as f64,
        attempted as usize,
    ));
    Scored {
        attempted,
        failed: attempted - ok,
        e2e,
        classes,
        problems,
    }
}

/// Run `compile-cold` (`cold`) or `serve-mixed`.
pub fn run(args: &Args, cold: bool) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let (inputs, server) = setup(cold, args.seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if rep + 1 == SETUP_REPS {
            kept = Some((inputs, server));
        } else {
            server.shutdown();
        }
    }
    let (inputs, server) = kept.expect("at least one set-up");
    let addr = server.addr();
    let timed = run_window(addr, &inputs, 0, args.seconds, None)?;
    let rss = peak_rss_mb();
    let driver = Driver::default();
    let traced = if args.trace {
        let tracing = Tracing {
            driver: &driver,
            epoch: Instant::now(),
        };
        let seconds = args.seconds * TRACED_SHARE;
        Some(run_window(
            addr,
            &inputs,
            timed.next_r,
            seconds,
            Some(&tracing),
        )?)
    } else {
        None
    };
    server.shutdown();

    let bodies: HashMap<BodyKey, &[u8]> = (traced.iter().chain([&timed]))
        .flat_map(|w| w.answers.iter().map(|(k, a)| (*k, a.kept.as_slice())))
        .collect();
    let bad = verify(&inputs, &bodies);

    let mut out = Outcome::default();
    let s = score(&inputs, &timed, &bad);
    out.attempted += s.attempted;
    out.failed += s.failed;
    out.problems.extend(s.problems);
    out.e2e.push(Metric::counted(
        "setup_s",
        "s",
        median(&setup_s),
        setup_s.len(),
    ));
    out.e2e.extend(s.e2e);
    out.e2e.push(Metric::value("peak_rss_mb", "MB", rss));
    out.classes = s.classes;

    if let Some(w) = traced {
        let t = score(&inputs, &w, &bad);
        out.attempted += t.attempted;
        out.failed += t.failed;
        out.problems.extend(t.problems);
        out.problems.extend(w.check_errors.iter().take(5).cloned());
        out.traced_e2e = t.e2e;
        let mut scratch = Recorder::new(Instant::now(), 0);
        let counted = (0..layers::COUNT_OPS)
            .map(|r| {
                let req = inputs.request(r);
                let root = scratch.open(r, None, "op", Layer::Bench);
                replay(
                    &mut scratch,
                    r,
                    root,
                    req.kind,
                    &inputs.source(req.item),
                    &driver,
                    true,
                )
            })
            .collect::<Vec<_>>();
        out.problems.extend(
            (counted.iter().filter_map(|rp| rp.check_error.as_ref()))
                .take(5)
                .map(|e| format!("check_equivalent: {e}")),
        );
        let [hits, evictions, rejected, expired, _, compiles] = timed.counters;
        let data = LayerData {
            ops: w.sent as usize,
            spans: w.spans,
            replays: w.replays,
            counted,
            service: Some(layers::ServiceCounters {
                hit_ratio: hits as f64 / compiles.max(1) as f64,
                evictions,
                rejected,
                expired,
                overhead_p50_ms: median(&w.overhead_ms),
            }),
            ..LayerData::default()
        };
        out.layers = layers::metrics(&data);
        out.span_log = Some(data.spans);
    }
    Ok(out)
}
