//! The per-layer metrics of a traced run. Every workload reports the
//! same list; a layer a workload does not exercise reads 0.

use crate::replay::{Replay, PASSES};
use crate::stats::{mean, median, Metric};
use crate::trace::{self_times, Span, LAYERS};

/// Exact counts cover the first this-many requests of the stream,
/// replayed once more after the timed windows, so they repeat exactly
/// for a given seed however many requests a window completed.
pub const COUNT_OPS: u64 = 64;

/// `lc-service` counter deltas over the timed window.
#[derive(Debug, Clone, Default)]
pub struct ServiceCounters {
    /// `lc_cache_hits_total / lc_compile_requests_total`.
    pub hit_ratio: f64,
    /// `lc_cache_evictions_total`.
    pub evictions: u64,
    /// `lc_jobs_rejected_total`.
    pub rejected: u64,
    /// `lc_jobs_expired_total`.
    pub expired: u64,
    /// Median client latency minus in-process parse + compile time of the
    /// same source, over cache misses.
    pub overhead_p50_ms: f64,
}

/// What the traced `exec-nest` window measured on the runtime.
#[derive(Debug, Clone, Default)]
pub struct RuntimeData {
    /// `coalesced_for` wall time per run.
    pub coalesced_ms: Vec<f64>,
    /// `outer_for` wall time per reference run.
    pub outer_ms: Vec<f64>,
    /// `inner_sweep_for` wall time per reference run.
    pub inner_ms: Vec<f64>,
    /// `RunStats::total_chunks` per policy (SS, CSS, GSS, TSS, FAC) over
    /// the counted runs.
    pub dispatches: [u64; 5],
    /// Sum of worker busy time.
    pub busy_ns: u64,
    /// Sum of threads × elapsed.
    pub capacity_ns: u64,
    /// Elapsed minus the largest worker busy time, per run.
    pub fork_join_us: Vec<f64>,
    /// `RunStats::imbalance` per run.
    pub imbalance: Vec<f64>,
}

/// Everything a traced run hands to [`metrics`].
#[derive(Debug, Default)]
pub struct LayerData {
    /// Root operations traced.
    pub ops: usize,
    /// Every span recorded.
    pub spans: Vec<Span>,
    /// In-process replays of the traced window (timings).
    pub replays: Vec<Replay>,
    /// In-process replays of the first [`COUNT_OPS`] requests (counts).
    pub counted: Vec<Replay>,
    /// Service counters (serving workloads).
    pub service: Option<ServiceCounters>,
    /// Runtime measurements (`exec-nest`).
    pub runtime: Option<RuntimeData>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics, always the same names in the same order.
pub fn metrics(d: &LayerData) -> Vec<Metric> {
    let mut m = Vec::new();
    let svc = d.service.clone().unwrap_or_default();
    m.push(Metric::value(
        "service.cache.hit_ratio",
        "ratio",
        svc.hit_ratio,
    ));
    m.push(Metric::value(
        "service.cache.evictions",
        "count",
        svc.evictions as f64,
    ));
    m.push(Metric::value(
        "service.jobs.rejected",
        "count",
        svc.rejected as f64,
    ));
    m.push(Metric::value(
        "service.jobs.expired",
        "count",
        svc.expired as f64,
    ));
    m.push(Metric::value(
        "service.overhead_p50_ms",
        "ms",
        svc.overhead_p50_ms,
    ));

    let all: Vec<&Replay> = d.replays.iter().collect();
    let compiles: Vec<&Replay> = all.iter().copied().filter(|r| r.compile_ns > 0).collect();
    let checked: Vec<&Replay> = compiles
        .iter()
        .copied()
        .filter(|r| r.check_ns > 0)
        .collect();
    let us = |f: fn(&Replay) -> u64, set: &[&Replay]| -> Vec<f64> {
        set.iter().map(|r| f(r) as f64 / 1e3).collect()
    };
    let sum = |f: fn(&Replay) -> u64| -> u64 { d.counted.iter().map(f).sum() };

    m.push(Metric::percentile(
        "ir.parse_us",
        "us",
        &us(|r| r.parse_ns, &all),
        50.0,
    ));
    m.push(Metric::percentile(
        "ir.print_us",
        "us",
        &us(|r| r.print_ns, &compiles),
        50.0,
    ));
    m.push(Metric::percentile(
        "ir.interp_us",
        "us",
        &us(|r| r.interp_ns, &compiles),
        50.0,
    ));
    m.push(Metric::value(
        "ir.interp_steps",
        "count",
        sum(|r| r.steps) as f64,
    ));
    m.push(Metric::percentile(
        "lint.lint_program_us",
        "us",
        &us(|r| r.lint_ns, &all),
        50.0,
    ));
    m.push(Metric::value(
        "lint.findings",
        "count",
        sum(|r| r.findings) as f64,
    ));

    let compile_ms: Vec<f64> = compiles.iter().map(|r| r.compile_ns as f64 / 1e6).collect();
    m.push(Metric::percentile(
        "driver.compile_ms",
        "ms",
        &compile_ms,
        50.0,
    ));
    for (k, (pass, _, _)) in PASSES.iter().enumerate() {
        let per_op: Vec<f64> = compiles.iter().map(|r| r.pass_ns[k] as f64 / 1e3).collect();
        m.push(Metric::counted(
            &format!("driver.pass.{pass}_us"),
            "us",
            mean(&per_op),
            per_op.len(),
        ));
    }
    let validate_ns: u64 = compiles.iter().map(|r| r.pass_ns[7]).sum();
    let total_ns: u64 = compiles.iter().map(|r| r.trace_total_ns).sum();
    m.push(Metric::value(
        "driver.validate_share",
        "ratio",
        ratio(validate_ns as f64, total_ns as f64),
    ));
    m.push(Metric::value(
        "driver.coalesced_ratio",
        "ratio",
        ratio(sum(|r| r.coalesced) as f64, sum(|r| r.nests) as f64),
    ));
    let hits = sum(|r| r.nest_cache_hits) as f64;
    m.push(Metric::value(
        "driver.nest_cache.hit_ratio",
        "ratio",
        ratio(hits, hits + sum(|r| r.nest_cache_computed) as f64),
    ));

    m.push(Metric::percentile(
        "xform.check_equivalent_us",
        "us",
        &us(|r| r.check_ns, &checked),
        50.0,
    ));
    m.push(Metric::value(
        "xform.generated_ops_per_iter",
        "ops/iter",
        ratio(
            sum(|r| r.generated_ops) as f64,
            sum(|r| r.coalesced_iters) as f64,
        ),
    ));

    let rt = d.runtime.clone().unwrap_or_default();
    m.push(Metric::percentile(
        "runtime.coalesced_for_p50_ms",
        "ms",
        &rt.coalesced_ms,
        50.0,
    ));
    m.push(Metric::percentile(
        "runtime.outer_for_p50_ms",
        "ms",
        &rt.outer_ms,
        50.0,
    ));
    m.push(Metric::percentile(
        "runtime.inner_sweep_for_p50_ms",
        "ms",
        &rt.inner_ms,
        50.0,
    ));
    for (name, count) in ["ss", "css", "gss", "tss", "fac"].iter().zip(rt.dispatches) {
        m.push(Metric::value(
            &format!("runtime.dispatches.{name}"),
            "count",
            count as f64,
        ));
    }
    m.push(Metric::value(
        "runtime.busy_frac",
        "ratio",
        ratio(rt.busy_ns as f64, rt.capacity_ns as f64),
    ));
    m.push(Metric::value(
        "runtime.fork_join_us",
        "us",
        median(&rt.fork_join_us),
    ));
    m.push(Metric::counted(
        "runtime.imbalance",
        "ratio",
        mean(&rt.imbalance),
        rt.imbalance.len(),
    ));

    let selfs = self_times(&d.spans);
    for layer in LAYERS {
        let ns = selfs.get(&layer).copied().unwrap_or(0) as f64;
        m.push(Metric::counted(
            &format!("{}.self_us", layer.key()),
            "us",
            ratio(ns / 1e3, d.ops as f64),
            d.ops,
        ));
    }
    m.push(Metric::value("trace.spans", "count", d.spans.len() as f64));
    m
}
