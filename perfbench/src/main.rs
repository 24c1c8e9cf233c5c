//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics, or with `--trace 1` the per-layer
//! metrics). Exits 1 on any wrong output or counter disagreement, 2 on a
//! usage error.

use std::process::ExitCode;

use lc_perfbench::stats::{result_json, Metric};
use lc_perfbench::trace::{self_times, to_jsonl, LAYERS};
use lc_perfbench::{exec, gen, serve, Args, Outcome, THREADS};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} threads={THREADS} available_parallelism={cores}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let digest = gen::digest(&args.workload, args.seed).expect("workload name was checked");
    println!(
        "request list digest {digest:#018x} (first {} requests); held-out seed {}",
        gen::DIGEST_OPS,
        gen::HELD_OUT_SEED
    );

    let ticks = lc_perfbench::host_ticks();
    let result = match args.workload.as_str() {
        "compile-cold" => serve::run(&args, true),
        "serve-mixed" => serve::run(&args, false),
        _ => exec::run(&args),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    report(&args, &out);
    // Stolen time slows every figure of the run; it is printed so that
    // a slow run can be told from a slow program.
    if let (Some((t0, s0)), Some((t1, s1))) = (ticks, lc_perfbench::host_ticks()) {
        let share = (s1 - s0) as f64 * 100.0 / (t1 - t0).max(1) as f64;
        println!("host CPU time stolen by the hypervisor during the run: {share:.1} %");
    }
    let correct = out.problems.is_empty();
    let metrics = if args.trace { &out.layers } else { &out.e2e };
    println!(
        "{}",
        result_json(correct, out.attempted, out.failed, metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn section(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("{}", m.line());
    }
}

fn report(args: &Args, out: &Outcome) {
    section("end-to-end (untraced window):", &out.e2e);
    section("reported, not gated:", &out.classes);
    if args.trace {
        section("end-to-end (traced window):", &out.traced_e2e);
        println!("tracing overhead (traced / untraced - 1):");
        for t in &out.traced_e2e {
            if let Some(u) = out.e2e.iter().find(|u| u.name == t.name && u.value != 0.0) {
                println!(
                    "  {:<34} {:>+9.1} %",
                    u.name,
                    (t.value / u.value - 1.0) * 100.0
                );
            }
        }
        if let Some(spans) = &out.span_log {
            let selfs = self_times(spans);
            let total: u64 = selfs.values().sum();
            println!("self time by layer (traced window):");
            for layer in LAYERS {
                let ns = selfs.get(&layer).copied().unwrap_or(0);
                println!(
                    "  {:<12} {:>12.1} ms {:>6.1} %",
                    layer.crate_name(),
                    ns as f64 / 1e6,
                    ns as f64 * 100.0 / total.max(1) as f64
                );
            }
            write_spans(&args.workload, spans);
        }
        section("per-layer (traced window):", &out.layers);
    }
    for p in &out.problems {
        println!("PROBLEM: {p}");
    }
}

/// Write the traced window's spans beside the benchmark.
fn write_spans(workload: &str, spans: &[lc_perfbench::trace::Span]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{workload}.jsonl"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, to_jsonl(spans))) {
        Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => println!("spans: could not write {}: {e}", path.display()),
    }
}
