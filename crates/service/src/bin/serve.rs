//! `lc-serve` — run the loop-coalescing compile server.
//!
//! ```text
//! lc-serve [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]
//!          [--deadline-ms N]
//! ```
//!
//! The server runs until `POST /shutdown` arrives or stdin reaches EOF
//! (pure-std builds have no signal handling; piping the process's stdin
//! from a supervisor gives the same lifecycle hook). Either way it
//! drains: queued compiles finish, new work is refused with 503.

use std::process::ExitCode;
use std::time::Duration;

use lc_service::{Server, ServiceConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage: lc-serve [--addr HOST:PORT] [--workers N] [--queue N] [--cache N] [--deadline-ms N]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut config = ServiceConfig::default();
    let mut addr = "127.0.0.1:7878".to_string();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--help" || flag == "-h" {
            return usage();
        }
        let Some(value) = args.get(i + 1) else {
            eprintln!("lc-serve: {flag} needs a value");
            return usage();
        };
        match flag {
            "--addr" => addr = value.clone(),
            "--workers" => match value.parse() {
                Ok(n) => config.workers = n,
                Err(_) => return usage(),
            },
            "--queue" => match value.parse() {
                Ok(n) => config.queue_capacity = n,
                Err(_) => return usage(),
            },
            "--cache" => match value.parse() {
                Ok(n) => config.cache_capacity = n,
                Err(_) => return usage(),
            },
            "--deadline-ms" => match value.parse() {
                Ok(ms) => config.default_deadline = Duration::from_millis(ms),
                Err(_) => return usage(),
            },
            _ => {
                eprintln!("lc-serve: unknown flag {flag}");
                return usage();
            }
        }
        i += 2;
    }

    let workers = config.workers;
    let server = match Server::start(config, &addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lc-serve: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "lc-serve listening on http://{} ({} workers)",
        server.addr(),
        workers
    );
    println!(
        "POST /compile | POST /batch | POST /analyze | GET /metrics | GET /healthz | POST /shutdown"
    );

    // Drain when stdin closes, so `lc-serve < /dev/null` exits once idle
    // and a supervisor can stop us by closing the pipe. `POST /shutdown`
    // is the other path; either way `join` below returns once drained.
    // Whatever arrives on stdin is discarded as it comes, never buffered.
    let shutdown_addr = server.addr();
    std::thread::spawn(move || {
        let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
        eprintln!("lc-serve: stdin closed, draining");
        let _ = lc_service::client::post(shutdown_addr, "/shutdown", b"", Duration::from_secs(5));
    });
    server.join();
    eprintln!("lc-serve: drained, bye");
    ExitCode::SUCCESS
}
