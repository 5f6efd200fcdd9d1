//! The `qserve` binary: stdio batch mode or a TCP listener.
//!
//! ```text
//! qserve [--stdio]                 serve one session on stdin/stdout
//! qserve --tcp 127.0.0.1:7878      shared TCP service
//!   --workers N        worker budget (default: CPUs, capped at 8)
//!   --max-queued N     queued-job bound (default 64)
//!   --max-time-ms N    per-job wall cap (default 30000)
//!   --gateset NAME     nam | ibmq20 | ibm-eagle | ionq | clifford-t
//!   --cache-gates N    shared resynthesis memo-cache budget, in gates
//!                      (default 65536; 0 disables the cache)
//!   --resynth-prob P   per-iteration resynthesis probability
//!                      (default: the paper's 0.015)
//!   --journal-dir DIR  append-only per-job journals (enables RESUME)
//!   --checkpoint-every N
//!                      full-snapshot cadence of v2 streams & journals
//!                      (default 16 improvements)
//!   --queue-wait-ms N  admission deadline: a job queued longer than
//!                      this is retracted with ERROR code=queue-timeout
//!                      (default 0 = wait forever)
//!   --cache-snapshot FILE
//!                      persistent memo-cache tier: warm-start from
//!                      FILE and persist back (atomically) at shutdown
//!   --snapshot-flush-ms N
//!                      also flush the cache snapshot every N ms
//!                      (default 0 = only at shutdown)
//!   --metrics-addr ADDR
//!                      serve the telemetry registry as Prometheus
//!                      text exposition over HTTP at ADDR
//!                      (e.g. 127.0.0.1:9184; default: no endpoint)
//! ```
//!
//! Diagnostics go to stderr; stdout carries only protocol frames.

use qcir::GateSet;
use qserve::{serve_stdio, serve_tcp, ServeOpts, Server};
use std::net::TcpListener;
use std::process::ExitCode;

fn parse_gate_set(name: &str) -> Option<GateSet> {
    match name {
        "nam" => Some(GateSet::Nam),
        "ibmq20" => Some(GateSet::Ibmq20),
        "ibm-eagle" => Some(GateSet::IbmEagle),
        "ionq" => Some(GateSet::Ionq),
        "clifford-t" => Some(GateSet::CliffordT),
        _ => None,
    }
}

fn main() -> ExitCode {
    let mut opts = ServeOpts::default();
    let mut tcp_addr: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        let parsed: Result<(), String> = match arg.as_str() {
            "--stdio" => Ok(()),
            "--tcp" => value("--tcp").map(|v| tcp_addr = Some(v)),
            "--workers" => value("--workers").and_then(|v| {
                v.parse()
                    .map(|n| opts.worker_budget = n)
                    .map_err(|_| "bad --workers value".into())
            }),
            "--max-queued" => value("--max-queued").and_then(|v| {
                v.parse()
                    .map(|n| opts.max_queued = n)
                    .map_err(|_| "bad --max-queued value".into())
            }),
            "--max-time-ms" => value("--max-time-ms").and_then(|v| {
                v.parse()
                    .map(|n| opts.max_time_ms = n)
                    .map_err(|_| "bad --max-time-ms value".into())
            }),
            "--gateset" => value("--gateset").and_then(|v| {
                parse_gate_set(&v)
                    .map(|g| opts.gate_set = g)
                    .ok_or_else(|| format!("unknown gate set `{v}`"))
            }),
            "--cache-gates" => value("--cache-gates").and_then(|v| {
                v.parse()
                    .map(|n| opts.cache_gates = n)
                    .map_err(|_| "bad --cache-gates value".into())
            }),
            "--resynth-prob" => value("--resynth-prob").and_then(|v| {
                v.parse::<f64>()
                    .ok()
                    .filter(|p| (0.0..=1.0).contains(p))
                    .map(|p| opts.resynth_probability = Some(p))
                    .ok_or_else(|| "bad --resynth-prob value".to_string())
            }),
            "--journal-dir" => value("--journal-dir").map(|v| opts.journal_dir = Some(v.into())),
            "--checkpoint-every" => value("--checkpoint-every").and_then(|v| {
                v.parse::<u64>()
                    .ok()
                    .filter(|&n| n > 0)
                    .map(|n| opts.checkpoint_every = n)
                    .ok_or_else(|| "bad --checkpoint-every value".to_string())
            }),
            "--queue-wait-ms" => value("--queue-wait-ms").and_then(|v| {
                v.parse()
                    .map(|n| opts.queue_wait_ms = n)
                    .map_err(|_| "bad --queue-wait-ms value".into())
            }),
            "--cache-snapshot" => {
                value("--cache-snapshot").map(|v| opts.cache_snapshot = Some(v.into()))
            }
            "--snapshot-flush-ms" => value("--snapshot-flush-ms").and_then(|v| {
                v.parse()
                    .map(|n| opts.snapshot_flush_ms = n)
                    .map_err(|_| "bad --snapshot-flush-ms value".into())
            }),
            "--metrics-addr" => value("--metrics-addr").map(|v| opts.metrics_addr = Some(v)),
            other => Err(format!("unknown flag `{other}`")),
        };
        if let Err(e) = parsed {
            eprintln!("qserve: {e}");
            return ExitCode::FAILURE;
        }
    }

    eprintln!(
        "qserve: worker budget {}, max {} queued, {} ms wall cap, gate set {:?}, cache {} gates, journal {}",
        opts.worker_budget,
        opts.max_queued,
        opts.max_time_ms,
        opts.gate_set,
        opts.cache_gates,
        opts.journal_dir
            .as_deref()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| "off".into()),
    );
    let server = Server::start(opts);
    let result = match tcp_addr {
        Some(addr) => match TcpListener::bind(&addr) {
            Ok(listener) => {
                eprintln!("qserve: listening on {addr}");
                serve_tcp(listener, &server)
            }
            Err(e) => {
                eprintln!("qserve: cannot bind {addr}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => serve_stdio(&server),
    };
    server.shutdown();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("qserve: transport error: {e}");
            ExitCode::FAILURE
        }
    }
}
