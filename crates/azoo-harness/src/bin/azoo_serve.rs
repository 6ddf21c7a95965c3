//! The `azoo-serve` binary: hosts a [`ScanService`] behind the framed
//! protocol on a TCP address or Unix socket.
//!
//! ```text
//! azoo-serve (--unix PATH | --tcp ADDR)
//!            [--max-sessions N]          global open-session cap
//!            [--max-tenant-sessions N]   per-tenant open-session cap
//!            [--max-bytes N]             global bytes-in-flight cap
//!            [--max-tenant-bytes N]      per-tenant bytes-in-flight cap
//!            [--max-buffered-reports N]  per-session undrained-report cap
//!            [--deadline-ms N]           feed deadline (absent = none)
//!            [--metrics-json PATH]       also write the final snapshot here
//! ```
//!
//! Every `N` must be a positive integer: `0` or a non-number prints a
//! usage line and exits 2, since a zero cap would refuse every session
//! or every non-empty feed.
//!
//! Clients ship their own compiled databases as `OPEN` artifacts (or
//! reuse a cached key), so the server is ruleset-agnostic. It runs until
//! a client sends `SHUTDOWN` — the graceful-exit path in place of a
//! signal handler — then prints the final `azoo-serve-metrics-v1`
//! snapshot to stdout.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]

use std::time::Duration;

use azoo_harness::{arg_value, positive_arg, write_metrics_json};
use azoo_serve::{Listener, ScanService, ServeLimits, Server};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut limits = ServeLimits::default();
    let l = &mut limits;
    l.max_sessions = positive_arg(&args, "--max-sessions", l.max_sessions);
    l.max_sessions_per_tenant =
        positive_arg(&args, "--max-tenant-sessions", l.max_sessions_per_tenant);
    l.max_bytes_in_flight =
        positive_arg(&args, "--max-bytes", l.max_bytes_in_flight as usize) as u64;
    l.max_bytes_in_flight_per_tenant = positive_arg(
        &args,
        "--max-tenant-bytes",
        l.max_bytes_in_flight_per_tenant as usize,
    ) as u64;
    l.max_buffered_reports = positive_arg(&args, "--max-buffered-reports", l.max_buffered_reports);
    // Absent is the only way to read 0 here: no deadline.
    let deadline_ms = positive_arg(&args, "--deadline-ms", 0) as u64;
    l.feed_deadline = (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms));

    let listener = match (arg_value(&args, "--unix"), arg_value(&args, "--tcp")) {
        (Some(path), None) => Listener::bind_unix(std::path::Path::new(&path))
            .unwrap_or_else(|e| fatal(&format!("cannot bind unix socket {path}: {e}"))),
        (None, Some(addr)) => Listener::bind_tcp(&addr)
            .unwrap_or_else(|e| fatal(&format!("cannot bind tcp address {addr}: {e}"))),
        _ => fatal("exactly one of --unix PATH or --tcp ADDR is required"),
    };

    let svc = ScanService::new(limits);
    let metrics = svc.metrics().clone();
    match (arg_value(&args, "--unix"), listener.local_addr()) {
        (Some(path), _) => eprintln!("azoo-serve: listening on unix socket {path}"),
        (None, Some(addr)) => eprintln!("azoo-serve: listening on tcp {addr}"),
        _ => {}
    }

    let server = Server::new(svc, listener);
    if let Err(e) = server.run() {
        fatal(&format!("accept loop failed: {e}"));
    }

    // Graceful exit (SHUTDOWN frame): print the final snapshot.
    println!("{}", metrics.to_json_string());
    write_metrics_json(&args, &metrics);
}

fn fatal(msg: &str) -> ! {
    eprintln!("azoo-serve: {msg}");
    std::process::exit(2);
}
