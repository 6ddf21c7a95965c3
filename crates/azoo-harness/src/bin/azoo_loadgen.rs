//! The `azoo-loadgen` binary: a load generator and correctness client
//! for `azoo-serve`.
//!
//! ```text
//! azoo-loadgen (--unix PATH | --tcp ADDR)
//!              [--connections K]   client connections (default 2)
//!              [--sessions S]      total sessions across them (default 8)
//!              [--chunk BYTES]     feed chunk size (default 4096)
//!              [--scale tiny|small|full]
//!              [--smoke]           CI preset: tiny scale, 2 conns x 8 sessions
//!              [--out PATH]        also write the result JSON to PATH
//!              [--no-shutdown]     leave the server running on exit
//! ```
//!
//! Sessions replay the suite's Snort and ClamAV corpora
//! ([`BenchmarkId::Snort`]/[`BenchmarkId::ClamAv`]): each connection
//! opens its share of sessions, round-robins chunked feeds across them
//! (interleaving streams on one connection, the server's hardest
//! small-state case), then closes. Every session's drained reports are
//! checked byte-for-byte against a local block scan of the same
//! database — the loadgen is an oracle, not just a firehose. On success
//! it fetches the server metrics, optionally sends `SHUTDOWN`, and —
//! only when `--out` is given — writes a result JSON with the run's
//! totals and the server snapshot. Serving throughput and latency are
//! measured by `azoo-perf` (`serve.*` rows), not here.
//!
//! Exit code: 0 = all sessions verified; 1 = any mismatch or protocol
//! error; 2 = bad usage.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Instant;

use azoo_core::json::Json;
use azoo_engines::CollectSink;
use azoo_harness::{arg_value, flag_present, positive_arg, scale_from_args};
use azoo_serve::proto::{recv_response, send_request};
use azoo_serve::{Db, DbConfig, DbRef, Request, Response};
use azoo_zoo::{BenchmarkId, Scale};

trait Conn: Read + Write + Send {}
impl<T: Read + Write + Send> Conn for T {}

/// One benchmark's replay material, shared by every session on it.
struct Workload {
    name: &'static str,
    artifact: Arc<Vec<u8>>,
    input: Arc<Vec<u8>>,
    /// Reports a correct server must produce for the whole stream.
    expected: Arc<Vec<(u64, u32)>>,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = flag_present(&args, "--smoke");
    let scale = if smoke {
        Scale::Tiny
    } else {
        scale_from_args()
    };
    let connections = positive_arg(&args, "--connections", 2);
    let sessions = positive_arg(&args, "--sessions", 8);
    let chunk = positive_arg(&args, "--chunk", 4096);
    let out = arg_value(&args, "--out");

    let workloads: Vec<Arc<Workload>> = [BenchmarkId::Snort, BenchmarkId::ClamAv]
        .into_iter()
        .map(|id| Arc::new(build_workload(id, scale)))
        .collect();
    eprintln!(
        "azoo-loadgen: {connections} connections x {sessions} sessions, \
         {chunk}-byte chunks, scale {scale:?}"
    );

    // Distribute sessions round-robin across connections and workloads.
    let mut per_conn: Vec<Vec<Arc<Workload>>> = vec![Vec::new(); connections];
    for s in 0..sessions {
        per_conn[s % connections].push(workloads[s % workloads.len()].clone());
    }

    let t0 = Instant::now();
    let mut threads = Vec::new();
    for (c, assigned) in per_conn.into_iter().enumerate() {
        let args = args.clone();
        threads.push(std::thread::spawn(move || {
            run_connection(&args, c, &assigned, chunk)
        }));
    }
    let mut total_bytes = 0u64;
    let mut total_reports = 0u64;
    let mut failed = false;
    for t in threads {
        match t.join() {
            Ok(Ok((bytes, reports))) => {
                total_bytes += bytes;
                total_reports += reports;
            }
            Ok(Err(e)) => {
                eprintln!("azoo-loadgen: {e}");
                failed = true;
            }
            Err(_) => {
                eprintln!("azoo-loadgen: connection thread panicked");
                failed = true;
            }
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();

    // Fetch the server-side snapshot on a fresh connection, then
    // (unless told otherwise) ask the server to exit.
    let metrics_json = (|| -> Result<String, String> {
        let mut conn = connect(&args)?;
        send_request(&mut *conn, &Request::Metrics).map_err(|e| e.to_string())?;
        let json = match recv_response(&mut *conn).map_err(|e| e.to_string())? {
            Response::MetricsJson(json) => json,
            other => return Err(format!("expected MetricsJson, got {other:?}")),
        };
        if !flag_present(&args, "--no-shutdown") {
            send_request(&mut *conn, &Request::Shutdown).map_err(|e| e.to_string())?;
            match recv_response(&mut *conn).map_err(|e| e.to_string())? {
                Response::ShuttingDown => {}
                other => return Err(format!("expected ShuttingDown, got {other:?}")),
            }
        }
        Ok(json)
    })()
    .unwrap_or_else(|e| {
        eprintln!("azoo-loadgen: metrics/shutdown failed: {e}");
        failed = true;
        String::new()
    });

    if failed {
        std::process::exit(1);
    }
    let metrics = azoo_core::json::parse(&metrics_json).unwrap_or_else(|e| {
        eprintln!("azoo-loadgen: server metrics are not valid JSON: {e}");
        std::process::exit(1);
    });
    if smoke {
        // CI gate: a clean smoke run rejects nothing and finds matches.
        let rejected = metrics
            .get("rejected_feeds")
            .and_then(|j| j.as_i64())
            .unwrap_or(-1);
        if rejected != 0 {
            eprintln!("azoo-loadgen: smoke expects zero rejected feeds, saw {rejected}");
            std::process::exit(1);
        }
        if total_reports == 0 {
            eprintln!("azoo-loadgen: smoke expects nonzero reports");
            std::process::exit(1);
        }
    }

    let result = Json::Obj(vec![
        ("schema".into(), Json::Str("azoo-serve-bench-v1".into())),
        ("scale".into(), Json::Str(format!("{scale:?}"))),
        ("connections".into(), Json::Int(connections as i64)),
        ("sessions".into(), Json::Int(sessions as i64)),
        ("chunk_bytes".into(), Json::Int(chunk as i64)),
        ("bytes_fed".into(), Json::Int(total_bytes as i64)),
        ("reports".into(), Json::Int(total_reports as i64)),
        ("elapsed_s".into(), Json::Float(elapsed)),
        (
            "throughput_mbps".into(),
            Json::Float(total_bytes as f64 / elapsed.max(1e-9) / 1e6),
        ),
        ("server_metrics".into(), metrics),
    ]);
    if let Some(out) = out {
        let mut text = result.pretty();
        text.push('\n');
        if let Err(e) = std::fs::write(&out, text) {
            eprintln!("azoo-loadgen: cannot write {out}: {e}");
            std::process::exit(1);
        }
        eprintln!("azoo-loadgen: results in {out}");
    }
    eprintln!("azoo-loadgen: OK — {total_bytes} bytes, {total_reports} reports, {elapsed:.2}s");
}

fn build_workload(id: BenchmarkId, scale: Scale) -> Workload {
    let bench = id.build(scale);
    let db = Db::compile(bench.automaton, DbConfig::default())
        .unwrap_or_else(|e| fatal(&format!("{} does not compile: {e}", id.name())));
    // Local block scan = ground truth for every session on this corpus.
    let mut engine = db.checkout();
    let mut sink = CollectSink::new();
    engine.feed(&bench.input, true, &mut sink);
    db.checkin(engine);
    Workload {
        name: id.name(),
        artifact: Arc::new(db.serialize()),
        input: Arc::new(bench.input),
        expected: Arc::new(
            sink.reports()
                .iter()
                .map(|r| (r.offset, r.code.0))
                .collect(),
        ),
    }
}

/// Drives one connection: open every assigned session, interleave
/// chunked feeds round-robin, verify, close. Returns (bytes, reports).
fn run_connection(
    args: &[String],
    cid: usize,
    assigned: &[Arc<Workload>],
    chunk: usize,
) -> Result<(u64, u64), String> {
    let mut conn = connect(args)?;
    struct Live {
        wl: Arc<Workload>,
        sid: u64,
        fed: usize,
        got: Vec<(u64, u32)>,
    }
    let mut live: Vec<Live> = Vec::new();
    for wl in assigned {
        send_request(
            &mut *conn,
            &Request::Open {
                tenant: wl.name.into(),
                db: DbRef::Artifact(wl.artifact.as_ref().clone()),
                max_edits: 0,
            },
        )
        .map_err(|e| e.to_string())?;
        let sid = match recv_response(&mut *conn).map_err(|e| e.to_string())? {
            Response::Opened { sid } => sid,
            other => return Err(format!("conn {cid}: open failed: {other:?}")),
        };
        live.push(Live {
            wl: wl.clone(),
            sid,
            fed: 0,
            got: Vec::new(),
        });
    }

    let mut bytes = 0u64;
    let mut reports = 0u64;
    // Round-robin until every stream has delivered its final chunk.
    let mut done = 0;
    while done < live.len() {
        done = 0;
        for s in &mut live {
            if s.fed > s.wl.input.len() {
                done += 1;
                continue;
            }
            let end = (s.fed + chunk).min(s.wl.input.len());
            let eod = end == s.wl.input.len();
            send_request(
                &mut *conn,
                &Request::Feed {
                    sid: s.sid,
                    eod,
                    data: s.wl.input[s.fed..end].to_vec(),
                },
            )
            .map_err(|e| e.to_string())?;
            bytes += (end - s.fed) as u64;
            // `fed > len` marks eod-delivered (handles empty inputs).
            s.fed = end + usize::from(eod);
            match recv_response(&mut *conn).map_err(|e| e.to_string())? {
                Response::Reports { reports: r, .. } => {
                    reports += r.len() as u64;
                    s.got.extend(r);
                }
                other => return Err(format!("conn {cid}: feed failed: {other:?}")),
            }
        }
    }

    for s in &mut live {
        send_request(&mut *conn, &Request::Close { sid: s.sid }).map_err(|e| e.to_string())?;
        match recv_response(&mut *conn).map_err(|e| e.to_string())? {
            Response::Reports { reports: r, .. } => {
                reports += r.len() as u64;
                s.got.extend(r);
            }
            other => return Err(format!("conn {cid}: close drain failed: {other:?}")),
        }
        match recv_response(&mut *conn).map_err(|e| e.to_string())? {
            Response::Closed { .. } => {}
            other => return Err(format!("conn {cid}: close failed: {other:?}")),
        }
        if s.got != *s.wl.expected {
            return Err(format!(
                "conn {cid}: session {} ({}) diverged: {} reports served, {} expected",
                s.sid,
                s.wl.name,
                s.got.len(),
                s.wl.expected.len()
            ));
        }
    }
    Ok((bytes, reports))
}

fn connect(args: &[String]) -> Result<Box<dyn Conn>, String> {
    match (arg_value(args, "--unix"), arg_value(args, "--tcp")) {
        (Some(path), None) => UnixStream::connect(&path)
            .map(|s| Box::new(s) as Box<dyn Conn>)
            .map_err(|e| format!("cannot connect to unix socket {path}: {e}")),
        (None, Some(addr)) => TcpStream::connect(&addr)
            .map(|s| {
                let _ = s.set_nodelay(true);
                Box::new(s) as Box<dyn Conn>
            })
            .map_err(|e| format!("cannot connect to tcp {addr}: {e}")),
        _ => {
            eprintln!("azoo-loadgen: exactly one of --unix PATH or --tcp ADDR is required");
            std::process::exit(2);
        }
    }
}

fn fatal(msg: &str) -> ! {
    eprintln!("azoo-loadgen: {msg}");
    std::process::exit(1);
}
