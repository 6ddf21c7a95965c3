//! Blocking socket server over [`ScanService`].
//!
//! One acceptor loop (blocking accept with a short timeout + shutdown
//! flag) and one thread per connection. Each connection speaks the framed protocol
//! from [`crate::proto`], owns the sessions it opened — they are
//! auto-closed when the peer disconnects, so a crashed client never
//! leaks quota — and drains reports back to the client after every
//! feed. Ownership is enforced, not just tracked: `FEED`/`CLOSE` for a
//! sid this connection did not open is answered with `UnknownSession`,
//! so one tenant can never feed, drain or close another's stream.
//!
//! `SHUTDOWN` flips a shared flag: the acceptor stops within
//! `ACCEPT_WAIT`, `run` returns,
//! and the hosting binary prints the final metrics snapshot. The
//! container environment has no signal-handling crate, so the frame is
//! the graceful-exit path a signal handler would normally provide;
//! connections still open at shutdown are detached, not drained.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::proto::{error_code, read_frame, write_frame, DbRef, Request, Response};
use crate::service::{ScanService, ServeError};

/// Longest the acceptor blocks before it re-checks the shutdown flag. A
/// connection is accepted the moment it arrives; this bounds only how
/// long a flag set from outside waits to be seen.
const ACCEPT_WAIT: Duration = Duration::from_millis(10);

/// Transport the server listens on.
pub enum Listener {
    /// TCP, e.g. `127.0.0.1:7700`.
    Tcp(TcpListener),
    /// Unix domain socket.
    Unix(UnixListener),
}

trait Conn: Read + Write + Send {}
impl<T: Read + Write + Send> Conn for T {}

impl Listener {
    /// Binds a TCP listener.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_tcp(addr: &str) -> std::io::Result<Listener> {
        Ok(Listener::Tcp(TcpListener::bind(addr)?))
    }

    /// Binds a Unix-socket listener, replacing a stale socket file.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_unix(path: &std::path::Path) -> std::io::Result<Listener> {
        let _ = std::fs::remove_file(path);
        Ok(Listener::Unix(UnixListener::bind(path)?))
    }

    /// The bound TCP address, if this is a TCP listener.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match self {
            Listener::Tcp(l) => l.local_addr().ok(),
            Listener::Unix(_) => None,
        }
    }

    /// Makes `accept` block, but for at most `wait`: Linux applies a
    /// socket's receive timeout (`SO_RCVTIMEO`) to `accept`, which then
    /// fails with `WouldBlock`. std sets that option only on streams, so
    /// it is set through a stream over a duplicate of the listener's
    /// descriptor (both name the same socket).
    fn set_accept_timeout(&self, wait: Duration) -> std::io::Result<()> {
        match self {
            Listener::Tcp(l) => {
                l.set_nonblocking(false)?;
                TcpStream::from(l.as_fd().try_clone_to_owned()?).set_read_timeout(Some(wait))
            }
            Listener::Unix(l) => {
                l.set_nonblocking(false)?;
                UnixStream::from(l.as_fd().try_clone_to_owned()?).set_read_timeout(Some(wait))
            }
        }
    }

    /// Accepts one connection, or `None` when [`ACCEPT_WAIT`] passed
    /// without one. The connection's own reads never time out (a TCP
    /// socket inherits the listener's timeout, so it is cleared).
    fn accept(&self) -> std::io::Result<Option<Box<dyn Conn>>> {
        match self {
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_read_timeout(None)?;
                    s.set_nodelay(true)?;
                    Ok(Some(Box::new(s)))
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            Listener::Unix(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_read_timeout(None)?;
                    Ok(Some(Box::new(s)))
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
        }
    }
}

/// The socket front-end for one [`ScanService`].
pub struct Server {
    svc: Arc<ScanService>,
    listener: Listener,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Serves `svc` on `listener`.
    pub fn new(svc: Arc<ScanService>, listener: Listener) -> Server {
        Server {
            svc,
            listener,
            shutdown: Arc::new(AtomicBool::new(false)),
        }
    }

    /// A flag that, once set, stops the accept loop (the `SHUTDOWN`
    /// frame sets it too).
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        self.shutdown.clone()
    }

    /// The bound TCP address, if listening on TCP.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts and serves connections until the shutdown flag is set
    /// (seen within `ACCEPT_WAIT`).
    ///
    /// Accept failures (e.g. fd exhaustion under a connection flood)
    /// shed that one connection attempt — logged, brief pause, keep
    /// accepting — they never take the server down.
    ///
    /// # Errors
    ///
    /// Propagates the initial listener setup failure only.
    pub fn run(self) -> std::io::Result<()> {
        self.listener.set_accept_timeout(ACCEPT_WAIT)?;
        while !self.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok(Some(conn)) => {
                    let svc = self.svc.clone();
                    let shutdown = self.shutdown.clone();
                    // Detached: a connection still open at shutdown is
                    // abandoned, not drained (see the module docs).
                    std::thread::spawn(move || serve_connection(&svc, conn, &shutdown));
                }
                Ok(None) => {}
                Err(e) => {
                    eprintln!("azoo-serve: accept failed, shedding connection: {e}");
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
        Ok(())
    }
}

fn serve_connection(svc: &ScanService, mut conn: Box<dyn Conn>, shutdown: &AtomicBool) {
    // Sessions this connection opened; auto-closed on disconnect.
    let mut owned: Vec<u64> = Vec::new();
    while let Ok(payload) = read_frame(&mut *conn) {
        let req = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                // Framing is intact, the body is not: report and keep
                // the connection.
                let resp = Response::Error {
                    code: 0,
                    message: e.to_string(),
                };
                if write_frame(&mut *conn, &resp.encode()).is_err() {
                    break;
                }
                continue;
            }
        };
        let mut stop = false;
        let responses = handle(svc, req, &mut owned, &mut stop, shutdown);
        for resp in responses {
            if write_frame(&mut *conn, &resp.encode()).is_err() {
                stop = true;
                break;
            }
        }
        if stop {
            break;
        }
    }
    for sid in owned {
        let _ = svc.close(sid);
    }
}

fn handle(
    svc: &ScanService,
    req: Request,
    owned: &mut Vec<u64>,
    stop: &mut bool,
    shutdown: &AtomicBool,
) -> Vec<Response> {
    match req {
        Request::Open {
            tenant,
            db,
            max_edits,
        } => {
            let resolved = match db {
                DbRef::ByKey(key) => svc
                    .db_by_key(key)
                    .ok_or(ServeError::Db(crate::db::DbError::UnknownKey(key))),
                DbRef::Artifact(bytes) => svc.db_from_artifact(&bytes),
            };
            match resolved
                .and_then(|db| svc.db_at_distance(&db, max_edits))
                .and_then(|db| svc.open(&tenant, &db))
            {
                Ok(sid) => {
                    owned.push(sid);
                    vec![Response::Opened { sid }]
                }
                Err(e) => vec![error_response(&e)],
            }
        }
        Request::Feed { sid, eod, data } => {
            // Ownership check: a sid opened by another connection is
            // *unknown* here, whatever the session map says — otherwise
            // any client could feed, drain or cancel another tenant's
            // stream by guessing sids.
            if !owned.contains(&sid) {
                return vec![error_response(&ServeError::UnknownSession(sid))];
            }
            match svc.feed(sid, &data, eod) {
                Ok(_) => drain_response(svc, sid),
                Err(e) => vec![error_response(&e)],
            }
        }
        Request::Close { sid } => {
            if !owned.contains(&sid) {
                return vec![error_response(&ServeError::UnknownSession(sid))];
            }
            // Final drain first so buffered reports are not lost.
            let mut out = drain_response(svc, sid);
            match svc.close(sid) {
                Ok(stats) => {
                    owned.retain(|&s| s != sid);
                    out.push(Response::Closed {
                        sid,
                        fed_bytes: stats.fed_bytes,
                    });
                }
                Err(e) => out = vec![error_response(&e)],
            }
            out
        }
        Request::Metrics => vec![Response::MetricsJson(svc.metrics().to_json_string())],
        Request::Shutdown => {
            shutdown.store(true, Ordering::SeqCst);
            *stop = true;
            vec![Response::ShuttingDown]
        }
    }
}

fn drain_response(svc: &ScanService, sid: u64) -> Vec<Response> {
    match svc.drain(sid) {
        Ok(reports) => vec![Response::Reports {
            sid,
            reports: reports.iter().map(|r| (r.offset, r.code.0)).collect(),
        }],
        Err(e) => vec![error_response(&e)],
    }
}

fn error_response(e: &ServeError) -> Response {
    Response::Error {
        code: error_code(e),
        message: e.to_string(),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::db::{Db, DbConfig};
    use crate::proto::{recv_response, send_request};
    use crate::service::ServeLimits;
    use azoo_core::{Automaton, StartKind, SymbolClass};
    use std::net::TcpStream;

    fn ab_artifact() -> Vec<u8> {
        let mut a = Automaton::new();
        let s = a.add_ste(SymbolClass::from_byte(b'a'), StartKind::AllInput);
        let t = a.add_ste(SymbolClass::from_byte(b'b'), StartKind::None);
        a.add_edge(s, t);
        a.set_report(t, 7);
        Db::compile(a, DbConfig::default())
            .expect("compile")
            .serialize()
    }

    #[test]
    fn tcp_end_to_end() {
        let svc = ScanService::new(ServeLimits::default());
        let listener = Listener::bind_tcp("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let metrics = svc.metrics().clone();
        let server = Server::new(svc, listener);
        let handle = std::thread::spawn(move || server.run().expect("run"));

        let mut conn = TcpStream::connect(addr).expect("connect");
        send_request(
            &mut conn,
            &Request::Open {
                tenant: "t".into(),
                db: DbRef::Artifact(ab_artifact()),
                max_edits: 0,
            },
        )
        .expect("send");
        let sid = match recv_response(&mut conn).expect("recv") {
            Response::Opened { sid } => sid,
            other => panic!("expected Opened, got {other:?}"),
        };

        send_request(
            &mut conn,
            &Request::Feed {
                sid,
                eod: false,
                data: b"xab".to_vec(),
            },
        )
        .expect("send");
        match recv_response(&mut conn).expect("recv") {
            Response::Reports { reports, .. } => assert_eq!(reports, vec![(2, 7)]),
            other => panic!("expected Reports, got {other:?}"),
        }

        // Feeding an unknown session is a typed error, not a hangup.
        send_request(
            &mut conn,
            &Request::Feed {
                sid: 999,
                eod: false,
                data: b"x".to_vec(),
            },
        )
        .expect("send");
        match recv_response(&mut conn).expect("recv") {
            Response::Error { code, .. } => assert_eq!(code, 4),
            other => panic!("expected Error, got {other:?}"),
        }

        send_request(&mut conn, &Request::Close { sid }).expect("send");
        match recv_response(&mut conn).expect("recv") {
            Response::Reports { reports, .. } => assert!(reports.is_empty()),
            other => panic!("expected final Reports, got {other:?}"),
        }
        match recv_response(&mut conn).expect("recv") {
            Response::Closed { fed_bytes, .. } => assert_eq!(fed_bytes, 3),
            other => panic!("expected Closed, got {other:?}"),
        }

        send_request(&mut conn, &Request::Metrics).expect("send");
        match recv_response(&mut conn).expect("recv") {
            Response::MetricsJson(json) => {
                let parsed = azoo_core::json::parse(&json).expect("valid JSON");
                assert_eq!(parsed.get("feeds_total").and_then(|j| j.as_i64()), Some(1));
            }
            other => panic!("expected MetricsJson, got {other:?}"),
        }

        send_request(&mut conn, &Request::Shutdown).expect("send");
        match recv_response(&mut conn).expect("recv") {
            Response::ShuttingDown => {}
            other => panic!("expected ShuttingDown, got {other:?}"),
        }
        handle.join().expect("server thread");
        assert_eq!(metrics.snapshot().sessions_open, 0);
    }

    #[test]
    fn foreign_sids_are_rejected_across_connections() {
        let svc = ScanService::new(ServeLimits::default());
        let listener = Listener::bind_tcp("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let svc2 = svc.clone();
        let server = Server::new(svc, listener);
        let flag = server.shutdown_flag();
        let handle = std::thread::spawn(move || server.run().expect("run"));

        let mut victim = TcpStream::connect(addr).expect("connect");
        send_request(
            &mut victim,
            &Request::Open {
                tenant: "victim".into(),
                db: DbRef::Artifact(ab_artifact()),
                max_edits: 0,
            },
        )
        .expect("send");
        let sid = match recv_response(&mut victim).expect("recv") {
            Response::Opened { sid } => sid,
            other => panic!("expected Opened, got {other:?}"),
        };

        // A second connection must not be able to feed or close the
        // victim's session, even knowing its sid exactly.
        let mut attacker = TcpStream::connect(addr).expect("connect");
        for req in [
            Request::Feed {
                sid,
                eod: false,
                data: b"ab".to_vec(),
            },
            Request::Close { sid },
        ] {
            send_request(&mut attacker, &req).expect("send");
            match recv_response(&mut attacker).expect("recv") {
                Response::Error { code, .. } => assert_eq!(code, 4, "UnknownSession"),
                other => panic!("expected Error, got {other:?}"),
            }
        }
        assert_eq!(svc2.session_count(), 1, "victim session untouched");

        // The victim's own stream still works and kept its reports.
        send_request(
            &mut victim,
            &Request::Feed {
                sid,
                eod: true,
                data: b"xab".to_vec(),
            },
        )
        .expect("send");
        match recv_response(&mut victim).expect("recv") {
            Response::Reports { reports, .. } => assert_eq!(reports, vec![(2, 7)]),
            other => panic!("expected Reports, got {other:?}"),
        }

        flag.store(true, Ordering::SeqCst);
        drop(victim);
        drop(attacker);
        handle.join().expect("server thread");
    }

    #[test]
    fn disconnect_auto_closes_sessions() {
        let svc = ScanService::new(ServeLimits::default());
        let listener = Listener::bind_tcp("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let svc2 = svc.clone();
        let server = Server::new(svc, listener);
        let flag = server.shutdown_flag();
        let handle = std::thread::spawn(move || server.run().expect("run"));

        {
            let mut conn = TcpStream::connect(addr).expect("connect");
            send_request(
                &mut conn,
                &Request::Open {
                    tenant: "t".into(),
                    db: DbRef::Artifact(ab_artifact()),
                    max_edits: 0,
                },
            )
            .expect("send");
            assert!(matches!(
                recv_response(&mut conn).expect("recv"),
                Response::Opened { .. }
            ));
            assert_eq!(svc2.session_count(), 1);
        } // dropped: connection closes without CLOSE

        // The handler notices EOF and releases the session.
        for _ in 0..500 {
            if svc2.session_count() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(svc2.session_count(), 0, "disconnect must close sessions");
        flag.store(true, Ordering::SeqCst);
        handle.join().expect("server thread");
    }
}
