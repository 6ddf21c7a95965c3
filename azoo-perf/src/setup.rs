//! Everything that happens before the first timed operation: generate
//! the members, select engines, compile and register serve databases,
//! start the in-process server and connect to it. Its wall time is the
//! `setup_s` metric; the reference baseline is computed separately.

use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use azoo_core::Automaton;
use azoo_engines::{
    select_session_engine_explained, Engine, EngineChoice, NfaEngine, SessionEngine,
};
use azoo_serve::{Db, DbConfig, Listener, ScanService, ServeLimits, Server};
use azoo_zoo::{BenchmarkId, Scale};

use crate::roster::{self, Workload, CONNECTIONS};
use crate::stats::Digest;
use crate::trace::Timer;

/// One roster member, ready to scan and to serve.
pub struct Member {
    /// Which zoo benchmark this is.
    pub id: BenchmarkId,
    /// The member's standard input for this seed.
    pub input: Vec<u8>,
    /// Tier the portfolio selected.
    pub choice: EngineChoice,
    /// The selector's stated reason.
    pub reason: String,
    /// The selected engine as the selector built it. It never scans:
    /// cold scans run on fresh clones of it.
    pub proto: Box<dyn SessionEngine>,
    /// The member compiled for serving (owns the automaton).
    pub db: Arc<Db>,
    /// An engine checked out of the database's pool, reused across warm
    /// scans and streams. Once warm, copies of it go back into the pool
    /// ([`Member::warm_pool`]), so the serve window starts in steady
    /// state without scanning anything twice.
    pub engine: Box<dyn SessionEngine>,
    /// Cache key the database is registered under.
    pub key: u64,
    /// Reference report stream; filled by [`Setup::prepare`].
    pub expected: Digest,
}

impl Member {
    /// The member's automaton.
    pub fn automaton(&self) -> &Automaton {
        self.db.automaton()
    }

    /// Puts `engines` copies of the (by now warm) in-process engine into
    /// the database's pool: one per session the clients can have open
    /// at once, so the serve window never draws a cold engine and pays
    /// its lazy-DFA construction inside a timed FEED.
    pub fn warm_pool(&self, engines: usize) {
        for _ in 0..engines {
            self.db.checkin(self.engine.clone_session());
        }
    }
}

/// The in-process server and the client connections to it.
pub struct ServeHarness {
    /// The service behind the server (also driven directly, socket-free,
    /// by the per-layer pass).
    pub svc: Arc<ScanService>,
    /// One stream per client connection.
    pub conns: Vec<UnixStream>,
    sock: PathBuf,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl ServeHarness {
    /// Replaces the client connections with fresh ones (and so the
    /// server's connection threads): each serve window gets its own, so
    /// one unlucky placement of those threads on the cores cannot last a
    /// whole run.
    pub fn reconnect(&mut self) {
        self.conns.clear();
        self.conns.extend(
            (0..CONNECTIONS)
                .map(|_| UnixStream::connect(&self.sock).expect("reconnect to the server")),
        );
    }

    /// Stops the accept loop, waits for the server thread, and removes
    /// the socket file. Connection threads end when `conns` drop.
    pub fn shutdown(mut self) {
        self.conns.clear();
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            match t.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => eprintln!("azoo-perf: server exited with {e}"),
                Err(_) => eprintln!("azoo-perf: server thread panicked"),
            }
        }
        let _ = std::fs::remove_file(&self.sock);
    }
}

/// A workload set up and ready to measure.
pub struct Setup {
    /// The roster, in roster order.
    pub members: Vec<Member>,
    /// The server every member is registered with.
    pub serve: ServeHarness,
}

/// Directory for the socket and span files: where the executable lives
/// (the build directory, inside the checkout and ignored by git), made
/// relative to the working directory when possible so the socket path
/// stays short.
pub fn scratch_dir() -> PathBuf {
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."));
    match std::env::current_dir() {
        Ok(cwd) => exe_dir
            .strip_prefix(&cwd)
            .map(PathBuf::from)
            .unwrap_or(exe_dir),
        Err(_) => exe_dir,
    }
}

/// Builds one member: generate, select, compile for serving.
fn build_member(timer: &mut Timer, id: BenchmarkId, scale: Scale, seed: u64) -> Member {
    let op = id as u64;
    let ((automaton, input), _) =
        timer.op("zoo.generate", op, || roster::build_member(id, scale, seed));
    let ((choice, reason, proto), _) = timer.op("engines.select", op, || {
        select_session_engine_explained(&automaton).expect("zoo automata are valid")
    });
    let (db, _) = timer.op("serve.db.compile", op, || {
        Db::compile(automaton, DbConfig::default()).expect("zoo automata compile")
    });
    // The database runs the same selector; were the two ever to part,
    // in-process and served numbers would describe different engines.
    assert_eq!(
        db.engine_choice(),
        choice,
        "{}: Db and selector disagree",
        id.name()
    );
    let (engine, _) = timer.op("serve.db.checkout", op, || db.checkout());
    Member {
        id,
        input,
        choice,
        reason,
        proto,
        key: db.cache_key(),
        engine,
        db,
        expected: Digest::default(),
    }
}

/// Sets the whole workload up. Everything in here is `setup_s`.
///
/// # Panics
///
/// When the socket cannot be bound or connected: nothing can be
/// measured then.
pub fn setup(timer: &mut Timer, w: &Workload, scale: Scale, seed: u64) -> Setup {
    timer.enter("setup", 0);
    let members: Vec<Member> = w
        .members
        .iter()
        .map(|&id| build_member(timer, id, scale, seed))
        .collect();

    let svc = ScanService::new(ServeLimits::default());
    for m in &members {
        let (key, _) = timer.op("serve.service.register_db", m.id as u64, || {
            svc.register_db(m.db.clone())
        });
        debug_assert_eq!(key, m.key);
    }
    // Unique per set-up, so concurrent tests in one process do not share.
    static NEXT_SOCKET: AtomicU32 = AtomicU32::new(0);
    let sock = scratch_dir().join(format!(
        "azoo-perf-{}-{}.sock",
        std::process::id(),
        NEXT_SOCKET.fetch_add(1, Ordering::Relaxed)
    ));
    let (listener, _) = timer.op("serve.server.bind", 0, || {
        Listener::bind_unix(&sock).expect("bind the benchmark's unix socket")
    });
    let server = Server::new(svc.clone(), listener);
    let shutdown = server.shutdown_flag();
    let thread = std::thread::spawn(move || server.run());
    let (conns, _) = timer.op("serve.server.connect", 0, || {
        (0..CONNECTIONS)
            .map(|_| UnixStream::connect(&sock).expect("connect to the benchmark's server"))
            .collect()
    });
    timer.exit();
    Setup {
        members,
        serve: ServeHarness {
            svc,
            conns,
            sock,
            shutdown,
            thread: Some(thread),
        },
    }
}

/// The reference report stream: sparse NFA simulation with the
/// quiescent skip off, the slowest and plainest path through the
/// portfolio.
pub fn baseline(a: &Automaton, input: &[u8]) -> Digest {
    let mut nfa = NfaEngine::new(a).expect("zoo automata are valid");
    nfa.set_quiescent_skip(false);
    let mut digest = Digest::default();
    nfa.scan(input, &mut digest);
    digest
}

impl Setup {
    /// Oracle work between set-up and the first timed operation, outside
    /// `setup_s`: computes every member's reference digest and, at seed
    /// 0, checks it against `expected.json`.
    ///
    /// Returns `(checks made, checks failed)`.
    pub fn prepare(&mut self, scale: Scale, seed: u64) -> (u64, u64) {
        let (mut attempted, mut failed) = (0, 0);
        for m in &mut self.members {
            m.expected = baseline(m.db.automaton(), &m.input);
            if seed == 0 {
                attempted += 1;
                if crate::expected::pinned(scale, m.id) != Some(m.expected) {
                    eprintln!(
                        "azoo-perf: {} differs from expected.json ({} reports, digest {:016x})",
                        m.id.name(),
                        m.expected.count,
                        m.expected.sum
                    );
                    failed += 1;
                }
            }
        }
        (attempted, failed)
    }
}
