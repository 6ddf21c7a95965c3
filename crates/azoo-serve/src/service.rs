//! The multi-tenant scan service: session pool + admission control.
//!
//! # Session lifecycle
//!
//! ```text
//!            open ──────► Streaming ──feed(eod)──► Finished
//!                             │                        │
//!                       deadline hit                 close
//!                             ▼                        │
//!                         Cancelled ───────close───────┘
//! ```
//!
//! * `open` checks the global and per-tenant session quotas, checks an
//!   executor out of the database's free list and registers the session.
//! * `feed` runs admission control (bytes-in-flight quotas, report
//!   buffer backpressure, deadline), scans the chunk and buffers the
//!   reports; `eod = true` finishes the stream.
//! * `drain` hands the buffered reports to the caller and frees the
//!   buffer (the backpressure release valve).
//! * `close` unregisters the session and returns its executor to the
//!   free list (quiesced via [`SessionEngine`]'s `reset`).
//!
//! # Backpressure policy
//!
//! Admission is fail-fast and typed — a rejected call changes *nothing*
//! except a metrics counter, and never touches another session:
//!
//! | pressure                    | bound                            | rejection            |
//! |-----------------------------|----------------------------------|----------------------|
//! | total open sessions         | `max_sessions`                   | `Overloaded`         |
//! | tenant open sessions        | `max_sessions_per_tenant`        | `QuotaExceeded`      |
//! | total scan bytes in flight  | `max_bytes_in_flight`            | `Overloaded`         |
//! | tenant scan bytes in flight | `max_bytes_in_flight_per_tenant` | `QuotaExceeded`      |
//! | undrained session reports   | `max_buffered_reports`           | `QuotaExceeded`      |
//! | lock wait before a feed     | `feed_deadline`                  | `TimedOut` + cancel  |
//!
//! The deadline is the one non-local policy: a session whose feed waited
//! past the deadline is *cancelled* (its stream cannot be trusted to
//! resume mid-chunk), its executor is recycled, and every later feed
//! gets the deterministic [`ServeError::Cancelled`]. Other sessions are
//! untouched.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use azoo_engines::{Report, SessionEngine};
use azoo_sync::{ranks, sched, OrderedMutex};

use crate::db::{Db, DbCache, DbConfig, DbError};
use crate::metrics::MetricsRegistry;

/// Session identifier handed out by [`ScanService::open`].
pub type SessionId = u64;

/// Session-map shards; bounds lock contention with thousands of
/// sessions while keeping lookup O(1).
const SHARDS: usize = 16;

/// Admission-control quotas. `Default` is sized for a test-scale
/// deployment; servers configure explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeLimits {
    /// Open sessions across all tenants.
    pub max_sessions: usize,
    /// Open sessions per tenant.
    pub max_sessions_per_tenant: usize,
    /// Scan bytes admitted but not yet scanned, across all tenants.
    pub max_bytes_in_flight: u64,
    /// Scan bytes in flight per tenant.
    pub max_bytes_in_flight_per_tenant: u64,
    /// Undrained reports a session may buffer before feeds are refused.
    pub max_buffered_reports: usize,
    /// How long a feed may wait for its session before the session is
    /// cancelled; `None` disables the deadline.
    pub feed_deadline: Option<Duration>,
}

impl Default for ServeLimits {
    fn default() -> Self {
        ServeLimits {
            max_sessions: 4096,
            max_sessions_per_tenant: 1024,
            max_bytes_in_flight: 64 << 20,
            max_bytes_in_flight_per_tenant: 16 << 20,
            max_buffered_reports: 1 << 20,
            feed_deadline: None,
        }
    }
}

/// Typed, deterministic service rejections and failures.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// A global capacity bound was hit; retry after load drops.
    Overloaded {
        /// Which bound: `"sessions"` or `"bytes"`.
        resource: &'static str,
    },
    /// A per-tenant or per-session bound was hit.
    QuotaExceeded {
        /// The tenant whose quota was exhausted.
        tenant: String,
        /// Which bound: `"sessions"`, `"bytes"` or `"report-buffer"`.
        resource: &'static str,
    },
    /// The feed waited past the deadline; the session is now cancelled.
    TimedOut,
    /// No session with this id is open.
    UnknownSession(SessionId),
    /// The stream already saw `eod`; only `drain` and `close` remain.
    StreamFinished(SessionId),
    /// The session was cancelled by a deadline; only `drain` and
    /// `close` remain.
    Cancelled(SessionId),
    /// Database resolution failed.
    Db(DbError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { resource } => write!(f, "service overloaded ({resource})"),
            ServeError::QuotaExceeded { tenant, resource } => {
                write!(f, "tenant {tenant:?} exceeded its {resource} quota")
            }
            ServeError::TimedOut => write!(f, "feed deadline exceeded; session cancelled"),
            ServeError::UnknownSession(sid) => write!(f, "unknown session {sid}"),
            ServeError::StreamFinished(sid) => write!(f, "session {sid} already saw end-of-data"),
            ServeError::Cancelled(sid) => write!(f, "session {sid} was cancelled"),
            ServeError::Db(e) => write!(f, "database error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Db(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DbError> for ServeError {
    fn from(e: DbError) -> Self {
        ServeError::Db(e)
    }
}

/// Per-tenant admission gauges, shared by all of the tenant's sessions.
#[derive(Default)]
struct TenantState {
    open_sessions: AtomicU64,
    bytes_in_flight: AtomicU64,
}

enum Phase {
    Streaming,
    Finished,
    Cancelled,
}

/// Per-stream state: an executor on loan from the database pool plus
/// the undrained report buffer.
struct SessionInner {
    tenant_name: String,
    tenant: Arc<TenantState>,
    db: Arc<Db>,
    engine: Option<Box<dyn SessionEngine>>,
    reports: Vec<Report>,
    phase: Phase,
    fed_bytes: u64,
}

/// Rank SERVE_SESSION: held across the scan and across engine check-in
/// (→ DB_POOL) and tenant release (→ SERVE_TENANTS) — the only two
/// nested acquisitions in the service.
type SessionHandle = Arc<OrderedMutex<SessionInner>>;

/// Summary returned by [`ScanService::close`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Raw client bytes fed over the session's lifetime.
    pub fed_bytes: u64,
    /// Reports left undrained at close (discarded).
    pub undrained_reports: usize,
}

/// The embeddable scan service. See the module docs for lifecycle and
/// backpressure semantics.
pub struct ScanService {
    limits: ServeLimits,
    metrics: Arc<MetricsRegistry>,
    cache: DbCache,
    /// Rank SERVE_SHARD, shared by all 16 shards: no path may hold two
    /// shards at once, and the equal-rank check enforces exactly that.
    shards: Vec<OrderedMutex<HashMap<SessionId, SessionHandle>>>,
    next_sid: AtomicU64,
    /// Key for the sid bijection: sids must be unique like a counter but
    /// not enumerable across connections (defense-in-depth under the
    /// server's per-connection ownership check).
    sid_seed: u64,
    open_sessions: AtomicU64,
    bytes_in_flight: AtomicU64,
    /// Rank SERVE_TENANTS: acquired bare (open path) or while a session
    /// lock is held (close path); acquires nothing itself.
    tenants: OrderedMutex<HashMap<String, Arc<TenantState>>>,
}

impl ScanService {
    /// A service with the given quotas and a fresh metrics registry.
    pub fn new(limits: ServeLimits) -> Arc<ScanService> {
        // No RNG crate in the tree: mix clock nanos with an ASLR-shifted
        // stack address. Weak as a cryptographic seed, but sids only need
        // to be non-enumerable, and the server enforces ownership anyway.
        let clock = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e37_79b9_7f4a_7c15);
        let stack = std::ptr::addr_of!(limits) as u64;
        Arc::new(ScanService {
            limits,
            metrics: Arc::new(MetricsRegistry::new()),
            cache: DbCache::new(),
            shards: (0..SHARDS)
                .map(|_| OrderedMutex::new(ranks::SERVE_SHARD, HashMap::new()))
                .collect(),
            next_sid: AtomicU64::new(1),
            sid_seed: splitmix64(clock ^ stack.rotate_left(32)),
            open_sessions: AtomicU64::new(0),
            bytes_in_flight: AtomicU64::new(0),
            tenants: OrderedMutex::new(ranks::SERVE_TENANTS, HashMap::new()),
        })
    }

    /// The service's metrics registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The configured quotas.
    pub fn limits(&self) -> &ServeLimits {
        &self.limits
    }

    /// Registers a compiled database in the cache; returns its key.
    pub fn register_db(&self, db: Arc<Db>) -> u64 {
        self.cache.insert(db)
    }

    /// Looks up a cached database by key, counting a hit or miss.
    pub fn db_by_key(&self, key: u64) -> Option<Arc<Db>> {
        let found = self.cache.get(key);
        match &found {
            Some(_) => self.metrics.record_cache_hit(),
            None => self.metrics.record_cache_miss(),
        }
        found
    }

    /// Resolves a serialized artifact through the cache (header-keyed
    /// and byte-fingerprinted; full verify-and-compile whenever the
    /// bytes are not the ones the cached entry was verified against).
    ///
    /// # Errors
    ///
    /// [`ServeError::Db`] for any artifact or compile failure.
    pub fn db_from_artifact(&self, bytes: &[u8]) -> Result<Arc<Db>, ServeError> {
        let (db, hit) = self.cache.get_or_load(bytes)?;
        if hit {
            self.metrics.record_cache_hit();
        } else {
            self.metrics.record_cache_miss();
        }
        Ok(db)
    }

    /// Resolves the per-session edit-distance variant of `db`: with
    /// `max_edits == 0` the base database serves as-is; otherwise its
    /// source machine is fuzzified at that distance (the protocol pins
    /// the Levenshtein cost model) and compiled once, with the derived
    /// database cached so every later open at the same distance shares
    /// one mesh and one engine pool.
    ///
    /// # Errors
    ///
    /// [`ServeError::Db`] when the distance exceeds the encodable
    /// maximum or the base machine cannot be fuzzified (already a mesh,
    /// fan-out, chains shorter than the budget, ...).
    pub fn db_at_distance(&self, db: &Arc<Db>, max_edits: u8) -> Result<Arc<Db>, ServeError> {
        if max_edits == 0 {
            return Ok(db.clone());
        }
        // Keyed off the *base* database: the derived machine's own
        // content hash is unknown until it is built, and rebuilding it
        // just to compute a key would defeat the cache.
        let key = splitmix64(db.cache_key() ^ ((u64::from(max_edits) << 56) | 0xF022));
        if let Some(found) = self.cache.get(key) {
            self.metrics.record_cache_hit();
            return Ok(found);
        }
        self.metrics.record_cache_miss();
        let derived = Db::compile(db.automaton().clone(), DbConfig { max_edits })?;
        self.cache.insert_under(key, derived.clone());
        Ok(derived)
    }

    /// Opens a session for `tenant` over `db`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] at the global session cap,
    /// [`ServeError::QuotaExceeded`] at the tenant's.
    pub fn open(&self, tenant: &str, db: &Arc<Db>) -> Result<SessionId, ServeError> {
        // Global gauge first: reserve, verify, roll back on failure.
        let now = self.open_sessions.fetch_add(1, Ordering::SeqCst) + 1;
        if now as usize > self.limits.max_sessions {
            sched::point("open:rollback");
            self.open_sessions.fetch_sub(1, Ordering::SeqCst);
            self.metrics.record_rejected_open();
            return Err(ServeError::Overloaded {
                resource: "sessions",
            });
        }
        sched::point("open:reserved");
        let tstate = match self.tenant_acquire(tenant) {
            Ok(t) => t,
            Err(e) => {
                sched::point("open:rollback");
                self.open_sessions.fetch_sub(1, Ordering::SeqCst);
                self.metrics.record_rejected_open();
                return Err(e);
            }
        };

        let mut engine = db.checkout();
        engine.reset_stream();
        // A keyed bijection over the counter: as collision-free as the
        // counter itself, but sids are not guessable from one another.
        let sid = splitmix64(self.next_sid.fetch_add(1, Ordering::Relaxed) ^ self.sid_seed);
        let inner = Arc::new(OrderedMutex::new(
            ranks::SERVE_SESSION,
            SessionInner {
                tenant_name: tenant.into(),
                tenant: tstate,
                db: db.clone(),
                engine: Some(engine),
                reports: Vec::new(),
                phase: Phase::Streaming,
                fed_bytes: 0,
            },
        ));
        self.shards[shard_of(sid)].lock().insert(sid, inner);
        self.metrics.record_session_open();
        Ok(sid)
    }

    /// Feeds one chunk into a session; `eod` finishes the stream (an
    /// empty `eod` chunk is the explicit end-of-data marker). Returns
    /// the number of reports this feed appended to the session buffer.
    ///
    /// # Errors
    ///
    /// Any [`ServeError`]; rejections leave the session untouched
    /// except [`ServeError::TimedOut`], which cancels it.
    pub fn feed(&self, sid: SessionId, chunk: &[u8], eod: bool) -> Result<usize, ServeError> {
        let len = chunk.len() as u64;
        // Global bytes-in-flight: reserve, verify, roll back.
        let now = self.bytes_in_flight.fetch_add(len, Ordering::SeqCst) + len;
        if now > self.limits.max_bytes_in_flight {
            self.bytes_in_flight.fetch_sub(len, Ordering::SeqCst);
            self.metrics.record_rejected_feed();
            return Err(ServeError::Overloaded { resource: "bytes" });
        }
        let release_global = || {
            self.bytes_in_flight.fetch_sub(len, Ordering::SeqCst);
        };
        sched::point("feed:reserved");

        let handle = match self.session(sid) {
            Some(h) => h,
            None => {
                release_global();
                return Err(ServeError::UnknownSession(sid));
            }
        };
        sched::point("feed:lock");

        let wait_start = Instant::now();
        let mut inner = handle.lock();
        match inner.phase {
            Phase::Streaming => {}
            Phase::Finished => {
                release_global();
                return Err(ServeError::StreamFinished(sid));
            }
            Phase::Cancelled => {
                release_global();
                return Err(ServeError::Cancelled(sid));
            }
        }
        if let Some(deadline) = self.limits.feed_deadline {
            if wait_start.elapsed() > deadline {
                // The caller's feed window is gone; the stream cannot be
                // trusted to resume, so cancel deterministically. The
                // executor goes back to the pool quiesced.
                inner.phase = Phase::Cancelled;
                if let Some(engine) = inner.engine.take() {
                    inner.db.checkin(engine);
                }
                release_global();
                self.metrics.record_timeout();
                return Err(ServeError::TimedOut);
            }
        }
        // Tenant bytes-in-flight quota.
        let tnow = inner
            .tenant
            .bytes_in_flight
            .fetch_add(len, Ordering::SeqCst)
            + len;
        if tnow > self.limits.max_bytes_in_flight_per_tenant {
            inner
                .tenant
                .bytes_in_flight
                .fetch_sub(len, Ordering::SeqCst);
            release_global();
            self.metrics.record_rejected_feed();
            return Err(ServeError::QuotaExceeded {
                tenant: inner.tenant_name.clone(),
                resource: "bytes",
            });
        }
        let release_tenant = |inner: &SessionInner| {
            inner
                .tenant
                .bytes_in_flight
                .fetch_sub(len, Ordering::SeqCst);
        };
        // Report-buffer backpressure: refuse new work until drained.
        if inner.reports.len() >= self.limits.max_buffered_reports {
            release_tenant(&inner);
            release_global();
            self.metrics.record_rejected_feed();
            return Err(ServeError::QuotaExceeded {
                tenant: inner.tenant_name.clone(),
                resource: "report-buffer",
            });
        }

        // Admitted: scan.
        let inner = &mut *inner;
        let before = inner.reports.len();
        let t0 = Instant::now();
        let Some(engine) = inner.engine.as_mut() else {
            // Terminal phases are caught above and every path that takes
            // the engine sets one first, so this cannot happen — but a
            // panic here would leak the in-flight gauges and the caller's
            // session quota, so degrade to the typed error instead.
            release_tenant(inner);
            release_global();
            return Err(ServeError::Cancelled(sid));
        };
        engine.feed(chunk, eod, &mut inner.reports);
        let nanos = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let emitted = inner.reports.len() - before;
        inner.fed_bytes += len;
        if eod {
            inner.phase = Phase::Finished;
        }
        inner
            .tenant
            .bytes_in_flight
            .fetch_sub(len, Ordering::SeqCst);
        release_global();
        self.metrics.record_feed(len, emitted as u64, nanos);
        Ok(emitted)
    }

    /// Drains the session's buffered reports (in emission order),
    /// releasing report-buffer backpressure.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`].
    pub fn drain(&self, sid: SessionId) -> Result<Vec<Report>, ServeError> {
        let handle = self.session(sid).ok_or(ServeError::UnknownSession(sid))?;
        let mut inner = handle.lock();
        Ok(std::mem::take(&mut inner.reports))
    }

    /// Closes a session, returning its executor to the database pool.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`].
    pub fn close(&self, sid: SessionId) -> Result<SessionStats, ServeError> {
        sched::point("close:remove");
        let handle = self.shards[shard_of(sid)]
            .lock()
            .remove(&sid)
            .ok_or(ServeError::UnknownSession(sid))?;
        sched::point("close:lock");
        let mut inner = handle.lock();
        // A feed that cloned the handle before the map removal is waiting
        // on this lock: it must see a terminal phase, not a Streaming
        // session with its engine missing.
        inner.phase = Phase::Finished;
        if let Some(engine) = inner.engine.take() {
            inner.db.checkin(engine);
        }
        self.tenant_release(&inner.tenant_name);
        self.open_sessions.fetch_sub(1, Ordering::SeqCst);
        self.metrics.record_session_close();
        Ok(SessionStats {
            fed_bytes: inner.fed_bytes,
            undrained_reports: inner.reports.len(),
        })
    }

    /// Sessions currently open.
    pub fn session_count(&self) -> usize {
        self.open_sessions.load(Ordering::SeqCst) as usize
    }

    /// Scan bytes currently admitted but not yet scanned (0 when idle —
    /// the overload test asserts rejections leak nothing).
    pub fn bytes_in_flight(&self) -> u64 {
        self.bytes_in_flight.load(Ordering::SeqCst)
    }

    /// Tenants with admission state right now (0 when idle — tenant
    /// names are attacker-chosen, so the map must not outlive the
    /// sessions that justify its entries).
    pub fn tenant_count(&self) -> usize {
        self.tenants.lock().len()
    }

    /// Registers one more open session for `tenant`, creating its state
    /// on first use. Session-count mutations happen only under the
    /// tenants lock so [`Self::tenant_release`] can drop a tenant's
    /// entry exactly when its last session closes.
    fn tenant_acquire(&self, tenant: &str) -> Result<Arc<TenantState>, ServeError> {
        let mut tenants = self.tenants.lock();
        let state = tenants.entry(tenant.to_string()).or_default().clone();
        let tnow = state.open_sessions.fetch_add(1, Ordering::SeqCst) + 1;
        if tnow as usize > self.limits.max_sessions_per_tenant {
            state.open_sessions.fetch_sub(1, Ordering::SeqCst);
            if state.open_sessions.load(Ordering::SeqCst) == 0 {
                tenants.remove(tenant);
            }
            return Err(ServeError::QuotaExceeded {
                tenant: tenant.into(),
                resource: "sessions",
            });
        }
        Ok(state)
    }

    /// Releases one open session for `tenant`, dropping its admission
    /// state when the count returns to zero so attacker-chosen tenant
    /// names cannot grow the map without bound.
    fn tenant_release(&self, tenant: &str) {
        let mut tenants = self.tenants.lock();
        if let Some(state) = tenants.get(tenant) {
            if state.open_sessions.fetch_sub(1, Ordering::SeqCst) == 1 {
                tenants.remove(tenant);
            }
        }
    }

    fn session(&self, sid: SessionId) -> Option<SessionHandle> {
        self.shards[shard_of(sid)].lock().get(&sid).cloned()
    }
}

/// The splitmix64 finalizer: a bijection on `u64`, used to key sids.
fn splitmix64(seed: u64) -> u64 {
    let mut x = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn shard_of(sid: SessionId) -> usize {
    (sid as usize) % SHARDS
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::db::DbConfig;
    use azoo_core::{Automaton, StartKind, SymbolClass};

    fn ab_db() -> Arc<Db> {
        let mut a = Automaton::new();
        let s = a.add_ste(SymbolClass::from_byte(b'a'), StartKind::AllInput);
        let t = a.add_ste(SymbolClass::from_byte(b'b'), StartKind::None);
        a.add_edge(s, t);
        a.set_report(t, 42);
        Db::compile(a, DbConfig::default()).expect("compile")
    }

    #[test]
    fn open_feed_drain_close() {
        let svc = ScanService::new(ServeLimits::default());
        let db = ab_db();
        let sid = svc.open("t1", &db).expect("open");
        assert_eq!(svc.feed(sid, b"xabxab", false).expect("feed"), 2);
        assert_eq!(svc.feed(sid, b"", true).expect("eod"), 0);
        let reports = svc.drain(sid).expect("drain");
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].offset, 2);
        assert_eq!(reports[1].offset, 5);
        let stats = svc.close(sid).expect("close");
        assert_eq!(stats.fed_bytes, 6);
        assert_eq!(stats.undrained_reports, 0);
        assert_eq!(svc.session_count(), 0);
        assert_eq!(svc.bytes_in_flight(), 0);
        assert_eq!(db.pooled(), 1, "executor returned to the free list");
    }

    #[test]
    fn feed_after_eod_is_typed() {
        let svc = ScanService::new(ServeLimits::default());
        let db = ab_db();
        let sid = svc.open("t1", &db).expect("open");
        svc.feed(sid, b"ab", true).expect("feed");
        assert_eq!(
            svc.feed(sid, b"ab", false),
            Err(ServeError::StreamFinished(sid))
        );
        // Drain and close still work.
        assert_eq!(svc.drain(sid).expect("drain").len(), 1);
        svc.close(sid).expect("close");
    }

    #[test]
    fn unknown_session_is_typed() {
        let svc = ScanService::new(ServeLimits::default());
        assert_eq!(
            svc.feed(99, b"x", false),
            Err(ServeError::UnknownSession(99))
        );
        assert_eq!(svc.drain(99).unwrap_err(), ServeError::UnknownSession(99));
        assert_eq!(svc.close(99).unwrap_err(), ServeError::UnknownSession(99));
        assert_eq!(svc.bytes_in_flight(), 0);
    }

    #[test]
    fn tenant_state_is_dropped_with_its_last_session() {
        let svc = ScanService::new(ServeLimits::default());
        let db = ab_db();
        // Attacker-style: every open uses a fresh tenant name.
        for i in 0..64 {
            let sid = svc.open(&format!("tenant-{i}"), &db).expect("open");
            svc.close(sid).expect("close");
        }
        assert_eq!(
            svc.tenant_count(),
            0,
            "idle service must hold no tenant state"
        );
        // Two sessions, one tenant: the entry lives until the *last* close.
        let s1 = svc.open("t", &db).expect("open");
        let s2 = svc.open("t", &db).expect("open");
        assert_eq!(svc.tenant_count(), 1);
        svc.close(s1).expect("close");
        assert_eq!(svc.tenant_count(), 1);
        svc.close(s2).expect("close");
        assert_eq!(svc.tenant_count(), 0);
        // A rejected open of a brand-new tenant must not leave an entry.
        let limits = ServeLimits {
            max_sessions_per_tenant: 0,
            ..ServeLimits::default()
        };
        let svc = ScanService::new(limits);
        assert!(matches!(
            svc.open("fresh", &db),
            Err(ServeError::QuotaExceeded { .. })
        ));
        assert_eq!(svc.tenant_count(), 0);
    }

    #[test]
    fn concurrent_close_and_feed_leak_nothing() {
        // The close/feed race: a feed that grabbed the session handle
        // right before close removed it must get a typed error, never
        // panic, and must release every in-flight gauge.
        let svc = ScanService::new(ServeLimits::default());
        let db = ab_db();
        for _ in 0..200 {
            let sid = svc.open("t", &db).expect("open");
            let svc2 = svc.clone();
            let feeder = std::thread::spawn(move || match svc2.feed(sid, b"xabxab", false) {
                Ok(_) | Err(ServeError::UnknownSession(_)) | Err(ServeError::StreamFinished(_)) => {
                }
                Err(other) => panic!("unexpected feed error: {other:?}"),
            });
            svc.close(sid).expect("close");
            feeder.join().expect("feeder thread must not panic");
        }
        assert_eq!(svc.session_count(), 0);
        assert_eq!(svc.bytes_in_flight(), 0);
        assert_eq!(svc.tenant_count(), 0);
    }

    #[test]
    fn sessions_share_one_pool() {
        let svc = ScanService::new(ServeLimits::default());
        let db = ab_db();
        let s1 = svc.open("t1", &db).expect("open");
        let s2 = svc.open("t2", &db).expect("open");
        svc.feed(s1, b"ab", true).expect("feed");
        svc.feed(s2, b"xxab", true).expect("feed");
        assert_eq!(svc.drain(s1).expect("drain")[0].offset, 1);
        assert_eq!(svc.drain(s2).expect("drain")[0].offset, 3);
        svc.close(s1).expect("close");
        svc.close(s2).expect("close");
        assert_eq!(db.pooled(), 2);
        // Reopening reuses a pooled executor rather than cloning.
        let s3 = svc.open("t1", &db).expect("open");
        assert_eq!(db.pooled(), 1);
        svc.close(s3).expect("close");
    }
}
