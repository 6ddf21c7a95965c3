//! Compiled-database artifacts and the shared in-memory cache.
//!
//! A [`Db`] is the unit a serving deployment distributes: one automaton,
//! compiled once through the engine portfolio, plus the edit budget it
//! was compiled at. Every served machine reads raw client bytes: the
//! paper's input transformations (16-bit widening, 8-striding) are
//! applied when the zoo builds the benchmark, not when bytes are fed.
//! Its serialized form is versioned and self-verifying:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "AZDB"
//! 4       4     format version (u32 LE) — DB_FORMAT_VERSION
//! 8       4     content-hash scheme version (u32 LE) — HASH_VERSION
//! 12      8     automaton content hash (u64 LE)
//! 20      1     edit budget (0..=MAX_EDITS)
//! 21      4     payload length (u32 LE)
//! 25      n     payload: MNRL JSON of the automaton
//! ```
//!
//! A non-zero [`DbConfig::max_edits`] makes [`Db::compile`] replace each
//! literal chain of the source machine with its Levenshtein mesh
//! (`azoo_fuzzy::fuzzify`, under the protocol's pinned
//! [`EditProfile::LEVENSHTEIN`] cost model) *before* hashing and
//! serializing, so the stored content hash and payload describe the
//! machine that actually serves traffic and [`Db::deserialize`] never
//! re-fuzzifies. The edit-budget byte records the provenance and keeps
//! the cache key distinct from an exact compile of the same source; a
//! budget above [`MAX_EDITS`] is [`DbError::BadEdits`]. To serve a
//! reduced machine, run `azoo_passes::reduce` before `compile`: the
//! reduced machine has its own content hash, hence its own cache key.
//!
//! Load rules, in check order: wrong magic → [`DbError::BadMagic`];
//! any header or payload shorter than declared → [`DbError::Truncated`];
//! other format or hash-scheme version → [`DbError::VersionMismatch`]
//! (old artifacts are *misses*, recompile and re-publish); edit budget
//! above [`MAX_EDITS`] → [`DbError::BadEdits`]; stored content hash ≠
//! hash recomputed over the decoded automaton → [`DbError::HashMismatch`]
//! (corruption or tampering — never served).
//! Every error is typed; no load path panics. The [`DbCache`] hit path
//! upholds the same guarantee by fingerprinting the raw artifact bytes:
//! bytes that differ from the verified artifact take the full load path
//! and fail its checks rather than being answered from the cache.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use azoo_core::{content_hash, mnrl, Automaton, CoreError, HASH_VERSION};
use azoo_engines::{select_session_engine, EngineChoice, EngineError, SessionEngine};
use azoo_fuzzy::{fuzzify, EditProfile, FuzzyError, MAX_EDITS};
use azoo_sync::{ranks, sched, OrderedMutex};

/// Current artifact format version. Artifacts of any other version are
/// typed misses: recompile and re-publish.
pub const DB_FORMAT_VERSION: u32 = 4;

const DB_MAGIC: [u8; 4] = *b"AZDB";
const HEADER_LEN: usize = 25;

/// Recycled engines kept per database; checkouts past this bound fall
/// back to cloning the prototype (bounded memory beats unbounded reuse).
const POOL_CAP: usize = 1024;

/// What a client can ask of a [`Db`]: the edit budget it matches at.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbConfig {
    /// Approximate-matching edit budget, `0..=MAX_EDITS`. Non-zero makes
    /// [`Db::compile`] fuzzify every literal chain of the source machine
    /// into its Levenshtein mesh; the artifact stores the mesh and its
    /// budget, so loading never re-fuzzifies.
    pub max_edits: u8,
}

/// Typed artifact-load and compile failures.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DbError {
    /// The artifact does not begin with the `AZDB` magic.
    BadMagic,
    /// The artifact is shorter than its headers declare.
    Truncated,
    /// Format or hash-scheme version differs from this build's.
    VersionMismatch {
        /// Version stored in the artifact.
        found: u32,
        /// Version this build writes.
        expected: u32,
    },
    /// Stored content hash does not match the decoded payload.
    HashMismatch {
        /// Hash stored in the artifact header.
        stored: u64,
        /// Hash recomputed from the decoded automaton.
        computed: u64,
    },
    /// Requested or stored edit budget above [`azoo_fuzzy::MAX_EDITS`].
    BadEdits(u8),
    /// No cached database under this key.
    UnknownKey(u64),
    /// The payload failed MNRL parsing.
    Core(CoreError),
    /// The automaton failed engine compilation or validation.
    Engine(EngineError),
    /// The source machine could not be fuzzified at the requested edit
    /// budget (not chain-shaped, chain shorter than the budget, ...).
    Fuzzy(FuzzyError),
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::BadMagic => write!(f, "artifact is not an AZDB database"),
            DbError::Truncated => write!(f, "artifact truncated"),
            DbError::VersionMismatch { found, expected } => {
                write!(f, "artifact version {found}, this build reads {expected}")
            }
            DbError::HashMismatch { stored, computed } => write!(
                f,
                "content hash mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            DbError::BadEdits(edits) => {
                write!(f, "edit budget {edits} exceeds the maximum of {MAX_EDITS}")
            }
            DbError::UnknownKey(key) => write!(f, "no cached database under key {key:#018x}"),
            DbError::Core(e) => write!(f, "payload error: {e}"),
            DbError::Engine(e) => write!(f, "compile error: {e}"),
            DbError::Fuzzy(e) => write!(f, "fuzzify error: {e}"),
        }
    }
}

impl std::error::Error for DbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbError::Core(e) => Some(e),
            DbError::Engine(e) => Some(e),
            DbError::Fuzzy(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for DbError {
    fn from(e: CoreError) -> Self {
        DbError::Core(e)
    }
}

impl From<EngineError> for DbError {
    fn from(e: EngineError) -> Self {
        DbError::Engine(e)
    }
}

impl From<FuzzyError> for DbError {
    fn from(e: FuzzyError) -> Self {
        DbError::Fuzzy(e)
    }
}

/// A compiled, shareable scan database.
///
/// `Arc<Db>`-shared across sessions: the automaton, its artifact bytes
/// and the engine prototype are compiled once; each session checks a
/// pooled executor out of the free list ([`Db::checkout`]) and returns
/// it quiesced on close ([`Db::checkin`]), so steady-state session churn
/// performs no compilation and no allocation.
pub struct Db {
    automaton: Automaton,
    config: DbConfig,
    hash: u64,
    choice: EngineChoice,
    /// Free list of recycled per-session executors (all quiesced).
    /// Rank DB_POOL: acquired while a session lock is held (close and
    /// feed-timeout check-in), never while holding anything higher.
    pool: OrderedMutex<Vec<Box<dyn SessionEngine>>>,
    /// Pristine executor the pool grows from; never circulated.
    /// Rank DB_PROTO: leaf lock, acquires nothing.
    proto: OrderedMutex<Box<dyn SessionEngine>>,
}

impl std::fmt::Debug for Db {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Db")
            .field("hash", &format_args!("{:#018x}", self.hash))
            .field("choice", &self.choice)
            .field("config", &self.config)
            .field("states", &self.automaton.state_count())
            .finish()
    }
}

impl Db {
    /// Compiles `automaton` under `config` through the streaming engine
    /// portfolio. With [`DbConfig::max_edits`] non-zero, the machine's
    /// literal chains are fuzzified into Levenshtein meshes first, and
    /// the database (hash, payload, engine) is built from the mesh.
    ///
    /// # Errors
    ///
    /// [`DbError::Engine`] when validation or compilation fails,
    /// [`DbError::BadEdits`] for a budget above [`MAX_EDITS`],
    /// [`DbError::Fuzzy`] when the machine cannot be fuzzified.
    pub fn compile(automaton: Automaton, config: DbConfig) -> Result<Arc<Db>, DbError> {
        if config.max_edits > MAX_EDITS {
            return Err(DbError::BadEdits(config.max_edits));
        }
        let automaton = if config.max_edits > 0 {
            // Validate before transforming: fuzzify assumes a well-formed
            // machine, and a broken input should surface as the usual
            // typed error, not a pass artifact.
            automaton.validate()?;
            fuzzify(
                &automaton,
                config.max_edits as usize,
                EditProfile::LEVENSHTEIN,
            )?
            .0
        } else {
            automaton
        };
        Self::finish(automaton, config)
    }

    /// Builds the database around `automaton` as-is — shared tail of
    /// [`Db::compile`] (post-fuzzify) and [`Db::deserialize`] (whose
    /// payload already is the served machine; re-fuzzifying would break
    /// the stored hash's bond with the payload).
    fn finish(automaton: Automaton, config: DbConfig) -> Result<Arc<Db>, DbError> {
        let hash = content_hash(&automaton);
        let (choice, proto) = select_session_engine(&automaton)?;
        Ok(Arc::new(Db {
            automaton,
            config,
            hash,
            choice,
            pool: OrderedMutex::new(ranks::DB_POOL, Vec::new()),
            proto: OrderedMutex::new(ranks::DB_PROTO, proto),
        }))
    }

    /// The automaton's stable content hash (see
    /// [`azoo_core::content_hash`]).
    pub fn content_hash(&self) -> u64 {
        self.hash
    }

    /// Cache key: content hash mixed with the edit budget, so the same
    /// stored machine under a different budget is a distinct cache entry.
    pub fn cache_key(&self) -> u64 {
        Self::mix_key(self.hash, self.config)
    }

    fn mix_key(hash: u64, config: DbConfig) -> u64 {
        // splitmix64-style finalizer, matching azoo-core's mixer.
        let mut x = hash ^ u64::from(config.max_edits).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        x
    }

    /// Which portfolio tier the compile selected.
    pub fn engine_choice(&self) -> EngineChoice {
        self.choice
    }

    /// The serving configuration.
    pub fn config(&self) -> DbConfig {
        self.config
    }

    /// The wrapped automaton.
    pub fn automaton(&self) -> &Automaton {
        &self.automaton
    }

    /// Serializes the database to the versioned artifact format
    /// described in the module docs.
    pub fn serialize(&self) -> Vec<u8> {
        let payload = mnrl::to_json(&self.automaton, "azoo-serve-db");
        let payload = payload.as_bytes();
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&DB_MAGIC);
        out.extend_from_slice(&DB_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&HASH_VERSION.to_le_bytes());
        out.extend_from_slice(&self.hash.to_le_bytes());
        out.push(self.config.max_edits);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// Reads the cache key from an artifact header without decoding or
    /// compiling the payload, so a cache hit skips the expensive path.
    /// Performs the same magic/version checks as a full load.
    ///
    /// # Errors
    ///
    /// [`DbError::BadMagic`], [`DbError::Truncated`],
    /// [`DbError::VersionMismatch`], or [`DbError::BadEdits`].
    pub fn peek_key(bytes: &[u8]) -> Result<u64, DbError> {
        let (hash, config, _) = parse_header(bytes)?;
        Ok(Self::mix_key(hash, config))
    }

    /// Loads an artifact produced by [`Db::serialize`], verifying magic,
    /// versions and content hash before compiling. See the module docs
    /// for the check order.
    ///
    /// # Errors
    ///
    /// Any [`DbError`]; never panics or yields a partially-built `Db`.
    pub fn deserialize(bytes: &[u8]) -> Result<Arc<Db>, DbError> {
        let (stored_hash, config, payload) = parse_header(bytes)?;
        let text = std::str::from_utf8(payload)
            .map_err(|_| DbError::Core(CoreError::Format("payload is not UTF-8".into())))?;
        let automaton = mnrl::from_json(text)?;
        let computed = content_hash(&automaton);
        if computed != stored_hash {
            return Err(DbError::HashMismatch {
                stored: stored_hash,
                computed,
            });
        }
        // The payload *is* the serving machine: for a fuzzy artifact, the
        // mesh was built at compile time. Going through `finish` (not
        // `compile`) keeps the load path from fuzzifying again, which
        // would desynchronize the verified hash from the served states.
        Self::finish(automaton, config)
    }

    /// Checks a quiesced executor out of the free list, cloning the
    /// prototype's compiled tables when the list is empty.
    pub fn checkout(&self) -> Box<dyn SessionEngine> {
        if let Some(engine) = self.pool.lock().pop() {
            return engine;
        }
        self.proto.lock().clone_session()
    }

    /// Returns an executor to the free list, resetting it first (with
    /// the debug-build quiesced assertion) so the next checkout starts
    /// from a provably clean stream state.
    pub fn checkin(&self, mut engine: Box<dyn SessionEngine>) {
        engine.reset();
        let mut pool = self.pool.lock();
        if pool.len() < POOL_CAP {
            pool.push(engine);
        }
    }

    /// Executors currently parked on the free list.
    pub fn pooled(&self) -> usize {
        self.pool.lock().len()
    }
}

/// Parses and checks the fixed header; returns (content hash, config,
/// payload slice).
fn parse_header(bytes: &[u8]) -> Result<(u64, DbConfig, &[u8]), DbError> {
    if bytes.len() < 4 {
        return Err(if DB_MAGIC.starts_with(bytes) {
            DbError::Truncated
        } else {
            DbError::BadMagic
        });
    }
    if bytes[0..4] != DB_MAGIC {
        return Err(DbError::BadMagic);
    }
    if bytes.len() < HEADER_LEN {
        return Err(DbError::Truncated);
    }
    let le32 =
        |at: usize| u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]);
    let version = le32(4);
    if version != DB_FORMAT_VERSION {
        return Err(DbError::VersionMismatch {
            found: version,
            expected: DB_FORMAT_VERSION,
        });
    }
    let hash_version = le32(8);
    if hash_version != HASH_VERSION {
        return Err(DbError::VersionMismatch {
            found: hash_version,
            expected: HASH_VERSION,
        });
    }
    let mut hash_bytes = [0u8; 8];
    hash_bytes.copy_from_slice(&bytes[12..20]);
    let hash = u64::from_le_bytes(hash_bytes);
    let max_edits = bytes[20];
    if max_edits > MAX_EDITS {
        return Err(DbError::BadEdits(max_edits));
    }
    let payload_len = le32(21) as usize;
    let payload = bytes
        .get(HEADER_LEN..HEADER_LEN + payload_len)
        .ok_or(DbError::Truncated)?;
    Ok((hash, DbConfig { max_edits }, payload))
}

/// Shared in-memory database cache, keyed by [`Db::cache_key`].
///
/// N sessions opening the same artifact share one `Arc<Db>` — one
/// compiled machine, one engine pool. Hit/miss counts are plain atomics;
/// the map lock is held only for a hash-map operation.
///
/// The artifact hit path ([`DbCache::get_or_load`]) is only allowed to
/// skip the decode when the presented bytes fingerprint-match the bytes
/// the cached entry was verified against — a tampered payload under a
/// genuine header falls through to the full load and dies on its
/// [`DbError::HashMismatch`] (or parse error) instead of silently
/// borrowing the cached database's credibility.
pub struct DbCache {
    /// Rank DB_CACHE: lowest rank in the workspace — the cache map may
    /// be consulted on any path, so nothing may be held across it.
    map: OrderedMutex<HashMap<u64, CacheEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for DbCache {
    fn default() -> Self {
        DbCache {
            map: OrderedMutex::new(ranks::DB_CACHE, HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

/// One cached database plus what [`DbCache::get_or_load`] may compare
/// presented artifact bytes against.
struct CacheEntry {
    db: Arc<Db>,
    artifact_fp: ArtifactFp,
}

/// The artifact fingerprint of a [`CacheEntry`].
enum ArtifactFp {
    /// Inserted under a derived key: the entry answers only
    /// [`DbCache::get`].
    Never,
    /// Registered locally by [`DbCache::insert`]: its fingerprint is that
    /// of its own canonical serialization, computed on first artifact
    /// lookup (registration itself never serializes).
    Deferred,
    /// The fingerprint of the exact bytes the entry was verified against.
    Known(u64),
}

/// FNV-1a over the raw artifact bytes: cheap relative to a scan feed,
/// and enough to keep a corrupted payload from riding a cached header.
fn artifact_fingerprint(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl DbCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a database by cache key, counting a hit or miss.
    pub fn get(&self, key: u64) -> Option<Arc<Db>> {
        let found = self.map.lock().get(&key).map(|e| e.db.clone());
        match found {
            Some(db) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(db)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or replaces) a database under a caller-chosen key —
    /// used for server-derived variants (per-session fuzzy compiles)
    /// whose key is a function of the *base* database, not of their own
    /// artifact. No fingerprint is stored, so these entries only answer
    /// [`DbCache::get`], never [`DbCache::get_or_load`].
    pub fn insert_under(&self, key: u64, db: Arc<Db>) {
        self.map.lock().insert(
            key,
            CacheEntry {
                db,
                artifact_fp: ArtifactFp::Never,
            },
        );
    }

    /// Inserts (or replaces) a database; returns its cache key. The
    /// canonical artifact of the database hits [`DbCache::get_or_load`]:
    /// the entry's fingerprint is that of its own serialization, computed
    /// the first time artifact bytes are presented under its key.
    pub fn insert(&self, db: Arc<Db>) -> u64 {
        let key = db.cache_key();
        self.map.lock().insert(
            key,
            CacheEntry {
                db,
                artifact_fp: ArtifactFp::Deferred,
            },
        );
        key
    }

    /// Resolves an artifact through the cache: header-only key peek plus
    /// a fingerprint of the raw bytes, then a full verify-and-compile on
    /// a miss *or* whenever the bytes differ from what the cached entry
    /// was verified against. Returns the database and whether this was a
    /// hit.
    ///
    /// # Errors
    ///
    /// Any [`DbError`] from header parsing or the verify-and-compile
    /// path — in particular, a payload that does not match its header's
    /// content hash is [`DbError::HashMismatch`] even when a database
    /// under the same key is already cached.
    pub fn get_or_load(&self, bytes: &[u8]) -> Result<(Arc<Db>, bool), DbError> {
        let key = Db::peek_key(bytes)?;
        let fp = artifact_fingerprint(bytes);
        sched::point("cache:lookup");
        let deferred = match self.map.lock().get(&key) {
            Some(CacheEntry {
                db,
                artifact_fp: ArtifactFp::Known(known),
            }) if *known == fp => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((db.clone(), true));
            }
            Some(CacheEntry {
                db,
                artifact_fp: ArtifactFp::Deferred,
            }) => Some(db.clone()),
            _ => None,
        };
        if let Some(db) = deferred {
            // Serialize outside the map lock; record the fingerprint only
            // if the entry was not replaced meanwhile.
            let own = artifact_fingerprint(&db.serialize());
            sched::point("cache:fingerprinted");
            if let Some(entry) = self.map.lock().get_mut(&key) {
                if Arc::ptr_eq(&entry.db, &db) {
                    entry.artifact_fp = ArtifactFp::Known(own);
                }
            }
            if own == fp {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((db, true));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let db = Db::deserialize(bytes)?;
        sched::point("cache:loaded");
        self.map.lock().insert(
            key,
            CacheEntry {
                db: db.clone(),
                artifact_fp: ArtifactFp::Known(fp),
            },
        );
        Ok((db, false))
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of cached databases.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use azoo_core::{StartKind, SymbolClass};

    fn cat() -> Automaton {
        let mut a = Automaton::new();
        let c = a.add_ste(SymbolClass::from_byte(b'c'), StartKind::AllInput);
        let s1 = a.add_ste(SymbolClass::from_byte(b'a'), StartKind::None);
        let s2 = a.add_ste(SymbolClass::from_byte(b't'), StartKind::None);
        a.add_edge(c, s1);
        a.add_edge(s1, s2);
        a.set_report(s2, 0);
        a
    }

    #[test]
    fn round_trip_preserves_hash_and_choice() {
        let db = Db::compile(cat(), DbConfig::default()).expect("compile");
        let bytes = db.serialize();
        let back = Db::deserialize(&bytes).expect("load");
        assert_eq!(back.content_hash(), db.content_hash());
        assert_eq!(back.cache_key(), db.cache_key());
        assert_eq!(back.engine_choice(), db.engine_choice());
        assert_eq!(Db::peek_key(&bytes).expect("peek"), db.cache_key());
    }

    #[test]
    fn typed_load_errors() {
        let db = Db::compile(cat(), DbConfig::default()).expect("compile");
        let good = db.serialize();

        let mut bad = good.clone();
        bad[0] = b'X';
        assert_eq!(Db::deserialize(&bad).unwrap_err(), DbError::BadMagic);

        let mut bad = good.clone();
        bad[4] = 0xFF;
        assert!(matches!(
            Db::deserialize(&bad),
            Err(DbError::VersionMismatch { .. })
        ));

        let mut bad = good.clone();
        bad[12] ^= 0x01; // stored content hash
        assert!(matches!(
            Db::deserialize(&bad),
            Err(DbError::HashMismatch { .. })
        ));

        let mut bad = good.clone();
        bad[20] = MAX_EDITS + 1; // edit budget
        assert_eq!(
            Db::deserialize(&bad).unwrap_err(),
            DbError::BadEdits(MAX_EDITS + 1)
        );

        assert_eq!(
            Db::deserialize(&good[..10]).unwrap_err(),
            DbError::Truncated
        );
        assert_eq!(
            Db::deserialize(&good[..good.len() - 1]).unwrap_err(),
            DbError::Truncated
        );
        assert_eq!(Db::deserialize(b"AZ").unwrap_err(), DbError::Truncated);
        assert_eq!(Db::deserialize(b"nope").unwrap_err(), DbError::BadMagic);
    }

    #[test]
    fn fuzzy_compile_stores_the_mesh_and_round_trips() {
        let plain = Db::compile(cat(), DbConfig::default()).expect("compile");
        let fuzzy = Db::compile(cat(), DbConfig { max_edits: 1 }).expect("compile fuzzy");

        assert!(
            fuzzy.automaton().state_count() > plain.automaton().state_count(),
            "the mesh must add an error layer"
        );
        assert_ne!(fuzzy.content_hash(), plain.content_hash());
        assert_ne!(fuzzy.cache_key(), plain.cache_key());

        // "cut" is within distance 1 of "cat"; the exact machine misses
        // it, the mesh reports it.
        let scan = |db: &Db| {
            let mut engine = db.checkout();
            let mut sink = azoo_engines::CollectSink::new();
            engine.feed(b"a cut here", true, &mut sink);
            sink.reports().len()
        };
        assert_eq!(scan(&plain), 0);
        assert!(scan(&fuzzy) > 0);

        // The payload already is the mesh: the load path must accept it
        // verbatim, never re-fuzzify, and keep the edit budget.
        let bytes = fuzzy.serialize();
        assert_eq!(bytes[20], 1);
        let back = Db::deserialize(&bytes).expect("load fuzzy artifact");
        assert_eq!(back.config().max_edits, 1);
        assert_eq!(back.content_hash(), fuzzy.content_hash());
        assert_eq!(back.cache_key(), fuzzy.cache_key());
        assert_eq!(
            back.automaton().state_count(),
            fuzzy.automaton().state_count()
        );

        // Every budget is a distinct artifact and a distinct cache key.
        let deeper = Db::compile(cat(), DbConfig { max_edits: 2 }).expect("compile k=2");
        assert_ne!(deeper.cache_key(), fuzzy.cache_key());
    }

    #[test]
    fn fuzzy_compile_failures_are_typed() {
        assert_eq!(
            Db::compile(
                cat(),
                DbConfig {
                    max_edits: MAX_EDITS + 1
                }
            )
            .unwrap_err(),
            DbError::BadEdits(MAX_EDITS + 1)
        );

        // A machine with fan-out is not a literal chain set; the
        // fuzzify rejection surfaces as the typed DbError.
        let mut branchy = Automaton::new();
        let s = branchy.add_ste(SymbolClass::from_byte(b'c'), StartKind::AllInput);
        for b in [b'a', b'o'] {
            let t = branchy.add_ste(SymbolClass::from_byte(b), StartKind::None);
            branchy.add_edge(s, t);
            branchy.set_report(t, 0);
        }
        assert!(matches!(
            Db::compile(branchy, DbConfig { max_edits: 1 }),
            Err(DbError::Fuzzy(_))
        ));
    }

    #[test]
    fn pool_recycles_engines() {
        let db = Db::compile(cat(), DbConfig::default()).expect("compile");
        assert_eq!(db.pooled(), 0);
        let e1 = db.checkout();
        let e2 = db.checkout();
        db.checkin(e1);
        db.checkin(e2);
        assert_eq!(db.pooled(), 2);
        let _e = db.checkout();
        assert_eq!(db.pooled(), 1);
    }

    #[test]
    fn tampered_payload_never_served_from_cache() {
        let cache = DbCache::new();
        let good = Db::compile(cat(), DbConfig::default())
            .expect("compile")
            .serialize();
        cache.get_or_load(&good).expect("load");

        // Same (valid) header, flipped payload byte: the cache key
        // matches a verified entry, but the bytes do not — the full
        // load path must run and reject the artifact.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(
            cache.get_or_load(&bad).is_err(),
            "tampered payload must not ride the cached header"
        );

        // The genuine artifact still hits.
        let (_, hit) = cache.get_or_load(&good).expect("load");
        assert!(hit);
    }

    fn entry_fp(cache: &DbCache, key: u64) -> Option<u64> {
        match cache.map.lock()[&key].artifact_fp {
            ArtifactFp::Known(fp) => Some(fp),
            ArtifactFp::Never | ArtifactFp::Deferred => None,
        }
    }

    #[test]
    fn registered_db_hits_on_its_canonical_artifact() {
        let cache = DbCache::new();
        let db = Db::compile(cat(), DbConfig::default()).expect("compile");
        let bytes = db.serialize();
        let key = cache.insert(db.clone());
        assert_eq!(entry_fp(&cache, key), None, "insert must not serialize");

        let (found, hit) = cache.get_or_load(&bytes).expect("load");
        assert!(hit, "canonical serialization of an inserted db is a hit");
        assert!(Arc::ptr_eq(&found, &db));
        assert_eq!(entry_fp(&cache, key), Some(artifact_fingerprint(&bytes)));

        // The second lookup compares against the stored fingerprint.
        let (found, hit) = cache.get_or_load(&bytes).expect("load");
        assert!(hit && Arc::ptr_eq(&found, &db));
        assert_eq!((cache.hits(), cache.misses()), (2, 0));
    }

    #[test]
    fn tampered_artifact_never_rides_a_registered_entry() {
        let cache = DbCache::new();
        let db = Db::compile(cat(), DbConfig::default()).expect("compile");
        let good = db.serialize();
        let key = cache.insert(db.clone());

        // Flip the report code 0 -> 1: still valid MNRL, different
        // machine, so the full load path dies on the content hash.
        let field = good
            .windows(10)
            .position(|w| w == b"\"reportId\"")
            .expect("report code in payload");
        let at = field
            + good[field..]
                .iter()
                .position(|&b| b == b'0')
                .expect("code 0");
        let mut bad = good.clone();
        bad[at] ^= 0x01;
        assert!(matches!(
            cache.get_or_load(&bad),
            Err(DbError::HashMismatch { .. })
        ));
        assert!(Arc::ptr_eq(&cache.map.lock()[&key].db, &db), "never cached");
        assert_eq!(cache.len(), 1);

        let (found, hit) = cache.get_or_load(&good).expect("load");
        assert!(hit && Arc::ptr_eq(&found, &db));
    }

    #[test]
    fn cache_shares_one_db() {
        let cache = DbCache::new();
        let bytes = Db::compile(cat(), DbConfig::default())
            .expect("compile")
            .serialize();
        let (db1, hit1) = cache.get_or_load(&bytes).expect("load");
        let (db2, hit2) = cache.get_or_load(&bytes).expect("load");
        assert!(!hit1);
        assert!(hit2);
        assert!(Arc::ptr_eq(&db1, &db2));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }
}
