//! Lock ranks and the workspace-wide rank table.

/// A lock's position in the workspace acquisition order.
///
/// The discipline: a thread may acquire a lock only when its rank is
/// **strictly greater** than the rank of every lock the thread already
/// holds. Equal ranks are also refused — several locks may share a rank
/// (the session-map shards do) exactly *because* no code path is
/// allowed to hold two of them at once.
///
/// Every rank used by the workspace is declared once, in [`ranks`];
/// tests may mint private ranks (use values ≥ [`ranks::TEST_BASE`]) to
/// exercise the detector without colliding with the real table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockRank {
    /// Acquisition-order position; lower ranks are acquired first.
    pub rank: u16,
    /// Stable human-readable name, used in panics and the dumped graph.
    pub name: &'static str,
}

impl LockRank {
    /// Declares a rank. `name` should match the DESIGN.md §6h table row.
    pub const fn new(rank: u16, name: &'static str) -> LockRank {
        LockRank { rank, name }
    }
}

impl std::fmt::Display for LockRank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}({})", self.name, self.rank)
    }
}

/// The single workspace-wide rank table.
///
/// One row per lock (or per family of same-rank locks). The authoritative
/// prose version — what each lock guards and which locks may legally be
/// held while acquiring it — lives in DESIGN.md §6h; keep the two in
/// sync when adding a lock.
///
/// Current acquisition chains (all strictly ascending):
///
/// ```text
/// SERVE_SESSION → SERVE_TENANTS      (close: drop tenant admission state)
/// SERVE_SESSION → DB_POOL            (close/timeout: recycle the executor)
/// ```
///
/// Everything else is acquired with no lock held.
pub mod ranks {
    use super::LockRank;

    /// `DbCache.map` — the compiled-database cache (azoo-serve).
    /// Held only for a map lookup/insert; never while compiling.
    pub const DB_CACHE: LockRank = LockRank::new(10, "db-cache");

    /// `ScanService.shards[i]` — one session-map shard (azoo-serve).
    /// All 16 shards share this rank: no path may hold two shards.
    pub const SERVE_SHARD: LockRank = LockRank::new(20, "serve-shard");

    /// `SessionInner` — one session's stream state (azoo-serve).
    /// The only rank legally held while acquiring others (see chains).
    pub const SERVE_SESSION: LockRank = LockRank::new(30, "serve-session");

    /// `ScanService.tenants` — per-tenant admission gauges (azoo-serve).
    /// Acquired bare on open, and under `SERVE_SESSION` on close.
    pub const SERVE_TENANTS: LockRank = LockRank::new(40, "serve-tenants");

    /// `Db.pool` — the recycled-executor free list (azoo-serve).
    /// Acquired bare on checkout, and under `SERVE_SESSION` on checkin.
    pub const DB_POOL: LockRank = LockRank::new(50, "db-pool");

    /// `Db.proto` — the pristine prototype executor (azoo-serve).
    /// Acquired bare, only when the free list is empty.
    pub const DB_PROTO: LockRank = LockRank::new(60, "db-proto");

    /// `ParallelScanner` merge accumulator (azoo-engines): workers
    /// append their locally-collected report batches. Acquired bare,
    /// once per worker per scan.
    pub const ENGINE_MERGE: LockRank = LockRank::new(70, "engine-merge");

    /// Ranks at or above this value are reserved for tests exercising
    /// the detector itself; the real table never grows into them.
    pub const TEST_BASE: u16 = 0x8000;
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn table_is_strictly_ordered_and_uniquely_named() {
        let table = [
            ranks::DB_CACHE,
            ranks::SERVE_SHARD,
            ranks::SERVE_SESSION,
            ranks::SERVE_TENANTS,
            ranks::DB_POOL,
            ranks::DB_PROTO,
            ranks::ENGINE_MERGE,
        ];
        for pair in table.windows(2) {
            assert!(pair[0].rank < pair[1].rank, "{} !< {}", pair[0], pair[1]);
        }
        let mut names: Vec<&str> = table.iter().map(|r| r.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), table.len(), "duplicate rank name");
        assert!(table.iter().all(|r| r.rank < ranks::TEST_BASE));
    }

    #[test]
    fn display_names_rank() {
        assert_eq!(ranks::DB_POOL.to_string(), "db-pool(50)");
    }
}
