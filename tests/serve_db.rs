//! Database artifact acceptance: every one of the 27 benchmarks must
//! survive `compile → serialize → deserialize` with a report-identical
//! machine on the other side, and corrupted artifacts must fail with
//! the documented typed errors.

use automatazoo::engines::CollectSink;
use automatazoo::serve::{Db, DbConfig, DbError, DB_FORMAT_VERSION};
use automatazoo::zoo::{BenchmarkId, Scale};

fn session_reports(db: &Db, input: &[u8]) -> Vec<(u64, u32)> {
    let mut engine = db.checkout();
    let mut sink = CollectSink::new();
    engine.feed(input, true, &mut sink);
    db.checkin(engine);
    let mut reps: Vec<(u64, u32)> = sink
        .reports()
        .iter()
        .map(|r| (r.offset, r.code.0))
        .collect();
    reps.sort_unstable();
    reps
}

/// All 27 benchmarks round-trip report-identically at tiny scale.
#[test]
fn all_benchmarks_round_trip_report_identical() {
    for id in BenchmarkId::ALL {
        let bench = id.build(Scale::Tiny);
        let input = bench.input;
        let db = Db::compile(bench.automaton, DbConfig::default())
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", id.name()));
        let artifact = db.serialize();
        let back = Db::deserialize(&artifact)
            .unwrap_or_else(|e| panic!("{}: load failed: {e}", id.name()));

        assert_eq!(back.content_hash(), db.content_hash(), "{}", id.name());
        assert_eq!(back.cache_key(), db.cache_key(), "{}", id.name());
        assert_eq!(back.engine_choice(), db.engine_choice(), "{}", id.name());
        assert_eq!(
            session_reports(&back, &input),
            session_reports(&db, &input),
            "{}: reloaded database diverged",
            id.name()
        );
    }
}

/// Version and hash tampering on a real benchmark artifact produce the
/// typed errors the serving layer routes to clients.
#[test]
fn tampered_benchmark_artifacts_fail_typed() {
    let bench = BenchmarkId::Snort.build(Scale::Tiny);
    let db = Db::compile(bench.automaton, DbConfig::default()).expect("compile");
    let good = db.serialize();

    let mut newer = good.clone();
    newer[4..8].copy_from_slice(&(DB_FORMAT_VERSION + 1).to_le_bytes()); // format version
    match Db::deserialize(&newer) {
        Err(DbError::VersionMismatch { found, expected })
            if found == DB_FORMAT_VERSION + 1 && expected == DB_FORMAT_VERSION => {}
        other => panic!("expected format VersionMismatch, got {other:?}"),
    }

    let mut newer_hash = good.clone();
    newer_hash[8..12].copy_from_slice(&99u32.to_le_bytes()); // hash scheme
    match Db::deserialize(&newer_hash) {
        Err(DbError::VersionMismatch { found: 99, .. }) => {}
        other => panic!("expected hash-scheme VersionMismatch, got {other:?}"),
    }

    let mut corrupt = good.clone();
    // Flip a payload byte inside a symbol class, leaving the stored
    // hash alone: the recomputed content hash must catch it.
    let target = good.len() - 100;
    corrupt[target] ^= 0x01;
    match Db::deserialize(&corrupt) {
        Err(DbError::HashMismatch { .. }) | Err(DbError::Core(_)) => {}
        other => panic!("expected HashMismatch or a parse error, got {other:?}"),
    }
}

/// Every proper prefix of a real artifact is `Truncated`: no cut through
/// the header or the payload reaches a later check (version, edit budget,
/// content hash) or a panic.
#[test]
fn every_proper_prefix_is_truncated() {
    let bench = BenchmarkId::FileCarving.build(Scale::Tiny);
    let good = Db::compile(bench.automaton, DbConfig::default())
        .expect("compile")
        .serialize();
    for n in 0..good.len() {
        assert_eq!(
            Db::deserialize(&good[..n]).unwrap_err(),
            DbError::Truncated,
            "prefix of {n} of {} bytes",
            good.len()
        );
    }
}
