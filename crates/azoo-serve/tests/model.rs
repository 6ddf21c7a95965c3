//! Deterministic model checks over the service's three racy protocols.
//!
//! Each test enumerates *every* interleaving of the `sched::point`
//! hooks compiled into azoo-serve (see `azoo_sync::sched` for how the
//! schedule-permutation harness works and why it stands in for loom),
//! asserting the protocol's invariants after each schedule:
//!
//! 1. close/feed race — a feed racing a close gets a typed error or a
//!    clean scan, and either way every gauge returns to zero and the
//!    executor lands back in the pool.
//! 2. `DbCache::get_or_load` concurrent miss/tamper — a tampered
//!    artifact never gets served or cached, no matter how its load
//!    interleaves with the genuine artifact's, and two first lookups of
//!    a registered entry share its one `Arc<Db>`.
//! 3. quota reserve-verify-rollback — concurrent opens over a quota of
//!    one admit exactly one session in every interleaving, and the
//!    loser's rollback leaks nothing.

#![allow(clippy::unwrap_used)]

use std::sync::mpsc;
use std::sync::Arc;

use azoo_core::{Automaton, StartKind, SymbolClass};
use azoo_serve::{Db, DbCache, DbConfig, DbError, ScanService, ServeError, ServeLimits};
use azoo_sync::sched;

fn ab_db() -> Arc<Db> {
    let mut a = Automaton::new();
    let s = a.add_ste(SymbolClass::from_byte(b'a'), StartKind::AllInput);
    let t = a.add_ste(SymbolClass::from_byte(b'b'), StartKind::None);
    a.add_edge(s, t);
    a.set_report(t, 42);
    Db::compile(a, DbConfig::default()).expect("compile")
}

/// Model 1: a feed and a close race over one open session. The feed
/// must resolve to a clean scan or a typed terminal error — never a
/// panic, never a leaked gauge — and the close always wins the session.
#[test]
fn model_close_feed_race() {
    let db = ab_db();
    let stats = sched::model(|| {
        let svc = ScanService::new(ServeLimits::default());
        let sid = svc.open("t", &db).expect("open");
        let (tx, rx) = mpsc::channel();

        let (svc_f, db_f) = (svc.clone(), db.clone());
        let feeder = sched::thread(move || {
            let _ = &db_f;
            tx.send(svc_f.feed(sid, b"xabxab", false)).unwrap();
        });
        let svc_c = svc.clone();
        let closer = sched::thread(move || {
            svc_c.close(sid).expect("close must win the session");
        });
        sched::run(vec![feeder, closer]);

        match rx.recv().unwrap() {
            Ok(_)
            | Err(ServeError::UnknownSession(_))
            | Err(ServeError::StreamFinished(_))
            | Err(ServeError::Cancelled(_)) => {}
            Err(other) => panic!("feed must fail typed, got {other:?}"),
        }
        assert_eq!(svc.session_count(), 0, "close released the session");
        assert_eq!(svc.bytes_in_flight(), 0, "feed released its reservation");
        assert_eq!(svc.tenant_count(), 0, "tenant state died with the session");
        assert_eq!(db.pooled(), 1, "the executor returned to the pool");
    });
    assert!(stats.complete, "interleaving space must be exhausted");
    assert!(stats.schedules > 1, "the race must actually branch");
}

/// Model 2: a genuine artifact and a second one race through
/// `DbCache::get_or_load`, over an empty cache (a concurrent miss) and
/// over a locally registered entry (whose fingerprint both racers may
/// try to compute on this first artifact lookup). The second artifact is
/// either the same genuine bytes or a tampered copy (same cache key —
/// the header is untouched). In every interleaving the tampered bytes die
/// on verification, genuine lookups of a registered entry all get the
/// registered `Arc<Db>`, and the cache ends up serving only the verified
/// artifact.
#[test]
fn model_cache_concurrent_miss_and_tamper() {
    let registered = ab_db();
    let good = registered.serialize();
    let mut bad = good.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x01; // payload flip under a genuine header

    for (register, second) in [(false, &bad), (true, &good), (true, &bad)] {
        let stats = sched::model(|| {
            let cache = Arc::new(DbCache::new());
            if register {
                cache.insert(registered.clone());
            }
            let lookup = |bytes: &Vec<u8>| {
                let (cache, bytes) = (cache.clone(), bytes.clone());
                let (tx, rx) = mpsc::channel();
                let thread = sched::thread(move || {
                    tx.send(cache.get_or_load(&bytes)).unwrap();
                });
                (thread, rx)
            };
            let (first, rx_first) = lookup(&good);
            let (other, rx_other) = lookup(second);
            sched::run(vec![first, other]);

            let (db, _) = rx_first
                .recv()
                .unwrap()
                .expect("genuine artifact always loads");
            if register {
                assert!(Arc::ptr_eq(&db, &registered), "registered db served");
            }
            match rx_other.recv().unwrap() {
                Ok((other_db, _)) if second == &good => {
                    if register {
                        assert!(Arc::ptr_eq(&other_db, &db), "both share one db");
                    }
                }
                // Depending on which byte the flip lands on, verification
                // kills the artifact at JSON decode or at the hash check —
                // either way it dies in the full load path, never the cache.
                Err(DbError::HashMismatch { .. }) | Err(DbError::Core(_)) if second == &bad => {}
                Err(other) => panic!("tamper must die in verification, got {other:?}"),
                Ok(_) => panic!("tampered artifact must never be served"),
            }
            // Whatever the interleaving left behind, the genuine bytes are
            // what the cache serves — and they hit, so the entry's
            // fingerprint is the verified one, not the tamperer's.
            let (_, hit) = cache.get_or_load(&good).expect("post-state load");
            assert!(hit, "the cache must end up keyed to the verified bytes");
            assert_eq!(cache.len(), 1);
        });
        assert!(stats.complete, "interleaving space must be exhausted");
        assert!(stats.schedules > 1, "the race must actually branch");
    }
}

/// Model 3: two opens race a quota of one. Exactly one wins in every
/// interleaving, the loser's reserve-verify-rollback leaves every gauge
/// untouched, and closing the winner returns the service to zero.
#[test]
fn model_quota_reserve_verify_rollback() {
    let db = ab_db();
    // Global cap and per-tenant cap exercise the two rollback paths
    // (Overloaded rolls back before tenant state exists; QuotaExceeded
    // rolls back both the global gauge and the tenant entry).
    type LoserCheck = fn(&ServeError) -> bool;
    let variants: [(ServeLimits, LoserCheck); 2] = [
        (
            ServeLimits {
                max_sessions: 1,
                ..ServeLimits::default()
            },
            |e| {
                matches!(
                    e,
                    ServeError::Overloaded {
                        resource: "sessions"
                    }
                )
            },
        ),
        (
            ServeLimits {
                max_sessions_per_tenant: 1,
                ..ServeLimits::default()
            },
            |e| {
                matches!(
                    e,
                    ServeError::QuotaExceeded {
                        resource: "sessions",
                        ..
                    }
                )
            },
        ),
    ];
    for (limits, loser_ok) in variants {
        let stats = sched::model(|| {
            let svc = ScanService::new(limits);
            let (tx, rx) = mpsc::channel();
            let openers: Vec<_> = (0..2)
                .map(|_| {
                    let (svc, db, tx) = (svc.clone(), db.clone(), tx.clone());
                    sched::thread(move || {
                        tx.send(svc.open("t", &db)).unwrap();
                    })
                })
                .collect();
            sched::run(openers);

            let results = [rx.recv().unwrap(), rx.recv().unwrap()];
            let winners: Vec<_> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
            assert_eq!(winners.len(), 1, "exactly one open wins: {results:?}");
            for r in &results {
                if let Err(e) = r {
                    assert!(loser_ok(e), "loser must see the quota error, got {e:?}");
                }
            }
            assert_eq!(svc.session_count(), 1);
            svc.close(*winners[0]).expect("close the winner");
            assert_eq!(svc.session_count(), 0, "rollback leaked a session slot");
            assert_eq!(svc.tenant_count(), 0, "rollback leaked tenant state");
            assert_eq!(svc.bytes_in_flight(), 0);
        });
        assert!(stats.complete, "interleaving space must be exhausted");
        assert!(stats.schedules > 1, "the race must actually branch");
    }
}
