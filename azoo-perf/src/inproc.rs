//! In-process slices: block scans on a warm engine, chunked streams on
//! the same engine, and block scans on never-used clones.
//!
//! The slices are dealt out in rounds over the whole roster, with the
//! serve windows in between, rather than member by member. The
//! reference host alternates between two speed states about a fifth
//! apart and dwells seconds in each; dealt in rounds, every member's
//! samples come from the whole run, so one state cannot colour one
//! member or one mode.

use std::time::Duration;

use azoo_engines::{Engine, SessionEngine};

use crate::roster::STREAM_CHUNK;
use crate::setup::Member;
use crate::stats::Digest;
use crate::trace::Timer;

/// Rounds the slices are dealt in.
pub const ROUNDS: u32 = 5;

/// Wall time each mode gets per member, summed over the rounds. A mode
/// always finishes the scan in flight and runs at least one, so run
/// length does not depend on how fast the commit under test is.
#[derive(Debug, Clone, Copy)]
pub struct Slices {
    /// Block scans, engine reused.
    pub warm: Duration,
    /// Chunked feeds, engine reused.
    pub stream: Duration,
    /// Block scans, each on a fresh clone of the untouched prototype.
    pub cold: Duration,
}

/// Shares of a member's time that warm, stream and cold get.
pub const MODE_SHARES: [f64; 3] = [0.4, 0.4, 0.2];

impl Slices {
    /// Splits `budget` seconds over `members` members and, by
    /// [`MODE_SHARES`], over the modes.
    pub fn split(budget: f64, members: usize) -> Slices {
        let per_member = budget / members.max(1) as f64;
        let [warm, stream, cold] = MODE_SHARES.map(|s| Duration::from_secs_f64(per_member * s));
        Slices { warm, stream, cold }
    }
}

/// MB/s samples of one mode and the time they took.
#[derive(Debug, Clone, Default)]
pub struct Mode {
    /// One sample per scan (or per stream pass).
    pub mbps: Vec<f64>,
    spent: f64,
}

impl Mode {
    /// Whether the mode is still owed time in this round: it gets
    /// `slice / ROUNDS` more per round, and a scan that overran is paid
    /// for by sitting later rounds out.
    fn owed(&self, slice: Duration, round: u32) -> bool {
        self.mbps.is_empty()
            || self.spent < slice.as_secs_f64() * f64::from(round + 1) / f64::from(ROUNDS)
    }

    fn push(&mut self, bytes: usize, secs: f64) {
        self.mbps.push(bytes as f64 / 1e6 / secs);
        self.spent += secs;
    }
}

/// What the in-process phase measured for one member.
#[derive(Debug, Clone, Default)]
pub struct MemberRun {
    /// Warm block scans.
    pub warm: Mode,
    /// Chunked stream passes.
    pub stream: Mode,
    /// Cold block scans.
    pub cold: Mode,
    /// Scans and streams verified against the reference.
    pub attempted: u64,
    /// Those whose report stream mismatched.
    pub failed: u64,
}

impl MemberRun {
    fn check(&mut self, got: Digest, expected: Digest) {
        self.attempted += 1;
        self.failed += u64::from(got != expected);
    }
}

/// One timed block scan; returns the seconds it took and the digest.
fn timed_scan(
    timer: &mut Timer,
    name: &'static str,
    op: u64,
    engine: &mut dyn Engine,
    input: &[u8],
) -> (f64, Digest) {
    let mut digest = Digest::default();
    let ((), secs) = timer.op(name, op, || engine.scan(input, &mut digest));
    (secs, digest)
}

/// One timed stream pass in [`STREAM_CHUNK`]-byte feeds; returns the
/// seconds spent in `reset` and `feed` and the digest.
fn timed_stream(
    timer: &mut Timer,
    op: u64,
    engine: &mut dyn SessionEngine,
    input: &[u8],
) -> (f64, Digest) {
    let mut digest = Digest::default();
    let ((), mut secs) = timer.op("engines.stream.reset", op, || engine.reset());
    let mut chunks = input.chunks(STREAM_CHUNK).peekable();
    while let Some(chunk) = chunks.next() {
        let eod = chunks.peek().is_none();
        let ((), s) = timer.op("engines.stream.feed", op, || {
            engine.feed(chunk, eod, &mut digest)
        });
        secs += s;
    }
    (secs, digest)
}

/// Untimed warm-up of every member's engine: fills the DFA cache and
/// faults the tables in. The scan is checked like any other.
pub fn warm_up(timer: &mut Timer, members: &mut [Member], runs: &mut [MemberRun]) {
    for (m, run) in members.iter_mut().zip(runs) {
        let (_, digest) = timed_scan(
            &mut timer.untraced(),
            "warmup",
            m.id as u64,
            &mut *m.engine,
            &m.input,
        );
        run.check(digest, m.expected);
    }
}

/// Deals one round: every member gets its share of each mode.
pub fn round(
    timer: &mut Timer,
    members: &mut [Member],
    runs: &mut [MemberRun],
    slices: Slices,
    round: u32,
) {
    for (m, run) in members.iter_mut().zip(runs) {
        let op = m.id as u64;
        while run.warm.owed(slices.warm, round) {
            let (secs, digest) =
                timed_scan(timer, "engines.scan.warm", op, &mut *m.engine, &m.input);
            run.warm.push(m.input.len(), secs);
            run.check(digest, m.expected);
        }
        while run.stream.owed(slices.stream, round) {
            let (secs, digest) = timed_stream(timer, op, &mut *m.engine, &m.input);
            run.stream.push(m.input.len(), secs);
            run.check(digest, m.expected);
        }
        while run.cold.owed(slices.cold, round) {
            let mut fresh = m.proto.clone_session();
            let (secs, digest) = timed_scan(timer, "engines.scan.cold", op, &mut *fresh, &m.input);
            run.cold.push(m.input.len(), secs);
            run.check(digest, m.expected);
        }
    }
}
