//! The serve phase: closed-loop clients streaming the roster through
//! the socket, every session checked against the reference.
//!
//! A window bounds when sessions may be opened; every session opened
//! inside it runs to its end, is verified, and counts in full. Cutting
//! samples off at the window's edge instead would leave a slow member
//! (one session of AP PRNG takes over a second) without a single
//! complete session on some runs and with one on others.

use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use azoo_serve::proto::{read_frame, write_frame};
use azoo_serve::{DbRef, Request, Response};

use crate::roster::{Traffic, CONNECTIONS};
use crate::setup::Member;
use crate::stats::{geomean, quantile, Digest};
use crate::trace::Timer;

/// What a client needs to know about one member.
#[derive(Debug, Clone, Copy)]
pub struct Target<'a> {
    /// Registered database key.
    pub key: u64,
    /// The stream to send.
    pub input: &'a [u8],
    /// The reports a correct server sends back.
    pub expected: Digest,
}

/// Targets for a roster.
pub fn targets(members: &[Member]) -> Vec<Target<'_>> {
    members
        .iter()
        .map(|m| Target {
            key: m.key,
            input: &m.input,
            expected: m.expected,
        })
        .collect()
}

/// What the clients saw of one member.
#[derive(Debug, Clone, Default)]
pub struct MemberFeeds {
    /// Per session: payload MB over the seconds its OPEN, FEED and
    /// CLOSE round trips took (one connection's rate while it serves
    /// that session).
    pub session_mbps: Vec<f64>,
    /// FEED → `Reports` round trips, microseconds.
    pub us: Vec<f64>,
}

/// What the clients observed.
///
/// The three end-to-end figures are taken per member and combined by
/// geometric mean, like the in-process ones: a roster mixes members
/// whose feeds take 0.4 ms and 40 ms, and a percentile over the pooled
/// feeds would sit on whichever member happens to straddle it.
#[derive(Debug, Clone, Default)]
pub struct ServeRun {
    /// Seconds during which sessions were being opened.
    pub window_s: f64,
    /// Samples per member, in roster order.
    pub members: Vec<MemberFeeds>,
    /// OPEN → `Opened` round trips, microseconds.
    pub open_us: Vec<f64>,
    /// CLOSE → `Closed` round trips, microseconds.
    pub close_us: Vec<f64>,
    /// Sessions run to the end and verified.
    pub attempted: u64,
    /// Sessions refused, broken, or whose reports mismatched.
    pub failed: u64,
}

impl ServeRun {
    /// An empty record for a roster of `members`.
    pub fn new(members: usize) -> ServeRun {
        ServeRun {
            members: vec![MemberFeeds::default(); members],
            ..ServeRun::default()
        }
    }

    fn over_members(&self, f: impl Fn(&MemberFeeds) -> f64) -> f64 {
        let values: Vec<f64> = self
            .members
            .iter()
            .filter(|m| !m.us.is_empty())
            .map(f)
            .collect();
        geomean(&values)
    }

    /// Payload MB/s through the socket: the member's `q`-quantile
    /// session rate, geometric mean over members, times the connections
    /// feeding at once.
    pub fn wire_mbps(&self, q: f64) -> f64 {
        CONNECTIONS as f64 * self.over_members(|m| quantile(&m.session_mbps, q))
    }

    /// Geometric mean over members of the member's `q`-quantile FEED
    /// round trip, microseconds.
    pub fn feed_us(&self, q: f64) -> f64 {
        self.over_members(|m| quantile(&m.us, q))
    }

    /// Every FEED round trip, members pooled.
    pub fn all_feed_us(&self) -> Vec<f64> {
        self.members
            .iter()
            .flat_map(|m| m.us.iter().copied())
            .collect()
    }

    /// Adds another window (or another connection) to this one.
    pub fn merge(&mut self, other: ServeRun) {
        self.window_s += other.window_s;
        for (mine, theirs) in self.members.iter_mut().zip(other.members) {
            mine.session_mbps.extend(theirs.session_mbps);
            mine.us.extend(theirs.us);
        }
        self.open_us.extend(other.open_us);
        self.close_us.extend(other.close_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One request/response exchange, timed as the client sees it: encode,
/// write, read, decode. The three steps are separate operations so they
/// appear as separate spans.
///
/// `replies` is 2 for CLOSE (final `Reports`, then `Closed`).
fn exchange(
    timer: &mut Timer,
    conn: &mut UnixStream,
    op: u64,
    req: &Request,
    replies: usize,
) -> Result<(Vec<Response>, f64), String> {
    let (encode, wire, decode) = match req {
        Request::Feed { .. } => (
            "serve.proto.encode_feed",
            "serve.server.feed_roundtrip",
            "serve.proto.decode_reports",
        ),
        _ => (
            "serve.proto.encode_other",
            "serve.server.other_roundtrip",
            "serve.proto.decode_other",
        ),
    };
    let (payload, mut secs) = timer.op(encode, op, || req.encode());
    let (frames, s) = timer.op(wire, op, || -> Result<Vec<Vec<u8>>, String> {
        write_frame(conn, &payload).map_err(|e| e.to_string())?;
        (0..replies)
            .map(|_| read_frame(conn).map_err(|e| e.to_string()))
            .collect()
    });
    secs += s;
    let frames = frames?;
    let (responses, s) = timer.op(decode, op, || {
        frames
            .iter()
            .map(|f| Response::decode(f).map_err(|e| e.to_string()))
            .collect::<Result<Vec<Response>, String>>()
    });
    secs += s;
    Ok((responses?, secs))
}

/// A session in one of a connection's interleave slots.
struct Slot {
    target: usize,
    sid: u64,
    pos: usize,
    digest: Digest,
    op: u64,
    /// Seconds this session's round trips have taken so far.
    busy_s: f64,
}

/// One connection's side of the serve phase.
struct Client<'a> {
    timer: &'a mut Timer,
    conn: &'a mut UnixStream,
    targets: &'a [Target<'a>],
    chunk: usize,
    tenant: String,
    /// Sessions this connection has opened, over all windows so far: it
    /// walks the roster in order and a new window carries on where the
    /// last one stopped, or the members late in the order would be
    /// served only on runs fast enough to reach them.
    opened: usize,
    run: ServeRun,
}

/// A connection-level failure: the client gives up.
type Broken = String;

impl Client<'_> {
    /// OPENs a session on `target`; `None` when the server refused it.
    fn open(&mut self, target: usize, op: u64) -> Result<Option<Slot>, Broken> {
        let req = Request::Open {
            tenant: self.tenant.clone(),
            db: DbRef::ByKey(self.targets[target].key),
            max_edits: 0,
        };
        let (resp, secs) = exchange(self.timer, self.conn, op, &req, 1)?;
        match resp.as_slice() {
            [Response::Opened { sid }] => {
                self.run.open_us.push(secs * 1e6);
                Ok(Some(Slot {
                    target,
                    sid: *sid,
                    pos: 0,
                    digest: Digest::default(),
                    op,
                    busy_s: secs,
                }))
            }
            other => {
                eprintln!("azoo-perf: OPEN answered with {other:?}");
                self.run.attempted += 1;
                self.run.failed += 1;
                Ok(None)
            }
        }
    }

    /// FEEDs the slot's next chunk. Returns whether the session is over:
    /// it reached the end of its input, or the server refused the feed.
    fn feed(&mut self, slot: &mut Slot) -> Result<bool, Broken> {
        let input = self.targets[slot.target].input;
        let end = (slot.pos + self.chunk).min(input.len());
        let req = Request::Feed {
            sid: slot.sid,
            eod: end == input.len(),
            data: input[slot.pos..end].to_vec(),
        };
        let (resp, secs) = exchange(self.timer, self.conn, slot.op, &req, 1)?;
        match resp.as_slice() {
            [Response::Reports { reports, .. }] => {
                for &(offset, code) in reports {
                    slot.digest.add(offset, code);
                }
                slot.busy_s += secs;
                slot.pos = end;
                self.run.members[slot.target].us.push(secs * 1e6);
                Ok(end == input.len())
            }
            other => {
                eprintln!("azoo-perf: FEED answered with {other:?}");
                Ok(true)
            }
        }
    }

    /// CLOSEs the session and checks it: every byte fed, every report
    /// as the reference has it.
    fn close(&mut self, mut slot: Slot) -> Result<(), Broken> {
        let target = self.targets[slot.target];
        let req = Request::Close { sid: slot.sid };
        let (resp, secs) = exchange(self.timer, self.conn, slot.op, &req, 2)?;
        let ok = match resp.as_slice() {
            [Response::Reports { reports, .. }, Response::Closed { fed_bytes, .. }] => {
                for &(offset, code) in reports {
                    slot.digest.add(offset, code);
                }
                self.run.close_us.push(secs * 1e6);
                slot.busy_s += secs;
                *fed_bytes == target.input.len() as u64 && slot.digest == target.expected
            }
            other => {
                eprintln!("azoo-perf: CLOSE answered with {other:?}");
                false
            }
        };
        if ok {
            self.run.members[slot.target]
                .session_mbps
                .push(target.input.len() as f64 / 1e6 / slot.busy_s);
        }
        self.run.attempted += 1;
        self.run.failed += u64::from(!ok);
        Ok(())
    }

    /// The closed loop: keep `interleave` sessions open, feed them
    /// round-robin one chunk at a time, reopen each as it finishes, stop
    /// reopening when the window closes.
    fn drive(
        &mut self,
        interleave: usize,
        first_target: usize,
        first_op: u64,
        open_until: Instant,
    ) -> Result<(), Broken> {
        let mut slots: Vec<Option<Slot>> = (0..interleave).map(|_| None).collect();
        loop {
            let mut live = false;
            for cell in &mut slots {
                if cell.is_none() && Instant::now() < open_until {
                    let target = (first_target + self.opened) % self.targets.len();
                    *cell = self.open(target, first_op + self.opened as u64)?;
                    self.opened += 1;
                }
                let Some(slot) = cell else { continue };
                live = true;
                if self.feed(slot)? {
                    let slot = cell.take().expect("checked above");
                    self.close(slot)?;
                }
            }
            if !live {
                return Ok(());
            }
        }
    }
}

/// Runs one serve window on every connection at once and merges what
/// the clients saw. Each client's spans are absorbed into `timer`;
/// `opened` counts, per connection, the sessions opened over all windows.
pub fn run_serve(
    timer: &mut Timer,
    conns: &mut [UnixStream],
    targets: &[Target<'_>],
    traffic: Traffic,
    window: Duration,
    opened: &mut [usize; CONNECTIONS],
) -> ServeRun {
    let start = Instant::now();
    let results: Vec<(ServeRun, Timer, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(opened.iter())
            .enumerate()
            .map(|(c, (conn, &opened))| {
                let mut t = timer.fork();
                scope.spawn(move || {
                    let mut client = Client {
                        timer: &mut t,
                        conn,
                        targets,
                        chunk: traffic.chunk,
                        tenant: format!("conn{c}"),
                        opened,
                        run: ServeRun::new(targets.len()),
                    };
                    // Connections start at different members so they do
                    // not move through the roster in lock step.
                    let first_target = c * targets.len() / CONNECTIONS;
                    let first_op = (c as u64 + 1) << 32;
                    if let Err(e) =
                        client.drive(traffic.interleave, first_target, first_op, start + window)
                    {
                        eprintln!("azoo-perf: connection {c} broke: {e}");
                        client.run.attempted += 1;
                        client.run.failed += 1;
                    }
                    let (run, opened) = (client.run, client.opened);
                    (run, t, opened)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = ServeRun::new(targets.len());
    for (c, (run, t, now_opened)) in results.into_iter().enumerate() {
        total.merge(run);
        timer.absorb(t);
        opened[c] = now_opened;
    }
    total.window_s = window.as_secs_f64();
    total
}
