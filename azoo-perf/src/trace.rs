//! Bench-side span recorder and the one choke point every timed
//! operation goes through.
//!
//! Spans are recorded from outside the program under test, around calls
//! into its public functions; they stay in memory until the run ends.

use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.operation`, e.g. `engines.scan`.
    pub name: &'static str,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Shared by all spans of one operation (one scan, one session).
    pub op_id: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Times operations, optionally recording spans and optionally slowing
/// each operation down (`--inject-slowdown`).
///
/// One per thread; client threads hand theirs back to be
/// [`absorb`](Timer::absorb)ed.
#[derive(Debug)]
pub struct Timer {
    epoch: Instant,
    tracing: bool,
    /// Each timed operation is stretched to this multiple of its real
    /// duration by busy-waiting inside the timed region.
    slowdown: f64,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Timer {
    /// A timer whose spans count from `epoch`.
    pub fn new(epoch: Instant, tracing: bool, slowdown: f64) -> Timer {
        Timer {
            epoch,
            tracing,
            slowdown,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// An empty timer with the same epoch and settings, for another
    /// thread.
    pub fn fork(&self) -> Timer {
        Timer::new(self.epoch, self.tracing, self.slowdown)
    }

    /// A copy that records no spans (for the untraced twin of a traced
    /// slice).
    pub fn untraced(&self) -> Timer {
        Timer::new(self.epoch, false, self.slowdown)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that later spans nest under, until [`exit`](Timer::exit).
    pub fn enter(&mut self, name: &'static str, op_id: u64) {
        if !self.tracing {
            return;
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op_id,
        });
        self.stack.push(idx);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.tracing {
            return;
        }
        if let Some(idx) = self.stack.pop() {
            self.spans[idx as usize].end_ns = self.now_ns();
        }
    }

    /// Runs `f` as one timed operation and returns its result with the
    /// elapsed seconds (slowdown included). Records a leaf span when
    /// tracing.
    pub fn op<R>(&mut self, name: &'static str, op_id: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let t = Instant::now();
        let r = f();
        if self.slowdown > 1.0 {
            let target = t.elapsed().mul_f64(self.slowdown);
            while t.elapsed() < target {
                std::hint::spin_loop();
            }
        }
        let elapsed = t.elapsed();
        if self.tracing {
            let end_ns = self.now_ns();
            self.spans.push(Span {
                name,
                start_ns: end_ns.saturating_sub(elapsed.as_nanos() as u64),
                end_ns,
                parent: self.stack.last().copied(),
                op_id,
            });
        }
        (r, elapsed.as_secs_f64())
    }

    /// Takes over another thread's spans.
    pub fn absorb(&mut self, other: Timer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Per-span self time: duration minus the time its child spans cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let p = p as usize;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Writes the spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Propagates the I/O failure.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"op_id\": {}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op_id
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Timer::new(Instant::now(), true, 1.0);
        t.enter("outer", 1);
        t.op("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit();
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let own = t.self_ns();
        assert!(own[0] < spans[0].end_ns - spans[0].start_ns);
        assert!(own[1] >= 5_000_000);
    }

    #[test]
    fn slowdown_stretches_the_operation() {
        let work = || std::thread::sleep(std::time::Duration::from_millis(10));
        let (_, plain) = Timer::new(Instant::now(), false, 1.0).op("x", 0, work);
        let (_, slowed) = Timer::new(Instant::now(), false, 2.0).op("x", 0, work);
        assert!(plain >= 0.010 && slowed >= 0.020, "{plain} {slowed}");
    }

    #[test]
    fn absorbing_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Timer::new(epoch, true, 1.0);
        a.op("a", 0, || ());
        let mut b = a.fork();
        b.enter("outer", 1);
        b.op("inner", 1, || ());
        b.exit();
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
