//! Report sinks: destinations for match events.

use azoo_core::ReportCode;

/// A single match event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Report {
    /// Zero-based offset of the input symbol on which the report fired.
    pub offset: u64,
    /// The reporting element's code.
    pub code: ReportCode,
}

/// Destination for reports emitted during a scan.
pub trait ReportSink {
    /// Receives one report.
    fn report(&mut self, offset: u64, code: ReportCode);
}

/// Discards all reports. Useful for pure-throughput measurements.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl NullSink {
    /// Creates a discarding sink.
    pub fn new() -> Self {
        NullSink
    }
}

impl ReportSink for NullSink {
    fn report(&mut self, _offset: u64, _code: ReportCode) {}
}

/// Counts reports without storing them.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountSink {
    count: u64,
}

impl CountSink {
    /// Creates a counting sink.
    pub fn new() -> Self {
        CountSink::default()
    }

    /// Total reports received.
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl ReportSink for CountSink {
    fn report(&mut self, _offset: u64, _code: ReportCode) {
        self.count += 1;
    }
}

/// Collects every report in order of arrival.
#[derive(Debug, Clone, Default)]
pub struct CollectSink {
    reports: Vec<Report>,
}

impl CollectSink {
    /// Creates a collecting sink.
    pub fn new() -> Self {
        CollectSink::default()
    }

    /// The reports received so far.
    pub fn reports(&self) -> &[Report] {
        &self.reports
    }

    /// Consumes the sink, returning its reports.
    pub fn into_reports(self) -> Vec<Report> {
        self.reports
    }

    /// Reports sorted by `(offset, code)` — the canonical order used to
    /// compare report streams across engines (engines may emit same-offset
    /// reports in different orders).
    pub fn sorted_reports(&self) -> Vec<Report> {
        let mut v = self.reports.clone();
        v.sort_unstable();
        v
    }
}

impl ReportSink for CollectSink {
    fn report(&mut self, offset: u64, code: ReportCode) {
        self.reports.push(Report { offset, code });
    }
}

/// Appends every report in order of arrival.
impl ReportSink for Vec<Report> {
    fn report(&mut self, offset: u64, code: ReportCode) {
        self.push(Report { offset, code });
    }
}

/// Rebases slice-relative offsets by `base` and drops reports below
/// `min`, the first offset the caller owns.
pub(crate) struct RebaseSink<'a> {
    pub(crate) base: u64,
    pub(crate) min: u64,
    pub(crate) out: &'a mut Vec<Report>,
}

impl ReportSink for RebaseSink<'_> {
    fn report(&mut self, offset: u64, code: ReportCode) {
        let offset = offset + self.base;
        if offset >= self.min {
            self.out.push(Report { offset, code });
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn count_sink_counts() {
        let mut s = CountSink::new();
        s.report(0, ReportCode(1));
        s.report(5, ReportCode(2));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn collect_sink_preserves_order_and_sorts() {
        let mut s = CollectSink::new();
        s.report(5, ReportCode(2));
        s.report(5, ReportCode(1));
        s.report(2, ReportCode(9));
        assert_eq!(s.reports().len(), 3);
        let sorted = s.sorted_reports();
        assert_eq!(sorted[0].offset, 2);
        assert_eq!(sorted[1].code, ReportCode(1));
        assert_eq!(sorted[2].code, ReportCode(2));
    }

    #[test]
    fn null_sink_ignores() {
        let mut s = NullSink::new();
        s.report(1, ReportCode(1));
    }
}
