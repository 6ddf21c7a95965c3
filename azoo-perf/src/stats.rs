//! Sample statistics, the report digest, and the small JSON helpers
//! every module shares.

use azoo_core::json::Json;
use azoo_core::ReportCode;
use azoo_engines::ReportSink;

/// Linear-interpolated quantile of unsorted samples (`q` in `0..=1`);
/// `0.0` for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(v, n=4)`
/// gives (the driver's spread); `0.0` below two values.
pub fn spread(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let med = median(&v);
    if med == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)) / med.abs()
    }
}

/// Geometric mean of positive values; `0.0` for an empty set.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values
        .iter()
        .map(|v| v.max(f64::MIN_POSITIVE).ln())
        .sum::<f64>()
        / values.len() as f64)
        .exp()
}

/// Report count plus an order-independent digest of the
/// `(offset, code)` stream.
///
/// Each report is hashed FNV-1a style over its two words and the
/// hashes are summed, so engines that emit same-offset reports in
/// different orders (which the suite allows) agree without sorting
/// millions of reports inside a timed region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    /// Reports seen.
    pub count: u64,
    /// Wrapping sum of the per-report hashes.
    pub sum: u64,
}

impl Digest {
    /// Folds one report in.
    #[inline]
    pub fn add(&mut self, offset: u64, code: u32) {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        h = (h ^ offset).wrapping_mul(PRIME);
        h = (h ^ u64::from(code)).wrapping_mul(PRIME);
        self.count += 1;
        self.sum = self.sum.wrapping_add(h ^ (h >> 29));
    }
}

impl ReportSink for Digest {
    #[inline]
    fn report(&mut self, offset: u64, code: ReportCode) {
        self.add(offset, code.0);
    }
}

/// `VmHWM` of this process in MB (0 when `/proc` is unreadable).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON number that keeps every measured digit (non-finite → 0).
pub fn num(x: f64) -> Json {
    Json::Float(if x.is_finite() { x } else { 0.0 })
}

/// Builds a JSON object from `(key, value)` pairs.
pub fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The numeric payload of an `Int` or `Float`.
pub fn as_f64(j: &Json) -> Option<f64> {
    match j {
        Json::Int(n) => Some(*n as f64),
        Json::Float(x) => Some(*x),
        _ => None,
    }
}

/// One-line serialization (the driver reads the last stdout line).
pub fn compact(j: &Json) -> String {
    match j {
        Json::Arr(items) => {
            let inner: Vec<String> = items.iter().map(compact).collect();
            format!("[{}]", inner.join(", "))
        }
        Json::Obj(members) => {
            let inner: Vec<String> = members
                .iter()
                .map(|(k, v)| format!("{}: {}", Json::Str(k.clone()).pretty(), compact(v)))
                .collect();
            format!("{{{}}}", inner.join(", "))
        }
        scalar => scalar.pretty(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 10], n=4) == [1.5, 3.0, 7.0]
        assert!((spread(&[3.0, 1.0, 10.0, 2.0, 4.0]) - 5.5 / 3.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((spread(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn digest_ignores_order_but_not_content() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.add(5, 1);
        a.add(5, 2);
        b.add(5, 2);
        b.add(5, 1);
        assert_eq!(a, b);
        let mut c = Digest::default();
        c.add(5, 1);
        c.add(6, 2);
        assert_ne!(a, c);
    }

    #[test]
    fn compact_round_trips() {
        let j = obj([
            ("a", Json::Arr(vec![num(1.5), Json::Int(2)])),
            ("b", Json::Str("x\"y".into())),
        ]);
        let text = compact(&j);
        assert!(!text.contains('\n'));
        assert_eq!(azoo_core::json::parse(&text).unwrap(), j);
    }
}
