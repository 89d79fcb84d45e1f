//! Order statistics used by every workload and by `compare`.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
///
/// Returns `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank percentile `p`: how many
/// observations support that tail estimate.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Sort a sample set ascending (NaN-free by construction: every sample
/// is a measured duration or ratio).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample set (mean of the two middle samples
/// for an even count). `None` when empty.
pub fn median(v: &[f64]) -> Option<f64> {
    let s = sorted(v.to_vec());
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile by the "exclusive" method
/// of Python's `statistics.quantiles(values, n=4)`, so a spread computed
/// here matches one computed from the printed results with Python.
/// Needs at least two samples.
pub fn quartiles(v: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(v.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Throughput measured in passes: each pass accumulates bytes and
/// seconds over a fixed group of calls, and the reported rate is the
/// median pass rate — a stall that hits one pass moves the result by
/// at most one rank.
#[derive(Default)]
pub struct Passes {
    done: Vec<f64>,
    bytes: f64,
    secs: f64,
    calls: usize,
}

impl Passes {
    /// Add one call of `bytes` input that took `secs`; close the pass
    /// after `per_pass` calls.
    pub fn add(&mut self, bytes: usize, secs: f64, per_pass: usize) {
        self.bytes += bytes as f64;
        self.secs += secs;
        self.calls += 1;
        if self.calls >= per_pass {
            self.done.push(self.bytes / 1e6 / self.secs);
            (self.bytes, self.secs, self.calls) = (0.0, 0.0, 0);
        }
    }

    /// Median pass rate in MB/s and the number of complete passes.
    pub fn median_mbps(&self) -> (f64, usize) {
        (median(&self.done).unwrap_or(0.0), self.done.len())
    }
}

/// Per-operation latencies of a run and how many met its latency limit.
pub struct CallLog {
    pub limit_ms: f64,
    pub lat_ms: Vec<f64>,
    pub within: usize,
}

impl CallLog {
    pub fn new(limit_ms: f64) -> CallLog {
        CallLog {
            limit_ms,
            lat_ms: Vec::new(),
            within: 0,
        }
    }

    /// Log one operation; only a successful one can meet the limit.
    pub fn push(&mut self, ms: f64, ok: bool) {
        self.lat_ms.push(ms);
        if ok && ms <= self.limit_ms {
            self.within += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // 1000 samples: p99 is the 990th value, with 10 samples beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
    }

    #[test]
    fn sample_counts_beyond_the_tail() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(100, 50.0), 50);
        assert_eq!(samples_beyond(1, 99.0), 0);
        assert_eq!(samples_beyond(0, 99.0), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some([1.0, 3.0, 5.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn passes_report_the_median_rate() {
        let mut p = Passes::default();
        for secs in [1.0, 1.0, 2.0, 2.0, 0.5, 0.5] {
            p.add(1_000_000, secs, 2);
        }
        // pass rates 1.0, 0.5 and 2.0 MB/s; a half-open pass is ignored.
        p.add(1_000_000, 9.0, 2);
        assert_eq!(p.median_mbps(), (1.0, 3));
    }
}
