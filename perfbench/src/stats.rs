//! Order statistics over timing samples.

use std::fmt;

/// The `q`-quantile of `samples` by nearest rank (`q` in `[0, 1]`); 0 for
/// an empty sample set, so a layer that did no work reports zero.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Arithmetic mean; 0 for an empty sample set.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Median and 90th percentile of one sample set, with its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
}

impl Summary {
    /// Summarize `samples`.
    pub fn of(samples: &[f64]) -> Summary {
        Summary {
            n: samples.len(),
            p50: quantile(samples, 0.5),
            p90: quantile(samples, 0.9),
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p50 {:.1} p90 {:.1} (n={})", self.p50, self.p90, self.n)
    }
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MiB, read from
/// `/proc`; `None` where that file is unavailable.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
