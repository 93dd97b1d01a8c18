//! Operation accounting and the end-to-end metrics derived from it.

use std::collections::BTreeMap;
use std::time::Duration;

/// The operation kinds every workload mixes, one latency series each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    Decide,
    Count,
    Page,
    AnswerCount,
    Delta,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::Decide,
        Kind::Count,
        Kind::Page,
        Kind::AnswerCount,
        Kind::Delta,
    ];

    /// The metric-name stem of the kind (`decide_p50_ms`, ...).
    pub fn name(self) -> &'static str {
        match self {
            Kind::Decide => "decide",
            Kind::Count => "count",
            Kind::Page => "page",
            Kind::AnswerCount => "answer_count",
            Kind::Delta => "delta",
        }
    }
}

/// Latencies and failures of one operation kind.  A failed operation
/// (typed refusal, error, timeout or caught panic) is kept as an infinite
/// latency, so it misses every latency limit and pushes the tail up.
#[derive(Debug, Default, Clone)]
pub struct Series {
    pub latencies_ms: Vec<f64>,
    pub failed: u64,
}

impl Series {
    pub fn attempted(&self) -> u64 {
        self.latencies_ms.len() as u64
    }
}

/// Per-kind series of one measured window.
#[derive(Debug, Default, Clone)]
pub struct Recorder {
    pub series: BTreeMap<Kind, Series>,
    /// Succeeded operations and wall time of every whole block run.
    pub blocks: Vec<(u64, Duration)>,
    /// Peak resident set after set-up and the first [`RSS_BLOCKS`] blocks.
    pub rss_mb: Option<f64>,
    /// Wall time of the measured window (set-up and input generation
    /// excluded).
    pub window: Duration,
}

impl Recorder {
    pub fn ok(&mut self, kind: Kind, latency: Duration) {
        self.series
            .entry(kind)
            .or_default()
            .latencies_ms
            .push(latency.as_secs_f64() * 1e3);
    }

    pub fn fail(&mut self, kind: Kind) {
        let s = self.series.entry(kind).or_default();
        s.latencies_ms.push(f64::INFINITY);
        s.failed += 1;
    }

    /// Close a block: `succeeded` operations in `wall` time.
    pub fn block(&mut self, succeeded: u64, wall: Duration) {
        self.blocks.push((succeeded, wall));
        if self.blocks.len() == RSS_BLOCKS {
            self.rss_mb = peak_rss_mb();
        }
    }

    pub fn attempted(&self) -> u64 {
        self.series.values().map(Series::attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.series.values().map(|s| s.failed).sum()
    }
}

/// The median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it: the order
/// statistic at 0-based rank `n - 11`, and the share of samples at or below
/// it, in percent.  Samples of ten or fewer fall back to the maximum.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10 {
        return (v[n - 1], 100.0);
    }
    let rank = n - 11;
    (v[rank], 100.0 * (rank + 1) as f64 / n as f64)
}

/// Blocks after which `peak_rss_mb` is read: a fixed amount of work, so
/// that memory the run keeps for its checks, and allocator growth over
/// many rounds, do not grow the figure with the machine's speed (read at
/// the window's end, it moved 15% with the number of blocks run).
pub const RSS_BLOCKS: usize = 12;

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A metric value with its unit, printed in the result line.
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// Every end-to-end metric of one run, and notes on its blocks and
/// operation kinds.
///
/// `ops_per_s` is the median over blocks of a block's succeeded operations
/// over its wall time.  Every block holds the same mix, so its blocks are
/// repeated measurements of one quantity, and the median keeps a stall of
/// the machine in a few blocks out of the figure.
pub fn end_to_end(rec: &Recorder, setup_s: f64) -> (BTreeMap<String, Metric>, Vec<String>) {
    let mut out = BTreeMap::new();
    out.insert(
        "setup_s".to_string(),
        Metric {
            value: setup_s,
            unit: "s",
        },
    );
    let rates: Vec<f64> = rec
        .blocks
        .iter()
        .map(|&(ops, wall)| ops as f64 / wall.as_secs_f64())
        .collect();
    out.insert(
        "ops_per_s".to_string(),
        Metric {
            value: median(&rates),
            unit: "1/s",
        },
    );
    if let Some(mb) = rec.rss_mb.or_else(peak_rss_mb) {
        out.insert(
            "peak_rss_mb".to_string(),
            Metric {
                value: mb,
                unit: "MB",
            },
        );
    }
    let block_ms: Vec<f64> = rec
        .blocks
        .iter()
        .map(|(_, wall)| wall.as_secs_f64() * 1e3)
        .collect();
    let mut notes = vec![format!(
        "blocks: {}, wall time p50 {:.3} ms, tail {:.3} ms",
        block_ms.len(),
        median(&block_ms),
        tail(&block_ms).0
    )];
    let (latencies, kind_notes) = kind_latencies(rec);
    notes.extend(kind_notes);
    for (name, m) in latencies {
        notes.push(format!("{name} {:.6} {}", m.value, m.unit));
    }
    (out, notes)
}

/// `<kind>_p50_ms` and `<kind>_tail_ms` of every operation kind of the
/// window, and a note per kind on its counts and tail percentile.  Failed
/// operations sit at +inf in the latency series; a percentile that lands
/// on one is reported as the `FAILED_MS` sentinel so the result line stays
/// valid JSON.
pub fn kind_latencies(rec: &Recorder) -> (BTreeMap<String, Metric>, Vec<String>) {
    const FAILED_MS: f64 = 1e9;
    let finite = |x: f64| if x.is_finite() { x } else { FAILED_MS };
    let mut out = BTreeMap::new();
    let mut notes = Vec::new();
    for kind in Kind::ALL {
        let Some(s) = rec.series.get(&kind).filter(|s| !s.latencies_ms.is_empty()) else {
            continue;
        };
        let (tail_ms, pct) = tail(&s.latencies_ms);
        out.insert(
            format!("{}_p50_ms", kind.name()),
            Metric {
                value: finite(median(&s.latencies_ms)),
                unit: "ms",
            },
        );
        out.insert(
            format!("{}_tail_ms", kind.name()),
            Metric {
                value: finite(tail_ms),
                unit: "ms",
            },
        );
        notes.push(format!(
            "{}: {} attempted, {} succeeded, {} failed, tail = p{pct:.2} of {} samples",
            kind.name(),
            s.attempted(),
            s.attempted() - s.failed,
            s.failed,
            s.latencies_ms.len()
        ));
    }
    (out, notes)
}
