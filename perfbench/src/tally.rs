//! What one measurement window counted, and the statistics over it.
//!
//! The host is shared, and other tenants slow it down, mostly in bursts
//! of a second or more. A window's ops are therefore split into
//! [`GROUPS`] consecutive groups, and each timing is that of the least
//! disturbed group: the highest group throughput, the lowest group
//! median, the lowest group 90th percentile. A burst then moves a result
//! only if it covers every group. On a quiet host the groups agree.

use std::time::{Duration, Instant};

use crate::alloc;

/// Samples a window keeps; the buffer is reserved up front so recording
/// a sample never allocates inside the window.
const MAX_SAMPLES: usize = 1 << 20;
/// Groups the samples of a window are split into.
const GROUPS: usize = 16;
/// Fewest samples per group (fewer groups when samples are scarce).
const MIN_GROUP: usize = 10;

/// One op, or one batch of ops timed together.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Completion time, seconds after the window's start.
    end_s: f64,
    /// Latency of one op, microseconds.
    lat_us: f32,
    /// Ops the sample covers.
    ops: u32,
}

/// Ops, failures, latencies and allocations of one measurement window.
#[derive(Debug)]
pub(crate) struct Tally {
    origin: Instant,
    /// The harness's own buffer: kept out of the workload's live heap.
    samples: Vec<Sample>,
    /// Samples are timed batches whose wall time also covers untimed
    /// work, so throughput comes from their timed part alone.
    batched: bool,
    /// Ops attempted.
    pub ops: u64,
    /// Ops whose output check failed.
    pub failed: u64,
    /// Allocations counted, and the ops they were counted over.
    allocs: u64,
    alloc_ops: u64,
}

impl Drop for Tally {
    fn drop(&mut self) {
        let samples = std::mem::take(&mut self.samples);
        alloc::untracked(|| drop(samples));
    }
}

impl Tally {
    pub fn new() -> Tally {
        Tally {
            origin: Instant::now(),
            samples: alloc::untracked(|| Vec::with_capacity(MAX_SAMPLES)),
            batched: false,
            ops: 0,
            failed: 0,
            allocs: 0,
            alloc_ops: 0,
        }
    }

    /// Records `ops` ops that just completed, each taking `lat_us`.
    pub fn op(&mut self, ops: u64, lat_us: f64, ok: bool) {
        self.ops += ops;
        if !ok {
            self.failed += ops;
        }
        // Within capacity, so the push never reallocates.
        if self.samples.len() < MAX_SAMPLES {
            self.samples.push(Sample {
                end_s: self.origin.elapsed().as_secs_f64(),
                lat_us: lat_us as f32,
                ops: u32::try_from(ops).unwrap_or(u32::MAX),
            });
        }
    }

    /// Records a batch of `ops` ops timed together over `secs`, inside
    /// an iteration that also did untimed work.
    pub fn batch(&mut self, ops: u64, secs: f64, ok: bool) {
        self.batched = true;
        self.op(ops, secs * 1e6 / ops as f64, ok);
    }

    /// Adds `allocs` allocations made by `ops` ops.
    pub fn allocated(&mut self, allocs: u64, ops: u64) {
        self.allocs += allocs;
        self.alloc_ops += ops;
    }

    pub fn allocs_per_op(&self) -> f64 {
        self.allocs as f64 / self.alloc_ops.max(1) as f64
    }

    /// The samples split into consecutive groups of (nearly) equal size,
    /// each with the wall time since the previous group ended.
    fn groups(&self) -> Vec<(&[Sample], f64)> {
        let n = self.samples.len();
        let g = (n / MIN_GROUP).clamp(1, GROUPS);
        let mut prev_end = 0.0;
        (0..g)
            .map(|i| {
                let group = &self.samples[i * n / g..(i + 1) * n / g];
                let end = group.last().map_or(prev_end, |s| s.end_s);
                let span = end - prev_end;
                prev_end = end;
                (group, span)
            })
            .collect()
    }

    /// The highest group throughput. For timed batches a group's
    /// throughput is its ops over their timed part alone.
    pub fn ops_per_s(&self) -> f64 {
        self.groups()
            .iter()
            .map(|(group, span)| {
                let ops: f64 = group.iter().map(|s| f64::from(s.ops)).sum();
                let secs = if self.batched {
                    group
                        .iter()
                        .map(|s| f64::from(s.ops) * f64::from(s.lat_us) * 1e-6)
                        .sum()
                } else {
                    *span
                };
                ops / secs
            })
            .fold(0.0, f64::max)
    }

    /// The lowest group `p`-th latency percentile.
    pub fn latency_us(&self, p: f64) -> f64 {
        self.groups()
            .iter()
            .map(|(group, _)| {
                let lat: Vec<f64> = group.iter().map(|s| f64::from(s.lat_us)).collect();
                percentile(&lat, p)
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Folds another client's window into this one, in completion order.
    pub fn merge(&mut self, mut other: Tally) {
        let shift = if other.origin >= self.origin {
            (other.origin - self.origin).as_secs_f64()
        } else {
            -(self.origin - other.origin).as_secs_f64()
        };
        let theirs = std::mem::take(&mut other.samples);
        alloc::untracked(|| {
            self.samples.extend(theirs.iter().map(|s| Sample {
                end_s: s.end_s + shift,
                ..*s
            }));
            drop(theirs);
        });
        self.samples
            .sort_unstable_by(|a, b| a.end_s.total_cmp(&b.end_s));
        self.batched |= other.batched;
        self.ops += other.ops;
        self.failed += other.failed;
        self.allocs += other.allocs;
        self.alloc_ops += other.alloc_ops;
    }
}

/// Runs `cycle` until `window` has elapsed, looking at the clock only
/// between cycles, so a window always holds whole cycles (at least one).
pub(crate) fn measure(window: Duration, mut cycle: impl FnMut(&mut Tally)) -> Tally {
    let mut tally = Tally::new();
    loop {
        cycle(&mut tally);
        if tally.origin.elapsed() >= window {
            return tally;
        }
    }
}

/// Runs `setup` [`SETUPS`] times and returns the last result with the
/// median set-up time in seconds.
pub(crate) fn setup_median<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("SETUPS >= 1"), median(&secs))
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Nearest-rank percentile of unsorted samples; 0 when empty.
pub(crate) fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub(crate) fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Microseconds elapsed since `t0`.
pub(crate) fn us_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 5.0);
        assert_eq!(percentile(&xs, 0.9), 9.0);
        assert_eq!(percentile(&xs, 1.0), 10.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn a_slow_burst_in_some_groups_does_not_move_the_results() {
        let mut t = Tally::new();
        let mut end_s = 0.0;
        for i in 0..1600 {
            // Ops 0..1000 (10 of the 16 groups) run ten times slower.
            let lat_us: f32 = if i < 1000 { 1000.0 } else { 100.0 };
            end_s += f64::from(lat_us) * 1e-6;
            t.samples.push(Sample {
                end_s,
                lat_us,
                ops: 1,
            });
        }
        assert_eq!(t.latency_us(0.9), 100.0);
        assert!((t.ops_per_s() - 1e4).abs() < 1.0);
    }
}
