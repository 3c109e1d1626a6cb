//! Pieces every workload shares: the seeded generator, pixel hashing for
//! output checks, process memory, the run directory, and the metric and
//! check accumulators a workload fills.

use smol_imgproc::ImageU8;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// SplitMix64: small, seedable and stable across platforms and releases,
/// so the same seed gives the same inputs everywhere.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_ba5e_d00d_f00d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `k` distinct indices of `0..n`, ascending.
    pub fn sample(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx.truncate(k.min(n));
        idx.sort_unstable();
        idx
    }
}

/// Send offsets of a Poisson process conditioned on exactly `n` arrivals
/// in `[0, span)`: sorted uniform draws. Fixing the count keeps the
/// offered work identical across seeds; only the timing varies.
pub fn poisson_offsets(rng: &mut Rng, n: usize, span: Duration) -> Vec<Duration> {
    let mut t: Vec<f64> = (0..n).map(|_| rng.unit() * span.as_secs_f64()).collect();
    t.sort_by(f64::total_cmp);
    t.into_iter().map(Duration::from_secs_f64).collect()
}

/// FNV-1a over the raw pixel buffer: the bit-identity witness the output
/// checks compare against a direct decode.
pub fn pixel_hash(img: &ImageU8) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut chunks = img.data().chunks_exact(8);
    for c in &mut chunks {
        let word = u64::from_le_bytes(c.try_into().expect("exact chunk"));
        h = (h ^ word).wrapping_mul(0x0100_0000_01b3);
    }
    for &b in chunks.remainder() {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Resident set of this process in MiB (`VmRSS`; 0 where procfs is
/// missing).
fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Samples the resident set every 10 ms on a background thread while a
/// timed phase runs, so the peak leaves out input generation and set-up.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<f64>,
}

impl RssSampler {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut peak = rss_mb();
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(10));
                peak = peak.max(rss_mb());
            }
            peak
        });
        RssSampler { stop, handle }
    }

    /// Stops sampling and returns the peak, MiB.
    pub fn stop(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("RSS sampler panicked")
    }
}

/// Where runs leave their records, traces and temporary stores: a
/// directory in the working directory (the checkout root).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(".perfbench_out");
    std::fs::create_dir_all(&dir).expect("create the run output directory");
    dir
}

/// A per-process scratch directory under [`out_dir`], removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Self {
        let path = out_dir().join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create a temporary directory");
        TempDir(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `f(i)` for `i in 0..n` on two threads and returns the results in
/// index order. Input generation only; never timed.
pub fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let f = &f;
    let mut halves: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|k| s.spawn(move || (k..n).step_by(2).map(|i| (i, f(i))).collect()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("input generation thread panicked"))
            .collect()
    });
    let mut all: Vec<(usize, T)> = halves.drain(..).flatten().collect();
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, t)| t).collect()
}

/// Metric values by name, plus the human-readable notes printed with
/// them (tail levels and sample counts).
#[derive(Default)]
pub struct Metrics {
    pub values: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }
}

/// Output checks: each failure is named, and counts in `failed`.
#[derive(Default)]
pub struct Checks {
    pub passed: usize,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            self.failures.push(what());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_schedules_are_deterministic() {
        let span = Duration::from_secs(10);
        let a = poisson_offsets(&mut Rng::new(7), 100, span);
        let b = poisson_offsets(&mut Rng::new(7), 100, span);
        let c = poisson_offsets(&mut Rng::new(8), 100, span);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "another seed moves the sends");
        assert_eq!(a.len(), 100, "the send count is fixed, not drawn");
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|t| *t < span));
        let mut r1 = Rng::new(3);
        let mut r2 = Rng::new(3);
        assert_eq!(r1.sample(50, 10), r2.sample(50, 10));
        let s = Rng::new(3).sample(50, 10);
        assert!(s.windows(2).all(|w| w[0] < w[1]) && s.len() == 10);
    }

    #[test]
    fn par_map_keeps_index_order() {
        assert_eq!(par_map(7, |i| i * i), vec![0, 1, 4, 9, 16, 25, 36]);
    }
}
