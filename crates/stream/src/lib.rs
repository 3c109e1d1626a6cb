//! # smol-stream
//!
//! Live-stream serving: continuous video queries over unbounded sources,
//! with deadline-driven downgrading and frame dropping.
//!
//! Batch serving hands the [`smol_serve::Server`] every GOP at once and
//! lets latency float; a *live* source produces GOPs at wall-clock rate,
//! and a decoder that falls behind must pay **fidelity** — cheaper plans,
//! ultimately shed GOPs — never unbounded queueing. This crate closes
//! that loop:
//!
//! * [`StreamSource`] — pull-based timed GOP sources ([`FeedSource`]
//!   adapts a [`smol_data::StreamFeed`]);
//! * [`run_stream`] — the pacing scheduler: a driver thread releases
//!   GOPs at their arrival times, measures how far behind arrival the
//!   oldest in-flight GOP is and projects when this GOP would resolve
//!   behind the work already committed, and maps both through a
//!   [`smol_core::PacingPolicy`] onto a rung of the query's calibrated
//!   [`StreamLadder`] (deblock-skip, strided
//!   and keyframe-only selections — whatever the planner's frontier
//!   orders next) or onto dropping the GOP outright. Every rung sits at
//!   or above the constraint's accuracy floor, so floor violations are
//!   zero by construction;
//! * [`StreamHandle`] — windowed results: per-frame values (e.g. object
//!   counts) roll up into tumbling stream-time windows
//!   ([`smol_analytics::WindowRollup`]), each closing once its GOPs have
//!   resolved or been shed, with per-window drop/downgrade/staleness
//!   accounting ([`WindowResult`]) and stream-level [`StreamStats`].
//!
//! Frame-level loss also folds into the server's aggregate counters
//! ([`smol_serve::ServerStats::dropped_frames`] /
//! [`ServerStats::downgraded_frames`](smol_serve::ServerStats::downgraded_frames))
//! via [`smol_serve::Server::record_frame_loss`].

use crossbeam::channel;
use smol_analytics::WindowRollup;
use smol_core::{DecodeMode, FrameSelection};
// The policy types live in `smol_core` (pure, unit-testable); re-export
// them so stream users need only this crate.
pub use smol_core::{PaceDecision, PacingPolicy};
use smol_data::StreamFeed;
use smol_imgproc::ImageU8;
use smol_runtime::MediaItem;
use smol_serve::{
    percentile, Priority, Query, QueryHandle, Session, SessionError, StreamLadder, SubmitOptions,
};
use smol_video::EncodedGop;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The per-frame inference callback: `(global frame position, decoded
/// frame) -> sample value`, shared with the driver thread.
type CountFn = Arc<dyn Fn(usize, &ImageU8) -> f64 + Send + Sync>;

/// One GOP released by a [`StreamSource`]: the encoded item, its frame
/// position in the stream, and its wall-clock arrival offset.
#[derive(Debug, Clone)]
pub struct StreamGop {
    pub gop: EncodedGop,
    /// Stream position of the GOP's first frame.
    pub start_frame: usize,
    /// Wall-clock arrival offset from stream start (the driver sleeps
    /// until this before the GOP exists, and lag is measured against it).
    pub arrival: Duration,
}

/// A pull-based timed GOP source. `next_gop` returns GOPs in arrival
/// order; the pacing driver sleeps out each arrival offset, so sources
/// are pure schedules — no clocks of their own.
pub trait StreamSource {
    /// The next GOP, or `None` when the stream ends (a finite clip; live
    /// cameras simply never return `None` until stopped).
    fn next_gop(&mut self) -> Option<StreamGop>;
    /// Source frame rate (stream time).
    fn fps(&self) -> f64;
    /// Stream-seconds per wall-second (1.0 = real time; > 1 compresses).
    fn time_scale(&self) -> f64;
}

/// Adapts a [`StreamFeed`] (corpus + arrival schedule) into a
/// [`StreamSource`].
#[derive(Debug, Clone)]
pub struct FeedSource {
    feed: StreamFeed,
    next: usize,
}

impl FeedSource {
    pub fn new(feed: StreamFeed) -> Self {
        FeedSource { feed, next: 0 }
    }
}

impl From<StreamFeed> for FeedSource {
    fn from(feed: StreamFeed) -> Self {
        FeedSource::new(feed)
    }
}

impl StreamSource for FeedSource {
    fn next_gop(&mut self) -> Option<StreamGop> {
        let gop = self.feed.corpus.gops.get(self.next)?.clone();
        let arrival = self.feed.arrivals[self.next];
        self.next += 1;
        Some(StreamGop {
            start_frame: gop.start_frame,
            gop,
            arrival,
        })
    }

    fn fps(&self) -> f64 {
        self.feed.corpus.fps
    }

    fn time_scale(&self) -> f64 {
        self.feed.time_scale
    }
}

/// Configuration of one continuous query.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Output window length in *stream* seconds (windows tumble; frames
    /// land by stream position, so `time_scale` never changes which
    /// window a frame belongs to).
    pub window_s: f64,
    /// The lag → rung/drop policy ([`PacingPolicy::disabled`] is the
    /// lesion: never downgrade, never drop, lag grows without bound).
    pub policy: PacingPolicy,
    /// Admission priority of the per-GOP queries.
    pub priority: Priority,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            window_s: 1.0,
            policy: PacingPolicy::default(),
            priority: Priority::Normal,
        }
    }
}

/// One closed stream-time window's results and accounting.
#[derive(Debug, Clone)]
pub struct WindowResult {
    /// Window position in the stream (0 = first).
    pub index: usize,
    /// Stream-time span the window covers, in seconds.
    pub start_s: f64,
    pub end_s: f64,
    /// Mean per-frame value (e.g. object count) over the window's
    /// executed frames; 0.0 when nothing executed.
    pub mean: f64,
    /// Executed frames that contributed to `mean`.
    pub samples: usize,
    /// Frames the source actually produced in this window.
    pub expected_frames: usize,
    /// Executed outputs attributed to this window.
    pub frames_decoded: usize,
    /// Executed outputs that ran on a rung below the base plan.
    pub frames_downgraded: usize,
    /// Frames of GOPs the pacer shed that fall in this window.
    pub frames_dropped: usize,
    /// Fraction of `expected_frames` covered by a GOP that produced at
    /// least one output (a keyframe-only downgrade still *covers* its
    /// GOP; only shed GOPs lose coverage).
    pub coverage: f64,
    /// Wall seconds between the window's stream end and the moment it
    /// closed — the staleness of this result.
    pub output_lag_s: f64,
}

/// Whole-stream accounting, returned by [`StreamHandle::finish`].
#[derive(Debug, Clone, Default)]
pub struct StreamStats {
    pub gops_arrived: usize,
    pub gops_submitted: usize,
    /// Submitted on a rung below the base plan.
    pub gops_downgraded: usize,
    /// Shed by the pacer (or refused by admission) without submission.
    pub gops_dropped: usize,
    /// Frames across all arrived GOPs.
    pub frames_total: usize,
    /// Executed outputs across all resolved GOPs.
    pub frames_decoded: usize,
    /// Executed outputs that ran on a rung below the base plan.
    pub frames_downgraded: usize,
    /// Frames of shed GOPs, plus failed/skipped outputs of resolved ones.
    pub frames_dropped: usize,
    /// Windows emitted.
    pub windows: usize,
    /// Mean per-window coverage.
    pub window_coverage: f64,
    /// Per-GOP arrival → resolution wall lag percentiles.
    pub lag_p50_s: f64,
    pub lag_p95_s: f64,
    /// 95th-percentile window staleness ([`WindowResult::output_lag_s`]).
    pub output_lag_p95_s: f64,
    /// Resolved queries whose reported accuracy fell below the floor —
    /// zero by construction (every ladder rung is at or above it).
    pub floor_violations: usize,
    /// Deepest ladder rung any GOP ran on (0 = never downgraded).
    pub max_rung: usize,
}

/// A running continuous query: windowed results as they close, a stop
/// switch, and final stats. Dropping the handle stops the stream and
/// joins the driver.
pub struct StreamHandle {
    rx: channel::Receiver<WindowResult>,
    join: Option<std::thread::JoinHandle<StreamStats>>,
    stop: Arc<AtomicBool>,
}

impl StreamHandle {
    /// Blocks for the next closed window; `None` once the stream ended
    /// and every window has been taken.
    pub fn next_window(&self) -> Option<WindowResult> {
        self.rx.recv().ok()
    }

    /// Bounded wait for the next window: `None` at the timeout — the
    /// stream may well still be running (an unbounded source never
    /// "completes"; this is the poll loop's building block).
    pub fn next_window_deadline(&self, timeout: Duration) -> Option<WindowResult> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Non-blocking: the next window if one has already closed.
    pub fn try_next(&self) -> Option<WindowResult> {
        self.rx.try_recv().ok()
    }

    /// Asks the driver to stop after the GOP it is currently handling;
    /// in-flight work is abandoned (its frames count as dropped).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Waits for the stream to end (call [`StreamHandle::stop`] first
    /// for unbounded sources) and returns the final stats. Windows not
    /// yet taken from the handle are discarded — drain with
    /// [`StreamHandle::next_window`] first if you want them.
    pub fn finish(mut self) -> StreamStats {
        let join = self.join.take().expect("finish consumes the only join");
        join.join().expect("stream driver panicked")
    }
}

impl Drop for StreamHandle {
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            self.stop.store(true, Ordering::Relaxed);
            let _ = join.join();
        }
    }
}

/// Starts a continuous query: derives the per-GOP serving ladder from
/// the query's constraint ([`Session::stream_ladder`]), then spawns a
/// driver thread that releases `source`'s GOPs at their arrival times,
/// paces them through `cfg.policy`, and rolls per-frame values of
/// `count` (called as `count(stream_frame_position, &decoded_frame)`)
/// into tumbling windows.
///
/// Planning errors surface synchronously; everything after is reported
/// through the returned [`StreamHandle`].
pub fn run_stream<S, F>(
    session: &Arc<Session>,
    query: &Query,
    source: S,
    cfg: StreamConfig,
    count: F,
) -> Result<StreamHandle, SessionError>
where
    S: StreamSource + Send + 'static,
    F: Fn(usize, &ImageU8) -> f64 + Send + Sync + 'static,
{
    let ladder = session.stream_ladder(query)?;
    let session = Arc::clone(session);
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    // Effectively unbounded for any realistic run: one slot per window,
    // and the driver stops producing once asked to stop.
    let (tx, rx) = channel::bounded(1 << 16);
    let count: CountFn = Arc::new(count);
    let join = std::thread::Builder::new()
        .name("smol-stream".into())
        .spawn(move || drive(session, ladder, source, cfg, count, tx, stop2))
        .expect("spawn stream driver");
    Ok(StreamHandle {
        rx,
        join: Some(join),
        stop,
    })
}

// ---------------------------------------------------------------------------
// Driver internals
// ---------------------------------------------------------------------------

/// One submitted, unresolved GOP.
struct Pending {
    handle: QueryHandle,
    arrival: Duration,
    start_frame: usize,
    n_frames: usize,
    rung: usize,
}

/// Per-window live accounting (drained when the window closes).
#[derive(Default)]
struct WinAcct {
    /// Submitted GOPs overlapping this window and not yet resolved.
    outstanding: usize,
    /// Frames covered by GOPs that produced at least one output.
    covered: usize,
    decoded: usize,
    downgraded: usize,
    dropped: usize,
}

/// The window spans a GOP's frames fall into: `(window index, frames)`.
fn window_spans(start: usize, n: usize, fpw: usize) -> Vec<(usize, usize)> {
    let end = start + n;
    let mut out = Vec::new();
    let mut pos = start;
    while pos < end {
        let w = pos / fpw;
        let wend = ((w + 1) * fpw).min(end);
        out.push((w, wend - pos));
        pos = wend;
    }
    out
}

/// Estimated wall seconds to serve `n_frames` source frames on `step`
/// (its planner estimate is in source frames per second).
fn service_s(step: &smol_serve::DegradeStep, n_frames: usize) -> f64 {
    n_frames as f64 / step.est_throughput.max(f64::MIN_POSITIVE)
}

struct Driver {
    session: Arc<Session>,
    ladder: StreamLadder,
    cfg: StreamConfig,
    count: CountFn,
    tx: channel::Sender<WindowResult>,
    stop: Arc<AtomicBool>,
    start: Instant,
    fps: f64,
    scale: f64,
    /// Frames per window.
    fpw: usize,
    rollup: WindowRollup,
    accts: BTreeMap<usize, WinAcct>,
    pending: Vec<Pending>,
    stats: StreamStats,
    lags: Vec<f64>,
    output_lags: Vec<f64>,
    coverage_sum: f64,
    /// One past the highest frame position that has arrived.
    arrived_frames: usize,
    source_done: bool,
    /// When (seconds since `start`) the work submitted so far will have
    /// resolved, at the ladder's estimated throughputs: the pacer's
    /// look-ahead over committed work.
    committed_until_s: f64,
}

fn drive<S: StreamSource>(
    session: Arc<Session>,
    ladder: StreamLadder,
    mut source: S,
    cfg: StreamConfig,
    count: CountFn,
    tx: channel::Sender<WindowResult>,
    stop: Arc<AtomicBool>,
) -> StreamStats {
    let fps = source.fps().max(1e-6);
    let scale = source.time_scale().max(1e-9);
    let fpw = ((cfg.window_s * fps).round() as usize).max(1);
    let mut d = Driver {
        session,
        ladder,
        cfg,
        count,
        tx,
        stop,
        start: Instant::now(),
        fps,
        scale,
        fpw,
        rollup: WindowRollup::new(fpw),
        accts: BTreeMap::new(),
        pending: Vec::new(),
        stats: StreamStats::default(),
        lags: Vec::new(),
        output_lags: Vec::new(),
        coverage_sum: 0.0,
        arrived_frames: 0,
        source_done: false,
        committed_until_s: 0.0,
    };
    d.run(&mut source);
    d.finalize()
}

impl Driver {
    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    fn run<S: StreamSource>(&mut self, source: &mut S) {
        while !self.stopped() {
            let Some(sg) = source.next_gop() else {
                self.source_done = true;
                break;
            };
            // Pace wall clock to the GOP's arrival, reaping completions
            // and closing windows while waiting.
            loop {
                let now = self.start.elapsed();
                if now >= sg.arrival || self.stopped() {
                    break;
                }
                self.reap();
                self.close_ready();
                std::thread::sleep((sg.arrival - now).min(Duration::from_millis(2)));
            }
            if self.stopped() {
                break;
            }
            let n = sg.gop.n_frames();
            self.stats.gops_arrived += 1;
            self.stats.frames_total += n;
            self.arrived_frames = self.arrived_frames.max(sg.start_frame + n);
            self.reap();
            self.pace(sg);
            self.close_ready();
        }
        // Drain: the source ended (or we were stopped) — wait out the
        // in-flight GOPs, bounded so a wedged server can't hang us.
        let deadline = Instant::now() + Duration::from_secs(60);
        while !self.pending.is_empty() && Instant::now() < deadline && !self.stopped() {
            self.reap();
            self.close_ready();
            std::thread::sleep(Duration::from_millis(1));
        }
        self.reap();
        // Whatever is still unresolved (stopped mid-flight) is lost to
        // the stream: account its frames as dropped and release its
        // windows so they can close.
        let abandoned: Vec<Pending> = self.pending.drain(..).collect();
        for p in abandoned {
            self.stats.frames_dropped += p.n_frames;
            self.session
                .server()
                .record_frame_loss(p.n_frames as u64, 0);
            for (w, span) in window_spans(p.start_frame, p.n_frames, self.fpw) {
                let acct = self.accts.entry(w).or_default();
                acct.outstanding = acct.outstanding.saturating_sub(1);
                acct.dropped += span;
            }
        }
        self.source_done = true;
        self.close_ready();
    }

    /// Applies the pacing policy to an arrived GOP: submit on a ladder
    /// rung, or shed it. The policy sees the observed lag of the oldest
    /// in-flight GOP and, per rung, when this GOP would resolve behind the
    /// work already committed.
    fn pace(&mut self, sg: StreamGop) {
        let now_s = self.start.elapsed().as_secs_f64();
        let lag = self
            .pending
            .iter()
            .map(|p| now_s - p.arrival.as_secs_f64())
            .fold(0.0, f64::max);
        let behind_s = self.committed_until_s.max(now_s) - sg.arrival.as_secs_f64();
        let n = sg.gop.n_frames();
        let projected: Vec<f64> = self
            .ladder
            .rungs
            .iter()
            .map(|step| behind_s + service_s(step, n))
            .collect();
        match self.cfg.policy.decide_projected(lag, &projected) {
            PaceDecision::Drop => self.shed(&sg),
            PaceDecision::Submit { rung } => self.submit(sg, rung),
        }
    }

    fn shed(&mut self, sg: &StreamGop) {
        let n = sg.gop.n_frames();
        self.stats.gops_dropped += 1;
        self.stats.frames_dropped += n;
        self.session.server().record_frame_loss(n as u64, 0);
        for (w, span) in window_spans(sg.start_frame, n, self.fpw) {
            self.accts.entry(w).or_default().dropped += span;
        }
    }

    fn submit(&mut self, sg: StreamGop, rung: usize) {
        let rung = rung.min(self.ladder.rungs.len().saturating_sub(1));
        let step = &self.ladder.rungs[rung];
        let n = sg.gop.n_frames();
        let selection = match step.plan.decode {
            DecodeMode::Video { selection, .. } => selection,
            _ => FrameSelection::All,
        };
        let sel: Vec<usize> = (0..n).filter(|&p| selection.selects(p)).collect();
        let expected = sel.len();
        let base = sg.start_frame;
        let count = Arc::clone(&self.count);
        let infer = move |k: usize, img: &ImageU8| -> (usize, f64) {
            let pos = base + sel.get(k).copied().unwrap_or(0);
            (pos, count(pos, img))
        };
        let opts = SubmitOptions {
            deadline: None,
            priority: self.cfg.priority,
            // Per-GOP degradation is the *pacer's* job — rung choice at
            // submit time — so the in-query ladder stays empty.
            ladder: Vec::new(),
            accuracy: Some(step.accuracy),
            accuracy_floor: self.ladder.accuracy_floor,
            cascade: None,
        };
        let submitted = self.session.server().submit_media_opts_with_infer(
            step.plan.clone(),
            vec![MediaItem::Gop(sg.gop.clone())],
            opts,
            infer,
        );
        match submitted {
            Ok(handle) => {
                let now_s = self.start.elapsed().as_secs_f64();
                self.committed_until_s = self.committed_until_s.max(now_s) + service_s(step, n);
                self.stats.gops_submitted += 1;
                self.stats.max_rung = self.stats.max_rung.max(rung);
                if rung > 0 {
                    self.stats.gops_downgraded += 1;
                    self.session.server().record_frame_loss(0, expected as u64);
                }
                for (w, _) in window_spans(base, n, self.fpw) {
                    self.accts.entry(w).or_default().outstanding += 1;
                }
                self.pending.push(Pending {
                    handle,
                    arrival: sg.arrival,
                    start_frame: base,
                    n_frames: n,
                    rung,
                });
            }
            // The server refused the work (shutdown/backpressure): shed.
            Err(_) => self.shed(&sg),
        }
    }

    /// Integrates every resolved GOP query.
    fn reap(&mut self) {
        let mut i = 0;
        while i < self.pending.len() {
            match self.pending[i].handle.try_wait() {
                Some(report) => {
                    let p = self.pending.remove(i);
                    self.integrate(p, report);
                }
                None => i += 1,
            }
        }
    }

    fn integrate(&mut self, p: Pending, mut report: smol_serve::QueryReport) {
        let now_s = self.start.elapsed().as_secs_f64();
        self.lags.push((now_s - p.arrival.as_secs_f64()).max(0.0));
        let mut executed = 0usize;
        for (pos, value) in report.take_results::<(usize, f64)>().into_iter().flatten() {
            self.rollup.push(pos, value);
            let acct = self.accts.entry(pos / self.fpw).or_default();
            acct.decoded += 1;
            if p.rung > 0 {
                acct.downgraded += 1;
            }
            executed += 1;
        }
        self.stats.frames_decoded += executed;
        if p.rung > 0 {
            self.stats.frames_downgraded += executed;
        }
        // Failed/skipped outputs never executed; the server already
        // counted them in its own dropped_frames aggregate.
        self.stats.frames_dropped += report.failed + report.skipped;
        if let (Some(acc), Some(floor)) = (report.accuracy, self.ladder.accuracy_floor) {
            if acc < floor - 1e-9 {
                self.stats.floor_violations += 1;
            }
        }
        for (w, span) in window_spans(p.start_frame, p.n_frames, self.fpw) {
            let acct = self.accts.entry(w).or_default();
            acct.outstanding = acct.outstanding.saturating_sub(1);
            if executed > 0 {
                acct.covered += span;
            }
        }
    }

    /// Closes every window whose frames have all arrived and whose
    /// overlapping GOPs have all resolved or been shed.
    fn close_ready(&mut self) {
        loop {
            let w = self.rollup.next_window();
            let all_arrived = self.arrived_frames >= (w + 1) * self.fpw
                || (self.source_done && self.arrived_frames > w * self.fpw);
            if !all_arrived {
                return;
            }
            if self.accts.get(&w).is_some_and(|a| a.outstanding > 0) {
                return;
            }
            let acct = self.accts.remove(&w).unwrap_or_default();
            let aggs = self.rollup.drain_until(w + 1);
            let agg = &aggs[0];
            let expected = agg
                .end_frame
                .min(self.arrived_frames)
                .saturating_sub(agg.start_frame);
            let coverage = if expected > 0 {
                (acct.covered.min(expected)) as f64 / expected as f64
            } else {
                0.0
            };
            let end_stream_frame = agg.end_frame.min(self.arrived_frames);
            let end_wall_s = end_stream_frame as f64 / self.fps / self.scale;
            let output_lag_s = (self.start.elapsed().as_secs_f64() - end_wall_s).max(0.0);
            self.stats.windows += 1;
            self.coverage_sum += coverage;
            self.output_lags.push(output_lag_s);
            let _ = self.tx.send(WindowResult {
                index: agg.index,
                start_s: agg.start_frame as f64 / self.fps,
                end_s: end_stream_frame as f64 / self.fps,
                mean: agg.mean,
                samples: agg.samples,
                expected_frames: expected,
                frames_decoded: acct.decoded,
                frames_downgraded: acct.downgraded,
                frames_dropped: acct.dropped,
                coverage,
                output_lag_s,
            });
        }
    }

    fn finalize(mut self) -> StreamStats {
        self.stats.lag_p50_s = percentile(&self.lags, 0.5);
        self.stats.lag_p95_s = percentile(&self.lags, 0.95);
        self.stats.output_lag_p95_s = percentile(&self.output_lags, 0.95);
        self.stats.window_coverage = if self.stats.windows > 0 {
            self.coverage_sum / self.stats.windows as f64
        } else {
            0.0
        };
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smol_data::{timed_stream, video_catalog};

    #[test]
    fn window_spans_partition_gop_frames() {
        // GOP of 6 frames starting at frame 4, windows of 5.
        assert_eq!(window_spans(4, 6, 5), vec![(0, 1), (1, 5)]);
        assert_eq!(window_spans(0, 5, 5), vec![(0, 5)]);
        assert_eq!(window_spans(10, 3, 5), vec![(2, 3)]);
        let total: usize = window_spans(7, 23, 4).iter().map(|&(_, s)| s).sum();
        assert_eq!(total, 23);
    }

    #[test]
    fn feed_source_releases_gops_in_arrival_order() {
        let feed = timed_stream(&video_catalog()[0], 5, 3, 4, 4.0);
        let mut src = FeedSource::new(feed.clone());
        assert!((src.fps() - feed.corpus.fps).abs() < 1e-12);
        assert!((src.time_scale() - 4.0).abs() < 1e-12);
        let mut last = Duration::ZERO;
        let mut frames = 0;
        let mut n = 0;
        while let Some(sg) = src.next_gop() {
            assert!(sg.arrival >= last, "arrivals must be monotone");
            assert_eq!(sg.start_frame, frames, "stream positions are dense");
            frames += sg.gop.n_frames();
            last = sg.arrival;
            n += 1;
        }
        assert_eq!(n, 3);
        assert_eq!(frames, 12);
    }
}
