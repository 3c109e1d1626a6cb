//! `stream_overload`: one continuous query (`run_stream`) over a seeded
//! GOP corpus arriving on a fixed timed schedule about 1.5× faster than
//! the seed decodes it at full fidelity. There is no synthetic per-frame
//! cost (`extra_cpu_s_per_image` is 0): the overload is real decode work,
//! so a faster GOP decoder shows as more frames on the top rung and
//! fresher windows, and a pacer that trades fidelity for lag shows on
//! both. The only workload that exercises `video` and `stream`.

use crate::common::{par_map, Checks, Metrics, Rng, RssSampler};
use crate::serving::{self, StatsDelta};
use crate::stats::{median, ratio, tail};
use crate::trace::{durations, Tracer};
use crate::{Outcome, Setup};
use smol_accel::{ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol_data::{gop_corpus, video_catalog, GopCorpus, StreamFeed};
use smol_runtime::{produce_media_item, video_decode_params, BufferPool, MediaItem, PlanContext};
use smol_serve::{AccuracyTable, Calibration, Dataset, Priority, Query, Session, SessionConfig};
use smol_stream::{run_stream, FeedSource, PacingPolicy, StreamConfig, WindowResult};
use std::time::Instant;

const SCENE: &str = "taipei";
const GOP_LEN: usize = 6;
/// GOPs generated per task (bounds generation memory; each task is its
/// own seeded clip, appended in order).
const CHUNK_GOPS: usize = 100;
/// Stream seconds per wall second. The seed's full-fidelity streaming
/// rate on a 2-core host was about 1,050 frames/s; 52 × 30 fps = 1,560
/// frames/s arriving is a 1.5× overload. Fixed, never calibrated.
const TIME_SCALE: f64 = 52.0;
/// Window length in stream seconds (120 frames, about 77 ms of wall).
const WINDOW_S: f64 = 4.0;
/// Pacing thresholds in wall seconds.
const TARGET_LAG_S: f64 = 0.05;
const DROP_LAG_S: f64 = 0.25;
/// A window meets its deadline when it arrives within two window
/// durations of its last frame.
const WINDOWS_PER_DEADLINE: f64 = 2.0;
/// Calibrated accuracy of the full GOP decode and of keyframes only. The
/// ladder has these two rungs: keyframes cost about a sixth of a full GOP,
/// so at 1.5× overload the pacer settles on a mix of both rather than on
/// a near-tie between neighbouring rungs.
const ACCURACY_FULL: f64 = 0.82;
const ACCURACY_KEYFRAMES: f64 = 0.80;
/// GOPs whose served pixels are checked, and GOPs replayed when traced.
const HASH_SAMPLE: usize = 8;
const REPLAY_SAMPLE: usize = 48;

pub fn params(seconds: f64) -> Vec<(&'static str, String)> {
    vec![
        (
            "source",
            format!("{SCENE} GOP corpus, {GOP_LEN}-frame GOPs"),
        ),
        ("gops", gops(seconds).to_string()),
        ("time_scale", TIME_SCALE.to_string()),
        ("window_s", WINDOW_S.to_string()),
        (
            "pacing",
            format!("target lag {TARGET_LAG_S}s, drop lag {DROP_LAG_S}s"),
        ),
        ("query", "max_accuracy_loss 0.03, priority high".into()),
        ("device", "1x T4 TensorRT, time_scale 0.05".into()),
        ("extra_cpu_s_per_image", "0".into()),
    ]
}

fn spec() -> smol_data::VideoSpec {
    video_catalog()
        .into_iter()
        .find(|s| s.name == SCENE)
        .expect("the scene is in the catalog")
}

/// GOPs that arrive in `seconds` of wall time.
fn gops(seconds: f64) -> usize {
    let frames = seconds * TIME_SCALE * spec().fps;
    ((frames / GOP_LEN as f64).ceil() as usize).max(1)
}

fn generate(seed: u64, seconds: f64) -> StreamFeed {
    let spec = spec();
    let n = gops(seconds);
    let chunks = par_map(n.div_ceil(CHUNK_GOPS), |c| {
        let len = CHUNK_GOPS.min(n - c * CHUNK_GOPS);
        gop_corpus(
            &spec,
            seed.wrapping_mul(1000).wrapping_add(c as u64),
            len,
            GOP_LEN,
        )
    });
    let mut it = chunks.into_iter();
    let mut corpus: GopCorpus = it.next().expect("at least one chunk");
    for mut chunk in it {
        let base = corpus.counts.len();
        for g in &mut chunk.gops {
            g.start_frame += base;
        }
        corpus.gops.extend(chunk.gops);
        corpus.counts.extend(chunk.counts);
    }
    StreamFeed::new(corpus, TIME_SCALE)
}

fn query() -> Query {
    Query::new("camera")
        .max_accuracy_loss(0.03)
        .priority(Priority::High)
}

fn setup(feed: &StreamFeed, tracer: &Tracer) -> Setup {
    let v = feed.corpus.name.clone();
    let start = Instant::now();
    let session = Session::new(
        VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 0.05),
        SessionConfig::default(),
    );
    session
        .register(
            Dataset::stream("camera", feed)
                .with_model(ModelKind::ResNet50)
                .with_calibration(Calibration::Table(
                    AccuracyTable::new()
                        .with(ModelKind::ResNet50, &v, ACCURACY_FULL)
                        .with_keyframes(ModelKind::ResNet50, &v, ACCURACY_FULL, ACCURACY_KEYFRAMES),
                )),
        )
        .expect("register the stream");
    Setup::finish(
        session,
        vec![("camera".into(), query())],
        start,
        tracer,
        0.0,
    )
}

struct Phase {
    windows: Vec<(WindowResult, Instant)>,
    stats: smol_stream::StreamStats,
    start: Instant,
    wall_s: f64,
}

fn timed_phase(s: &Setup, feed: &StreamFeed) -> Phase {
    let counts = feed.corpus.counts.clone();
    let cfg = StreamConfig {
        window_s: WINDOW_S,
        policy: PacingPolicy {
            enabled: true,
            target_lag_s: TARGET_LAG_S,
            drop_lag_s: DROP_LAG_S,
        },
        priority: Priority::High,
    };
    let start = Instant::now();
    let handle = run_stream(
        &s.session,
        &s.classes[0].1,
        FeedSource::new(feed.clone()),
        cfg,
        move |pos, _| counts.get(pos).copied().unwrap_or(0) as f64,
    )
    .expect("the stream starts");
    let mut windows = Vec::new();
    while let Some(w) = handle.next_window() {
        windows.push((w, Instant::now()));
    }
    let stats = handle.finish();
    Phase {
        windows,
        stats,
        start,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

fn frames_per_window(feed: &StreamFeed) -> usize {
    ((WINDOW_S * feed.corpus.fps).round() as usize).max(1)
}

/// Staleness of each window, milliseconds: from the scheduled arrival of
/// its last frame's GOP to the benchmark receiving the result.
fn staleness_ms(feed: &StreamFeed, p: &Phase) -> Vec<f64> {
    let fpw = frames_per_window(feed);
    let total = feed.corpus.counts.len();
    p.windows
        .iter()
        .map(|(w, at)| {
            let last = ((w.index + 1) * fpw).min(total) - 1;
            let due = p.start + feed.arrivals[last / GOP_LEN];
            at.saturating_duration_since(due).as_secs_f64() * 1e3
        })
        .collect()
}

pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let feed = generate(seed, seconds);
    let (s, setup_s) = crate::set_up(&Tracer::new(false), |t| setup(&feed, t));
    let ladder = s
        .session
        .stream_ladder(&s.classes[0].1)
        .expect("the stream ladder");

    let rss = RssSampler::start();
    let phase = timed_phase(&s, &feed);
    let peak_rss_mb = rss.stop();
    let st = &phase.stats;
    let fpw = frames_per_window(&feed);
    let expected_windows = feed.corpus.counts.len().div_ceil(fpw);
    let stale = staleness_ms(&feed, &phase);
    let t = tail(&stale);
    let window_wall_ms = fpw as f64 / feed.corpus.fps / TIME_SCALE * 1e3;
    let on_time = stale
        .iter()
        .filter(|&&ms| ms <= WINDOWS_PER_DEADLINE * window_wall_ms)
        .count();
    let top = st.frames_decoded - st.frames_downgraded;
    let deepest = ladder.rungs[st.max_rung.min(ladder.rungs.len() - 1)].accuracy;
    let mut e2e = Metrics::default();
    e2e.set("setup_s", setup_s);
    e2e.set("peak_rss_mb", peak_rss_mb);
    e2e.set(
        "throughput_ips",
        ratio(st.frames_decoded as f64, phase.wall_s, 0.0),
    );
    e2e.set("latency_p50_ms", median(&stale));
    e2e.set("latency_tail_ms", t.value);
    e2e.set(
        "deadline_met_ratio",
        ratio(on_time as f64, expected_windows as f64, 0.0),
    );
    // Downgraded outputs are charged the deepest rung the stream used: a
    // lower bound, since the stream does not report outputs per rung.
    e2e.set(
        "served_accuracy",
        ratio(
            top as f64 * ladder.rungs[0].accuracy + st.frames_downgraded as f64 * deepest,
            st.frames_decoded as f64,
            0.0,
        ),
    );
    e2e.set(
        "fidelity_share",
        ratio(top as f64, st.frames_total as f64, 0.0),
    );
    e2e.set(
        "coverage",
        ratio(st.frames_decoded as f64, st.frames_total as f64, 0.0),
    );
    e2e.note(format!(
        "{} frames arrived, {} analysed ({} downgraded, {} dropped) in {:.3}s; {} windows, \
         staleness tail = p{} of {} samples; {on_time} within {:.0} ms; deepest rung {}",
        st.frames_total,
        st.frames_decoded,
        st.frames_downgraded,
        st.frames_dropped,
        phase.wall_s,
        phase.windows.len(),
        t.level * 100.0,
        t.samples,
        WINDOWS_PER_DEADLINE * window_wall_ms,
        st.max_rung,
    ));

    let mut checks = Checks::default();
    checks.check(st.floor_violations == 0, || {
        format!("{} accuracy-floor violations", st.floor_violations)
    });
    checks.check(phase.windows.len() == expected_windows, || {
        format!(
            "{} windows emitted, {expected_windows} expected",
            phase.windows.len()
        )
    });
    let mut range_violations = 0;
    for (w, _) in phase.windows.iter().filter(|(w, _)| w.samples > 0) {
        let span = &feed.corpus.counts[w.index * fpw..w.index * fpw + w.expected_frames];
        let lo = *span.iter().min().expect("non-empty window") as f64;
        let hi = *span.iter().max().expect("non-empty window") as f64;
        if w.mean < lo - 1e-9 || w.mean > hi + 1e-9 {
            range_violations += 1;
        }
    }
    checks.check(range_violations == 0, || {
        format!("{range_violations} window means outside their ground-truth range")
    });
    let mut rng = Rng::new(seed ^ 0x57ea);
    let sample: Vec<MediaItem> = rng
        .sample(feed.corpus.gops.len(), HASH_SAMPLE)
        .into_iter()
        .map(|i| MediaItem::Gop(feed.corpus.gops[i].clone()))
        .collect();
    serving::check_pixels(
        &s.session,
        &ladder.rungs[0].plan,
        sample,
        "camera",
        &mut checks,
    );
    let throughput = e2e.values["throughput_ips"];
    let plan_labels = s.plan_labels();
    drop(s);

    let mut layers = Metrics::default();
    if tracer.enabled() {
        let s = setup(&feed, tracer);
        let before = s.session.stats();
        let traced = timed_phase(&s, &feed);
        let delta = StatsDelta::between(&before, &s.session.stats(), traced.wall_s);
        serving::stats_counters(&delta, &mut layers);
        let ts = &traced.stats;
        layers.set(
            "bench.trace_overhead",
            ratio(ts.frames_decoded as f64, traced.wall_s, 0.0) / throughput,
        );
        layers.set("video.frames_decoded", ts.frames_decoded as f64);
        layers.set("stream.lag_p95_ms", ts.lag_p95_s * 1e3);
        layers.set(
            "stream.downgraded_share",
            ratio(ts.frames_downgraded as f64, ts.frames_total as f64, 0.0),
        );
        layers.set(
            "stream.dropped_share",
            ratio(ts.frames_dropped as f64, ts.frames_total as f64, 0.0),
        );
        layers.set(
            "codec.bytes_in_mb",
            feed.corpus.size_bytes() as f64 / (1u64 << 20) as f64,
        );
        replay_gops(tracer, &ladder.rungs[0].plan, &feed, &mut rng, &mut layers);
        s.core_metrics(&mut layers);
    }
    Outcome {
        e2e,
        layers,
        checks,
        attempted: expected_windows,
        failed: expected_windows.saturating_sub(phase.windows.len()) + range_violations,
        plan_labels,
    }
}

/// Replays sampled GOPs at the top rung: `video.decode_selected` is the
/// GOP decode alone and `runtime.produce` the whole producer stage
/// (decode plus preprocessing of every selected frame) for the same GOP;
/// their per-GOP difference is the preprocessing.
fn replay_gops(
    tracer: &Tracer,
    plan: &smol_core::QueryPlan,
    feed: &StreamFeed,
    rng: &mut Rng,
    m: &mut Metrics,
) {
    let ctx = PlanContext::new(plan);
    let pool = BufferPool::new(
        ctx.pool_capacity_fanout(1, 1, GOP_LEN),
        ctx.buf_len,
        true,
        true,
    );
    let (selection, opts) = video_decode_params(plan.decode);
    let mut preproc_ms = Vec::new();
    for i in rng.sample(feed.corpus.gops.len(), REPLAY_SAMPLE) {
        let gop = &feed.corpus.gops[i];
        let req = i as u64;
        let t0 = Instant::now();
        tracer
            .span("video.decode_selected", None, req, |_| {
                gop.decode_selected(selection, opts)
            })
            .expect("replayed GOP decode");
        let decode = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let item = MediaItem::Gop(gop.clone());
        let produced = tracer
            .span("runtime.produce", None, req, |_| {
                produce_media_item(&ctx, 0, &item, &pool, false, 0.0, None)
            })
            .expect("replayed produce");
        let produce = t1.elapsed().as_secs_f64();
        drop(produced);
        preproc_ms.push((produce - decode).max(0.0) * 1e3);
    }
    let spans = tracer.spans();
    m.set(
        "video.gop_decode_ms_p50",
        median(&durations(&spans, "video.decode_selected")) * 1e3,
    );
    m.set(
        "runtime.produce_ms_p50",
        median(&durations(&spans, "runtime.produce")) * 1e3,
    );
    m.set("imgproc.preproc_ms_p50", median(&preproc_ms));
}
