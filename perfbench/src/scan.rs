//! `scan_fullres`: the paper's preprocessing-bound regime. One client,
//! closed loop, runs two queries back to back over one corpus of unique
//! full-resolution sjpg(q=95) stills, again and again until the run's
//! time is up. `min_accuracy` forces both onto the full-resolution
//! variant; the second query uses another DNN, so both share one decode
//! mode and one tensor-cache key. One T4 at time scale 1.0 executes far
//! faster than the CPU decodes, so execution never binds, and the
//! corpus's decoded working set exceeds the default 256 MiB tensor cache:
//! the cache only fills and evicts.

use crate::common::{par_map, Checks, Metrics, Rng, RssSampler};
use crate::serving::{self, QueryRecord, StatsDelta};
use crate::stats::{median, tail};
use crate::trace::{durations, Tracer};
use crate::{Outcome, Setup};
use smol_accel::{ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol_codec::{EncodedImage, Format};
use smol_core::{InputVariant, QueryPlan};
use smol_data::{still_catalog, throughput_images};
use smol_runtime::MediaItem;
use smol_serve::{AccuracyTable, Calibration, Dataset, Query, Session, SessionConfig};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Unique images in the corpus. Each decodes (central-ROI mode) to
/// 150,528 bytes, so the default 256 MiB cache holds about 1,780 of them.
const IMAGES: usize = 2400;
/// Images rendered per generation task (bounds generation memory).
const CHUNK: usize = 50;
/// `still_catalog()` index of the scene: imagenet-sim, 320×240.
const SCENE: usize = 3;
const VARIANT: &str = "full-res sjpg(q=95)";
const DEADLINE: Duration = Duration::from_secs(30);
/// (dataset, DNN, calibrated accuracy, query floor) of the two queries.
const QUERIES: [(&str, ModelKind, f64, f64); 2] = [
    ("scan-r50", ModelKind::ResNet50, 0.800, 0.79),
    ("scan-r18", ModelKind::ResNet18, 0.740, 0.70),
];
/// Items per query whose served pixels are checked against a direct
/// decode.
const HASH_SAMPLE: usize = 24;
/// Items replayed through the layer entry points in a traced run.
const REPLAY_SAMPLE: usize = 64;

pub fn params() -> Vec<(&'static str, String)> {
    vec![
        ("loop", "closed, 1 client, queries back to back".into()),
        ("images", IMAGES.to_string()),
        ("scene", "imagenet-sim 320x240 sjpg(q=95)".into()),
        (
            "queries",
            "ResNet-50 min_accuracy 0.79 | ResNet-18 min_accuracy 0.70, deadline 30s".into(),
        ),
        ("device", "1x T4 TensorRT, time_scale 1.0".into()),
        ("tensor_cache_bytes", (256usize << 20).to_string()),
    ]
}

fn generate(seed: u64) -> Vec<EncodedImage> {
    let spec = still_catalog()[SCENE].clone();
    par_map(IMAGES / CHUNK, |c| {
        throughput_images(&spec, seed.wrapping_mul(1000).wrapping_add(c as u64), CHUNK)
            .iter()
            .map(|img| EncodedImage::encode(img, Format::sjpg(95)).expect("encode corpus"))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

fn classes() -> Vec<(String, Query)> {
    QUERIES
        .iter()
        .map(|&(ds, _, _, floor)| {
            let q = Query::new(ds).min_accuracy(floor).deadline(DEADLINE);
            (ds.to_string(), q)
        })
        .collect()
}

fn setup(corpus: &[EncodedImage], tracer: &Tracer) -> Setup {
    let (w, h) = still_catalog()[SCENE].tput_native;
    let start = Instant::now();
    let session = Session::new(
        VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 1.0),
        SessionConfig::default(),
    );
    for &(name, model, acc, _) in &QUERIES {
        session
            .register(
                Dataset::new(name)
                    .with_model(model)
                    .with_variant(
                        InputVariant::new(VARIANT, Format::sjpg(95), w, h),
                        corpus.to_vec(),
                    )
                    .with_calibration(Calibration::Table(
                        AccuracyTable::new().with(model, VARIANT, acc),
                    )),
            )
            .expect("register the scan corpus");
    }
    Setup::finish(session, classes(), start, tracer, 0.0)
}

pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let corpus = generate(seed);
    let bytes_per_query: usize = corpus.iter().map(|e| e.size_bytes()).sum();
    let mut checks = Checks::default();
    let unique: HashSet<u64> = corpus.iter().map(|e| e.fingerprint()).collect();
    checks.check(unique.len() == IMAGES, || {
        format!("corpus has {} unique images, wants {IMAGES}", unique.len())
    });

    let (s, setup_s) = crate::set_up(tracer, |t| setup(&corpus, t));
    let plans: Vec<QueryPlan> = s.chosen.iter().map(|c| c.plan.clone()).collect();

    let before = s.session.stats();
    let rss = RssSampler::start();
    let (records, wall) = timed_phase(&s, seconds, bytes_per_query, &Tracer::new(false));
    let peak_rss_mb = rss.stop();
    let after = s.session.stats();
    let delta = StatsDelta::between(&before, &after, wall);

    let mut e2e = Metrics::default();
    // The median over queries: host speed drifts within a run, and one
    // query slowed by it should not move the figure.
    let per_query: Vec<f64> = records
        .iter()
        .map(|r| r.images as f64 / r.latency_s)
        .collect();
    serving::end_to_end(&records, median(&per_query), &mut e2e);
    e2e.note(format!(
        "per-query im/s: {:?}",
        per_query.iter().map(|t| t.round()).collect::<Vec<_>>()
    ));
    serving::check_records(&records, &mut checks);
    checks.check(delta.evictions > 0, || {
        "the corpus must overflow the tensor cache (no evictions)".into()
    });
    let mut rng = Rng::new(seed ^ 0x5ca9);
    for (plan, (name, ..)) in plans.iter().zip(QUERIES) {
        let items = rng
            .sample(IMAGES, HASH_SAMPLE)
            .into_iter()
            .map(|i| MediaItem::Image(corpus[i].clone()))
            .collect();
        serving::check_pixels(&s.session, plan, items, name, &mut checks);
    }
    let throughput = e2e.values["throughput_ips"];

    let mut layers = Metrics::default();
    if tracer.enabled() {
        let before = s.session.stats();
        let (records, wall) = timed_phase(&s, seconds, bytes_per_query, tracer);
        let delta = StatsDelta::between(&before, &s.session.stats(), wall);
        serving::report_counters(&records, &mut layers);
        serving::stats_counters(&delta, &mut layers);
        let traced: Vec<f64> = records
            .iter()
            .map(|r| r.images as f64 / r.latency_s)
            .collect();
        layers.set("bench.trace_overhead", median(&traced) / throughput);
        let submits: Vec<f64> = durations(&tracer.spans(), "serve.submit")
            .into_iter()
            .map(|d| d * 1e3)
            .collect();
        layers.set("serve.submit_block_ms_tail", tail(&submits).value);
        let sample: Vec<EncodedImage> = rng
            .sample(IMAGES, REPLAY_SAMPLE)
            .into_iter()
            .map(|i| corpus[i].clone())
            .collect();
        let device = VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 1.0);
        serving::replay_stills(tracer, &plans[0], &sample, &device, &mut layers);
        s.core_metrics(&mut layers);
    }
    let plan_labels = s.plan_labels();
    let attempted: usize = records.iter().map(|r| r.submitted).sum();
    let failed: usize = records.iter().map(|r| r.submitted - r.images).sum();
    e2e.set("setup_s", setup_s);
    e2e.set("peak_rss_mb", peak_rss_mb);
    Outcome {
        e2e,
        layers,
        checks,
        attempted,
        failed,
        plan_labels,
    }
}

/// Runs query pairs back to back until `seconds` have passed (at least
/// one pair). Returns the records and the phase's wall seconds.
fn timed_phase(
    s: &Setup,
    seconds: f64,
    bytes_per_query: usize,
    tracer: &Tracer,
) -> (Vec<QueryRecord>, f64) {
    let start = Instant::now();
    let mut records = Vec::new();
    let mut k = 0usize;
    while k < QUERIES.len() || start.elapsed().as_secs_f64() < seconds {
        let class = k % QUERIES.len();
        let sent = Instant::now();
        let handle = tracer.span("serve.submit", None, k as u64, |_| {
            s.session.submit(&s.classes[class].1)
        });
        let record = match handle.map(|h| h.wait()) {
            Ok(Ok(report)) => QueryRecord::resolved(
                report,
                sent.elapsed().as_secs_f64(),
                IMAGES,
                true,
                s.chosen[class].est_throughput,
                bytes_per_query,
            ),
            _ => QueryRecord::rejected(IMAGES, true, bytes_per_query),
        };
        records.push(record);
        k += 1;
    }
    (records, start.elapsed().as_secs_f64())
}
