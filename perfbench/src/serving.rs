//! What the two query workloads (`scan_fullres`, `tenant_mix`) share:
//! per-query records and the end-to-end metrics drawn from them, the
//! pixel-hash output check, counter deltas around a timed phase, and the
//! traced replay of sampled items through the layer entry points.

use crate::common::{pixel_hash, Checks, Metrics};
use crate::stats::{median, ratio, tail};
use crate::trace::{durations, Tracer};
use smol_accel::{DeviceStats, VirtualDevice};
use smol_codec::{DecodeOptions, EncodedImage};
use smol_core::QueryPlan;
use smol_runtime::pipeline::decode_item_opts;
use smol_runtime::{
    decode_item, execute_device_batch, produce_media_item, video_decode_params, BufferPool,
    MediaItem, PlanContext, RuntimeOptions, TensorCache,
};
use smol_serve::{QueryReport, ServerStats, Session, SubmitOptions};

/// One query as the client saw it.
#[derive(Debug)]
pub struct QueryRecord {
    /// Scheduled send → handle resolved, seconds; infinite when the query
    /// was rejected or failed (it misses every limit).
    pub latency_s: f64,
    /// Outputs the query asked for.
    pub submitted: usize,
    /// Outputs completed.
    pub images: usize,
    /// Outputs completed on a rung below the chosen plan.
    pub downgraded: usize,
    /// Accuracy of the rung the query finished on (0 when it failed).
    pub accuracy: f64,
    pub floor: Option<f64>,
    pub has_deadline: bool,
    pub deadline_met: bool,
    /// Planner estimate for the chosen plan, im/s.
    pub est_throughput: f64,
    pub bytes_in: usize,
    pub report: Option<QueryReport>,
}

impl QueryRecord {
    pub fn rejected(submitted: usize, has_deadline: bool, bytes_in: usize) -> Self {
        QueryRecord {
            latency_s: f64::INFINITY,
            submitted,
            images: 0,
            downgraded: 0,
            accuracy: 0.0,
            floor: None,
            has_deadline,
            deadline_met: false,
            est_throughput: 0.0,
            bytes_in,
            report: None,
        }
    }

    pub fn resolved(
        report: QueryReport,
        latency_s: f64,
        submitted: usize,
        has_deadline: bool,
        est_throughput: f64,
        bytes_in: usize,
    ) -> Self {
        let ok = report.error.is_none();
        QueryRecord {
            latency_s: if ok { latency_s } else { f64::INFINITY },
            submitted,
            images: report.images,
            downgraded: report.downgraded_frames,
            accuracy: report.accuracy.unwrap_or(0.0),
            floor: report.accuracy_floor,
            has_deadline,
            deadline_met: ok && has_deadline && report.deadline_missed == Some(false),
            est_throughput,
            bytes_in,
            report: Some(report),
        }
    }
}

/// The end-to-end metrics of a query workload's timed phase, given its
/// throughput (the workloads time their phases differently).
pub fn end_to_end(records: &[QueryRecord], throughput_ips: f64, m: &mut Metrics) {
    let images: usize = records.iter().map(|r| r.images).sum();
    let submitted: usize = records.iter().map(|r| r.submitted).sum();
    let downgraded: usize = records.iter().map(|r| r.downgraded).sum();
    let latencies: Vec<f64> = records.iter().map(|r| r.latency_s * 1e3).collect();
    let t = tail(&latencies);
    let deadlines = records.iter().filter(|r| r.has_deadline).count();
    let met = records.iter().filter(|r| r.deadline_met).count();
    let weighted: f64 = records.iter().map(|r| r.accuracy * r.images as f64).sum();
    m.set("throughput_ips", throughput_ips);
    m.set("latency_p50_ms", median(&latencies));
    m.set("latency_tail_ms", t.value);
    m.set(
        "deadline_met_ratio",
        ratio(met as f64, deadlines as f64, 1.0),
    );
    m.set("served_accuracy", ratio(weighted, images as f64, 0.0));
    m.set(
        "fidelity_share",
        ratio((images - downgraded) as f64, submitted as f64, 0.0),
    );
    m.set("coverage", ratio(images as f64, submitted as f64, 0.0));
    m.note(format!(
        "{} queries, {images}/{submitted} outputs; latency tail = p{} of {} samples; \
         {met}/{deadlines} deadlines met",
        records.len(),
        t.level * 100.0,
        t.samples
    ));
}

/// Output checks that hold for every served query: conservation of
/// outputs and the accuracy floor.
pub fn check_records(records: &[QueryRecord], checks: &mut Checks) {
    for (i, r) in records.iter().enumerate() {
        let Some(report) = &r.report else {
            checks.check(false, || format!("query {i} was rejected"));
            continue;
        };
        checks.check(
            report.images + report.failed + report.skipped == r.submitted,
            || {
                format!(
                    "query {i}: images {} + failed {} + skipped {} != submitted {}",
                    report.images, report.failed, report.skipped, r.submitted
                )
            },
        );
        checks.check(report.error.is_none() && report.failed == 0, || {
            format!("query {i} failed: {:?}", report.error)
        });
        if let Some(floor) = r.floor {
            checks.check(r.accuracy >= floor, || {
                format!("query {i}: accuracy {} below floor {floor}", r.accuracy)
            });
        }
    }
}

/// Ground-truth pixel hashes of every output `plan` makes from `items`,
/// by direct decode.
fn truth_hashes(plan: &QueryPlan, items: &[MediaItem]) -> Vec<u64> {
    let mut out = Vec::new();
    for item in items {
        match item {
            MediaItem::Image(enc) => out.push(pixel_hash(
                &decode_item(enc, plan.decode).expect("ground-truth decode"),
            )),
            MediaItem::Gop(gop) => {
                let (selection, opts) = video_decode_params(plan.decode);
                let (frames, _) = gop
                    .decode_selected(selection, opts)
                    .expect("ground-truth GOP decode");
                out.extend(frames.iter().map(|f| pixel_hash(&f.image)));
            }
        }
    }
    out
}

/// Serves `items` under `plan` with a hashing inference callback and
/// compares every output with a direct decode. Runs outside the timed
/// phase.
pub fn check_pixels(
    session: &Session,
    plan: &QueryPlan,
    items: Vec<MediaItem>,
    what: &str,
    checks: &mut Checks,
) {
    let truth = truth_hashes(plan, &items);
    let result = session
        .server()
        .submit_media_opts_with_infer(plan.clone(), items, SubmitOptions::default(), |_, img| {
            pixel_hash(img)
        })
        .and_then(|h| h.wait());
    let got: Vec<Option<u64>> = match result {
        Ok(mut report) => report.take_results::<u64>(),
        Err(e) => {
            checks.check(false, || format!("{what}: hash query failed: {e}"));
            return;
        }
    };
    let matching = got
        .iter()
        .zip(&truth)
        .filter(|(g, t)| **g == Some(**t))
        .count();
    checks.check(matching == truth.len() && got.len() == truth.len(), || {
        format!(
            "{what}: {matching}/{} served outputs match the direct decode",
            truth.len()
        )
    });
}

/// Counter deltas of a timed phase, from two `ServerStats` snapshots.
pub struct StatsDelta {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub evictions: u64,
    pub batches: u64,
    pub full_batches: u64,
    pub cross_query_batches: u64,
    pub steals: u64,
    pub degradations: u64,
    pub lane_images: u64,
    pub lane_batches: u64,
    /// Mean over lanes of compute-busy seconds over the phase's wall
    /// seconds (the program's occupancy formula, on the phase alone).
    pub occupancy: f64,
}

impl StatsDelta {
    pub fn between(before: &ServerStats, after: &ServerStats, wall_s: f64) -> Self {
        let lanes = after.devices.len().max(1) as f64;
        let occupancy = after
            .devices
            .iter()
            .zip(&before.devices)
            .map(|(a, b)| {
                DeviceStats {
                    compute_busy_s: a.device.compute_busy_s - b.device.compute_busy_s,
                    ..a.device
                }
                .compute_occupancy(wall_s)
            })
            .sum::<f64>()
            / lanes;
        let lane_sum = |s: &ServerStats| -> (u64, u64) {
            s.devices
                .iter()
                .fold((0, 0), |(i, b), l| (i + l.images, b + l.batches))
        };
        let (ai, ab) = lane_sum(after);
        let (bi, bb) = lane_sum(before);
        StatsDelta {
            cache_hits: after.tensor_cache.hits - before.tensor_cache.hits,
            cache_misses: after.tensor_cache.misses - before.tensor_cache.misses,
            evictions: after.tensor_cache.evictions - before.tensor_cache.evictions,
            batches: after.batches - before.batches,
            full_batches: after.full_batches - before.full_batches,
            cross_query_batches: after.cross_query_batches - before.cross_query_batches,
            steals: after.steals - before.steals,
            degradations: after.degradations - before.degradations,
            lane_images: ai - bi,
            lane_batches: ab - bb,
            occupancy,
        }
    }
}

/// Per-layer metrics drawn from a traced timed phase's query reports.
pub fn report_counters(records: &[QueryRecord], m: &mut Metrics) {
    let reports: Vec<&QueryReport> = records.iter().filter_map(|r| r.report.as_ref()).collect();
    let sum = |f: fn(&QueryReport) -> f64| reports.iter().map(|r| f(r)).sum::<f64>();
    m.set("codec.decode_cpu_s", sum(|r| r.decode_cpu_s));
    m.set(
        "codec.bytes_in_mb",
        records.iter().map(|r| r.bytes_in).sum::<usize>() as f64 / (1u64 << 20) as f64,
    );
    m.set("imgproc.preproc_cpu_s", sum(|r| r.preproc_cpu_s));
    m.set("runtime.pool_waits", sum(|r| r.pool.waits as f64));
    let walls: Vec<f64> = reports.iter().map(|r| r.wall_s * 1e3).collect();
    m.set("serve.query_wall_ms_p50", median(&walls));
    let est_over: Vec<f64> = records
        .iter()
        .filter_map(|r| {
            let measured = r.report.as_ref()?.throughput;
            (measured > 0.0).then(|| r.est_throughput / measured)
        })
        .collect();
    m.set("core.est_over_measured", median(&est_over));
}

/// Per-layer metrics drawn from the server's counters over a traced
/// timed phase.
pub fn stats_counters(d: &StatsDelta, m: &mut Metrics) {
    m.set(
        "runtime.cache_hit_ratio",
        ratio(
            d.cache_hits as f64,
            (d.cache_hits + d.cache_misses) as f64,
            0.0,
        ),
    );
    m.set("runtime.cache_evictions", d.evictions as f64);
    m.set("accel.occupancy", d.occupancy);
    m.set(
        "accel.mean_batch",
        ratio(d.lane_images as f64, d.lane_batches as f64, 0.0),
    );
    m.set(
        "serve.full_batch_ratio",
        ratio(d.full_batches as f64, d.batches as f64, 0.0),
    );
    m.set(
        "serve.cross_query_ratio",
        ratio(d.cross_query_batches as f64, d.batches as f64, 0.0),
    );
    m.set("serve.steals", d.steals as f64);
    m.set("serve.degradations", d.degradations as f64);
}

/// Replays sampled still items through the layer entry points, one span
/// tree per item: `runtime.produce` holds a cache fill (whose decode is
/// `codec.decode_item_opts`) and `imgproc.preproc`, the
/// `produce_media_item` call served from that fill. A repeat lookup is
/// `runtime.cache_hit`; full batches go through
/// `accel.execute_device_batch` on a device like the workload's.
pub fn replay_stills(
    tracer: &Tracer,
    plan: &QueryPlan,
    items: &[EncodedImage],
    device: &VirtualDevice,
    m: &mut Metrics,
) {
    let ctx = PlanContext::new(plan);
    let cache = TensorCache::new(256 << 20);
    let pool = BufferPool::new(ctx.pool_capacity(1, 1), ctx.buf_len, true, true);
    let spec = ctx.batch_spec(&RuntimeOptions::default());
    let decode = |enc: &EncodedImage| {
        decode_item_opts(
            enc,
            ctx.decode,
            DecodeOptions::with_workers(ctx.decode_workers),
        )
    };
    let (mut n, mut bytes, mut ops) = (0usize, 0usize, 0.0f64);
    for (i, enc) in items.iter().enumerate() {
        let req = i as u64;
        let produced = tracer.span("runtime.produce", None, req, |id| {
            tracer
                .span("runtime.get_or_decode", id, req, |fill| {
                    cache.get_or_decode(enc.fingerprint(), ctx.decode, || {
                        tracer.span("codec.decode_item_opts", fill, req, |_| decode(enc))
                    })
                })
                .expect("replayed decode");
            tracer
                .span("imgproc.preproc", id, req, |_| {
                    produce_media_item(
                        &ctx,
                        i,
                        &MediaItem::Image(enc.clone()),
                        &pool,
                        false,
                        0.0,
                        Some(&cache),
                    )
                })
                .expect("replayed produce")
        });
        tracer
            .span("runtime.cache_hit", None, req, |_| {
                cache.get_or_decode(enc.fingerprint(), ctx.decode, || decode(enc))
            })
            .expect("replayed lookup");
        for p in &produced {
            n += 1;
            bytes += p.transfer_bytes;
            ops += p.accel_ops;
        }
        drop(produced);
        if n == ctx.batch || (i + 1 == items.len() && n > 0) {
            tracer.span("accel.execute_device_batch", None, req, |_| {
                execute_device_batch(device, &spec, n, bytes, ops)
            });
            (n, bytes, ops) = (0, 0, 0.0);
        }
    }
    let spans = tracer.spans();
    let ms = |name: &str| median(&durations(&spans, name)) * 1e3;
    m.set("codec.decode_ms_p50", ms("codec.decode_item_opts"));
    m.set("imgproc.preproc_ms_p50", ms("imgproc.preproc"));
    m.set("runtime.produce_ms_p50", ms("runtime.produce"));
    m.set(
        "runtime.cache_lookup_us_p50",
        median(&durations(&spans, "runtime.cache_hit")) * 1e6,
    );
}
