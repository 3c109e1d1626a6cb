//! `tenant_mix`: the serving regime. An open-loop generator sends a
//! seeded Poisson schedule of queries from three tenants, each with its
//! own dataset in the §8.1 serving layout (full-res sjpg 4:4:4 and 4:2:0,
//! 161-px thumbnails in spng, sjpg q=95 and q=75) materialized through a
//! `VariantStore`. Queries take 16–128 items and mix three constraint
//! classes, priorities and deadlines over a P100 + T4 fleet whose
//! summed ResNet-50 rate is close to the CPU's warm preprocessing rate,
//! so both sides of `min(T_preproc, T_exec)` bind. Every query reads a
//! prefix of its variant, so the decoded working set is small and hot:
//! the tensor cache serves reads.

use crate::common::{par_map, poisson_offsets, Checks, Metrics, Rng, RssSampler, TempDir};
use crate::serving::{self, QueryRecord, StatsDelta};
use crate::stats::tail;
use crate::trace::{durations, Tracer};
use crate::{Outcome, Setup};
use smol_accel::{ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol_codec::EncodedImage;
use smol_core::PlannerConfig;
use smol_data::{serving_variants, still_catalog, EncodedVariant, VariantStore};
use smol_runtime::MediaItem;
use smol_serve::{AccuracyTable, Calibration, Dataset, Priority, Query, Session, SessionConfig};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// `still_catalog()` indices of the three tenants' scenes: birds-200
/// (400×300) for each, with its own seed. At this size a 161-px thumbnail
/// decodes in about half the time of the full-resolution ROI, so the
/// planner's choice between them is not a near-tie.
const TENANTS: [usize; 3] = [2, 2, 2];
/// Items per tenant dataset: the largest query's size.
const ITEMS: usize = 128;
const MIN_TAKE: usize = 16;
/// DNN input edge. Thumbnails (161-px short edge) then downsample rather
/// than upsample.
const DNN_INPUT: u32 = 160;
/// Device time scale of both fleet members: (1955 + 4513) / 5 ≈ 1,290
/// ResNet-50 im/s, close to the seed's warm preprocessing rate. The two
/// lanes differ by 2.3×; with a K80 (12× slower than a P100) a query's
/// latency hinged on whether one of its batches landed on the slow lane.
const TIME_SCALE: f64 = 5.0;
/// Offered load, queries per second: fixed, never calibrated at run time.
/// At seed on a 2-core host the mix kept up at 16 queries/s (p50 330 ms)
/// and fell behind at 20 (p50 over 1 s, backlog growing). 8 is about half
/// of what it sustains: at 10 the p90 latency read either about 370 or
/// about 470 ms from run to run, a spread wider than its bound.
const RATE_QPS: f64 = 8.0;
/// Calibrated (ResNet-50, ResNet-18) accuracy per serving variant.
const TABLE: [(&str, f64, f64); 5] = [
    ("full-res sjpg(q=95)", 0.800, 0.760),
    ("full-res sjpg420(q=95)", 0.784, 0.744),
    ("161 spng", 0.770, 0.730),
    ("161 sjpg(q=95)", 0.790, 0.750),
    ("161 sjpg(q=75)", 0.775, 0.735),
];
/// The three constraint classes: (name, deadline when one is set).
const CLASSES: [(&str, Duration); 3] = [
    ("thumb", Duration::from_secs(2)),
    ("full", Duration::from_secs(4)),
    ("tput", Duration::from_secs(2)),
];
/// Throughput floor of the `tput` class, im/s of planner estimate: low
/// enough that every plan meets it, so the class always gets the most
/// accurate plan (full resolution, ResNet-50) and its degradation ladder.
/// A floor between the full-resolution and thumbnail estimates flipped
/// the choice whenever profiling noise crossed it.
const TPUT_FLOOR: f64 = 100.0;
/// Items per (tenant, class) whose served pixels are checked.
const HASH_SAMPLE: usize = 8;
/// Items per (tenant, class) replayed through the layer entry points.
const REPLAY_SAMPLE: usize = 16;

pub fn params(seconds: f64) -> Vec<(&'static str, String)> {
    vec![
        (
            "loop",
            "open, Poisson schedule, 1 generator + 1 reaper thread".into(),
        ),
        ("rate_qps", RATE_QPS.to_string()),
        ("queries", sends(seconds).to_string()),
        ("items_per_query", format!("{MIN_TAKE}..={ITEMS}")),
        (
            "tenants",
            "3x birds-200 400x300, own seeds; 128 items x 5 serving variants; DNN input 160".into(),
        ),
        (
            "classes",
            format!(
                "thumb: max_accuracy_loss 0.015 | full: min_accuracy 0.798 | \
                 tput: min_throughput {TPUT_FLOOR} + degradation"
            ),
        ),
        (
            "fleet",
            format!("P100 + T4 TensorRT, time_scale {TIME_SCALE}"),
        ),
    ]
}

fn sends(seconds: f64) -> usize {
    (RATE_QPS * seconds).round().max(1.0) as usize
}

fn fleet() -> Vec<VirtualDevice> {
    [GpuModel::P100, GpuModel::T4]
        .into_iter()
        .map(|m| VirtualDevice::new(m, ExecutionEnv::TensorRt, TIME_SCALE))
        .collect()
}

fn dataset_name(t: usize) -> String {
    format!("tenant-{t}")
}

fn query(t: usize, class: usize) -> Query {
    let q = Query::new(dataset_name(t));
    match CLASSES[class].0 {
        "thumb" => q.max_accuracy_loss(0.015),
        "full" => q.min_accuracy(0.798),
        _ => q.min_throughput(TPUT_FLOOR).allow_degradation(true),
    }
}

/// One scheduled query.
#[derive(Debug, Clone, PartialEq)]
struct Send {
    offset: Duration,
    tenant: usize,
    class: usize,
    take: usize,
    priority: Priority,
    deadline: Option<Duration>,
}

/// The seeded schedule. The queries themselves are a fixed list: every
/// (tenant, class) pair gets the same spread of sizes from `MIN_TAKE` to
/// `ITEMS`, with priorities and deadlines dealt round-robin. The seed
/// shuffles their order and draws the send times, so every seed offers
/// the same work.
fn schedule(seed: u64, seconds: f64) -> Vec<Send> {
    let n = sends(seconds);
    let kinds = TENANTS.len() * CLASSES.len();
    let mut queries: Vec<Send> = (0..n)
        .map(|i| {
            let (kind, j) = (i % kinds, i / kinds);
            let of_kind = (n - kind).div_ceil(kinds);
            let class = kind / TENANTS.len();
            Send {
                offset: Duration::ZERO,
                tenant: kind % TENANTS.len(),
                class,
                take: MIN_TAKE + (ITEMS - MIN_TAKE) * j / (of_kind - 1).max(1),
                priority: [
                    Priority::High,
                    Priority::Normal,
                    Priority::Normal,
                    Priority::Low,
                ][(i + j) % 4],
                deadline: ((i + j) % 2 == 0).then_some(CLASSES[class].1),
            }
        })
        .collect();
    let mut rng = Rng::new(seed);
    rng.shuffle(&mut queries);
    let offsets = poisson_offsets(&mut rng, n, Duration::from_secs_f64(seconds));
    for (q, offset) in queries.iter_mut().zip(offsets) {
        q.offset = offset;
    }
    queries
}

/// Images rendered per generation task (keeps both threads busy).
const CHUNK: usize = 32;

fn generate(seed: u64) -> Vec<Vec<EncodedVariant>> {
    let catalog = still_catalog();
    let chunks = ITEMS / CHUNK;
    let mut parts = par_map(TENANTS.len() * chunks, |i| {
        let spec = &catalog[TENANTS[i / chunks]];
        serving_variants(spec, seed.wrapping_mul(1000).wrapping_add(i as u64), CHUNK)
            .expect("encode serving variants")
    })
    .into_iter();
    (0..TENANTS.len())
        .map(|_| {
            let mut tenant = parts.next().expect("one part per chunk");
            for part in parts.by_ref().take(chunks - 1) {
                for (v, p) in tenant.iter_mut().zip(part) {
                    v.items.extend(p.items);
                }
            }
            tenant
        })
        .collect()
}

fn calibration() -> Calibration {
    let table = TABLE
        .iter()
        .fold(AccuracyTable::new(), |t, &(v, r50, r18)| {
            t.with(ModelKind::ResNet50, v, r50)
                .with(ModelKind::ResNet18, v, r18)
        });
    Calibration::Table(table)
}

/// Class index of `(tenant, class)` in the set-up's class list.
fn class_index(tenant: usize, class: usize) -> usize {
    tenant * CLASSES.len() + class
}

fn setup(variants: &[Vec<EncodedVariant>], tracer: &Tracer) -> Setup {
    let dir = TempDir::new("store");
    let store = VariantStore::open(dir.path()).expect("open the variant store");
    let start = Instant::now();
    let cfg = SessionConfig {
        planner: PlannerConfig {
            dnn_input: DNN_INPUT,
            ..Default::default()
        },
        ..Default::default()
    };
    let session = Session::with_fleet(fleet(), cfg);
    let mut store_s = 0.0;
    for (t, v) in variants.iter().enumerate() {
        let dataset = Dataset::new(dataset_name(t))
            .with_model(ModelKind::ResNet50)
            .with_model(ModelKind::ResNet18)
            .with_encoded_variants(v.clone())
            .with_calibration(calibration());
        let t0 = Instant::now();
        let dataset = tracer
            .span("data.materialize", None, t as u64, |_| {
                dataset.materialize(&store)
            })
            .expect("materialize into the variant store");
        store_s += t0.elapsed().as_secs_f64();
        session.register(dataset).expect("register a tenant");
    }
    let classes = (0..TENANTS.len())
        .flat_map(|t| {
            (0..CLASSES.len())
                .map(move |c| (format!("{}/{}", dataset_name(t), CLASSES[c].0), query(t, c)))
        })
        .collect();
    Setup::finish(session, classes, start, tracer, store_s)
}

/// The items a `(tenant, class)` query reads: its chosen variant.
fn chosen_items<'a>(
    s: &Setup,
    variants: &'a [Vec<EncodedVariant>],
    t: usize,
    c: usize,
) -> &'a [EncodedImage] {
    let name = &s.chosen[class_index(t, c)].plan.input.name;
    &variants[t]
        .iter()
        .find(|v| &v.name == name)
        .expect("the chosen plan reads a registered variant")
        .items
}

pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let variants = generate(seed);
    let plan = schedule(seed, seconds);
    let window = Duration::from_secs_f64(seconds);
    let (s, setup_s) = crate::set_up(tracer, |t| setup(&variants, t));

    // Warm-up: every (tenant, class) once at full size, so the hot set is
    // cached and lazy set-up is done before timing.
    for t in 0..TENANTS.len() {
        for c in 0..CLASSES.len() {
            s.session
                .run(&query(t, c).take(ITEMS))
                .expect("warm-up query");
        }
    }

    let mut checks = Checks::default();
    let before = s.session.stats();
    let rss = RssSampler::start();
    let phase = timed_phase(&s, &variants, &plan, window, &Tracer::new(false));
    let peak_rss_mb = rss.stop();
    let delta = StatsDelta::between(&before, &s.session.stats(), phase.wall_s);
    let mut e2e = Metrics::default();
    serving::end_to_end(&phase.records, phase.throughput_ips, &mut e2e);
    serving::check_records(&phase.records, &mut checks);
    checks.check(delta.cache_hits > 0, || {
        "the hot set must hit the tensor cache".into()
    });
    let gen_tail = tail(&phase.generator_lags_ms);
    e2e.note(format!(
        "generator lag p{} = {:.3} ms over {} sends{}",
        gen_tail.level * 100.0,
        gen_tail.value,
        gen_tail.samples,
        if gen_tail.value > GENERATOR_LAG_FLAG_MS {
            " — GENERATOR FELL BEHIND: this run measures the client, not the program"
        } else {
            ""
        }
    ));
    let mut rng = Rng::new(seed ^ 0x7e4a);
    for t in 0..TENANTS.len() {
        for c in 0..CLASSES.len() {
            let items = chosen_items(&s, &variants, t, c);
            let sample = rng
                .sample(items.len(), HASH_SAMPLE)
                .into_iter()
                .map(|i| MediaItem::Image(items[i].clone()))
                .collect();
            let plan = s.chosen[class_index(t, c)].plan.clone();
            serving::check_pixels(
                &s.session,
                &plan,
                sample,
                &s.classes[class_index(t, c)].0,
                &mut checks,
            );
        }
    }
    let throughput = e2e.values["throughput_ips"];

    let mut layers = Metrics::default();
    if tracer.enabled() {
        let before = s.session.stats();
        let traced = timed_phase(&s, &variants, &plan, window, tracer);
        let delta = StatsDelta::between(&before, &s.session.stats(), traced.wall_s);
        serving::report_counters(&traced.records, &mut layers);
        serving::stats_counters(&delta, &mut layers);
        layers.set("bench.trace_overhead", traced.throughput_ips / throughput);
        layers.set(
            "bench.send_lag_tail_ms",
            tail(&traced.generator_lags_ms).value,
        );
        let blocks: Vec<f64> = durations(&tracer.spans(), "serve.submit")
            .into_iter()
            .map(|d| d * 1e3)
            .collect();
        layers.set("serve.submit_block_ms_tail", tail(&blocks).value);
        layers.set("serve.waiting_admission_max", traced.waiting_max as f64);
        let device = fleet().swap_remove(0);
        for t in 0..TENANTS.len() {
            for c in 0..CLASSES.len() {
                let items = chosen_items(&s, &variants, t, c);
                let sample: Vec<EncodedImage> = rng
                    .sample(items.len(), REPLAY_SAMPLE)
                    .into_iter()
                    .map(|i| items[i].clone())
                    .collect();
                let plan = &s.chosen[class_index(t, c)].plan;
                serving::replay_stills(tracer, plan, &sample, &device, &mut layers);
            }
        }
        s.core_metrics(&mut layers);
    }
    let attempted: usize = phase.records.iter().map(|r| r.submitted).sum();
    let failed: usize = phase.records.iter().map(|r| r.submitted - r.images).sum();
    e2e.set("setup_s", setup_s);
    e2e.set("peak_rss_mb", peak_rss_mb);
    Outcome {
        e2e,
        layers,
        checks,
        attempted,
        failed,
        plan_labels: s.plan_labels(),
    }
}

/// A generator lag tail above this flags the run: the client, not the
/// program, fell behind its schedule.
const GENERATOR_LAG_FLAG_MS: f64 = 5.0;

struct Phase {
    records: Vec<QueryRecord>,
    /// First send to last resolution.
    wall_s: f64,
    /// Outputs of the queries resolved within the schedule's window, per
    /// second of that window: an open loop's work completed as offered,
    /// without the drain after the last send.
    throughput_ips: f64,
    /// How late the generator started each send when it was free to send
    /// on time (lateness caused by a blocking submit is the program's and
    /// shows in latency instead).
    generator_lags_ms: Vec<f64>,
    waiting_max: usize,
}

/// Sends the schedule open loop from this thread while one reaper thread
/// resolves handles. Latency runs from each query's scheduled send.
fn timed_phase(
    s: &Setup,
    variants: &[Vec<EncodedVariant>],
    plan: &[Send],
    window: Duration,
    tracer: &Tracer,
) -> Phase {
    struct Sent {
        idx: usize,
        due: Instant,
        handle: smol_serve::QueryHandle,
    }
    let (tx, rx) = mpsc::channel::<Sent>();
    let start = Instant::now();
    let mut records: Vec<Option<QueryRecord>> = (0..plan.len()).map(|_| None).collect();
    let mut generator_lags_ms = Vec::with_capacity(plan.len());
    let bytes_in = |p: &Send| -> usize {
        chosen_items(s, variants, p.tenant, p.class)[..p.take]
            .iter()
            .map(|e| e.size_bytes())
            .sum()
    };
    let (resolved, waiting_max) = std::thread::scope(|scope| {
        let reaper = scope.spawn(move || {
            let mut pending: Vec<Sent> = Vec::new();
            let mut done = Vec::new();
            let mut waiting_max = 0usize;
            let mut open = true;
            while open || !pending.is_empty() {
                loop {
                    match rx.try_recv() {
                        Ok(sent) => pending.push(sent),
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            open = false;
                            break;
                        }
                    }
                }
                let before = pending.len();
                pending.retain(|p| match p.handle.try_wait() {
                    Some(report) => {
                        done.push((p.idx, p.due, Instant::now(), report));
                        false
                    }
                    None => true,
                });
                if tracer.enabled() {
                    waiting_max = waiting_max.max(s.session.stats().waiting_admission);
                }
                if pending.len() == before {
                    std::thread::sleep(Duration::from_micros(500));
                }
            }
            (done, waiting_max)
        });
        let mut free_at = start;
        for (idx, p) in plan.iter().enumerate() {
            let due = start + p.offset;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let call = Instant::now();
            generator_lags_ms.push((call - due.max(free_at)).as_secs_f64() * 1e3);
            let mut q = query(p.tenant, p.class).take(p.take).priority(p.priority);
            if let Some(d) = p.deadline {
                q = q.deadline(d);
            }
            let result = tracer.span("serve.submit", None, idx as u64, |_| s.session.submit(&q));
            free_at = Instant::now();
            match result {
                Ok(handle) => tx.send(Sent { idx, due, handle }).expect("reaper is alive"),
                Err(_) => {
                    records[idx] = Some(QueryRecord::rejected(
                        p.take,
                        p.deadline.is_some(),
                        bytes_in(p),
                    ))
                }
            }
        }
        drop(tx);
        reaper.join().expect("reaper thread panicked")
    });
    let mut end = start;
    let mut in_window = 0;
    for (idx, due, at, report) in resolved {
        let p = &plan[idx];
        end = end.max(at);
        if at - start <= window {
            in_window += report.images;
        }
        records[idx] = Some(QueryRecord::resolved(
            report,
            (at - due).as_secs_f64(),
            p.take,
            p.deadline.is_some(),
            s.chosen[class_index(p.tenant, p.class)].est_throughput,
            bytes_in(p),
        ));
    }
    Phase {
        records: records
            .into_iter()
            .map(|r| r.expect("every send resolved"))
            .collect(),
        wall_s: (end - start).as_secs_f64(),
        throughput_ips: in_window as f64 / window.as_secs_f64(),
        generator_lags_ms,
        waiting_max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_seeded_and_offer_the_same_work() {
        let a = schedule(5, 10.0);
        assert_eq!(a, schedule(5, 10.0));
        let b = schedule(6, 10.0);
        assert_ne!(a, b);
        let work = |s: &[Send]| {
            let mut w: Vec<String> = s
                .iter()
                .map(|x| {
                    format!(
                        "{} {} {} {:?} {:?}",
                        x.tenant, x.class, x.take, x.priority, x.deadline
                    )
                })
                .collect();
            w.sort();
            w
        };
        assert_eq!(work(&a), work(&b), "the same queries, in another order");
        assert!(a.iter().all(|x| (MIN_TAKE..=ITEMS).contains(&x.take)));
        let largest = |c: usize| a.iter().filter(|x| x.class == c).map(|x| x.take).max();
        assert!((0..CLASSES.len()).all(|c| largest(c) == Some(ITEMS)));
    }
}
