//! Criterion microbenches for the performance-critical kernels: codec
//! decode paths (full / ROI / early-stop), preprocessing operators (fused
//! vs unfused), the one-pass producer kernel against the op-by-op path it
//! replaced, the DAG optimizer, and Huffman coding.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use smol_codec::{sjpg, spng, SjpgEncoder};
use smol_data::{still_catalog, throughput_images};
use smol_imgproc::dag::{DagOptimizer, PreprocPlan};
use smol_imgproc::ops::fused::{
    fused_convert_normalize_split, fused_convert_normalize_split_into,
    fused_resample_normalize_split_into,
};
use smol_imgproc::ops::layout::{hwc_to_chw, to_f32};
use smol_imgproc::ops::normalize::{normalize_chw, Normalization};
use smol_imgproc::ops::resize::resize_bilinear_u8_reference;
use smol_imgproc::ops::{center_crop_u8, crop_u8, resize_short_edge_u8, Resample};
use smol_imgproc::{ImageU8, Rect};

fn test_image() -> smol_imgproc::ImageU8 {
    let spec = &still_catalog()[3];
    throughput_images(spec, 1, 1).pop().expect("one image")
}

fn bench_codecs(c: &mut Criterion) {
    let img = test_image();
    let pixels = (img.width() * img.height()) as u64;
    let jpg = SjpgEncoder::new(85).encode(&img).unwrap();
    let png = spng::encode(&img).unwrap();
    let roi = Rect::centered(img.width(), img.height(), 224, 224);

    let mut g = c.benchmark_group("codec_decode");
    g.throughput(Throughput::Elements(pixels));
    g.bench_function("sjpg_full", |b| {
        b.iter(|| sjpg::decode(std::hint::black_box(&jpg)).unwrap())
    });
    g.bench_function("sjpg_roi_224", |b| {
        b.iter(|| sjpg::decode_roi(std::hint::black_box(&jpg), roi).unwrap())
    });
    g.bench_function("sjpg_early_stop_64_rows", |b| {
        b.iter(|| sjpg::decode_rows(std::hint::black_box(&jpg), 64).unwrap())
    });
    g.bench_function("spng_full", |b| {
        b.iter(|| spng::decode(std::hint::black_box(&png)).unwrap())
    });
    g.finish();

    let mut g = c.benchmark_group("codec_encode");
    g.throughput(Throughput::Elements(pixels));
    g.bench_function("sjpg_q85", |b| {
        b.iter(|| {
            SjpgEncoder::new(85)
                .encode(std::hint::black_box(&img))
                .unwrap()
        })
    });
    g.bench_function("spng", |b| {
        b.iter(|| spng::encode(std::hint::black_box(&img)).unwrap())
    });
    g.finish();
}

fn bench_preproc(c: &mut Criterion) {
    let img = test_image();
    let resized = resize_short_edge_u8(&img, 256).unwrap();
    let cropped = center_crop_u8(&resized, 224, 224).unwrap();
    let norm = Normalization::IMAGENET;

    let mut g = c.benchmark_group("preproc_ops");
    g.throughput(Throughput::Elements((224 * 224 * 3) as u64));
    g.bench_function("resize_short_edge_256", |b| {
        b.iter(|| resize_short_edge_u8(std::hint::black_box(&img), 256).unwrap())
    });
    g.bench_function("unfused_convert_normalize_split", |b| {
        b.iter_batched(
            || cropped.clone(),
            |img| {
                let t = to_f32(&img);
                let mut chw = hwc_to_chw(&t);
                normalize_chw(&mut chw, &norm).unwrap();
                chw
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("fused_convert_normalize_split", |b| {
        b.iter(|| fused_convert_normalize_split(std::hint::black_box(&cropped), &norm).unwrap())
    });
    g.finish();
}

/// The one-pass producer kernel at the benchmark workloads' geometries,
/// each beside the op-by-op path it replaced (copy the crop, scalar
/// bilinear resize into a fresh image, then a separate normalize pass).
fn bench_one_pass(c: &mut Criterion) {
    let noisy = |w: usize, h: usize| {
        let mut img = ImageU8::zeros(w, h, 3);
        for (i, v) in img.data_mut().iter_mut().enumerate() {
            *v = (i.wrapping_mul(2_654_435_761) >> 7) as u8;
        }
        img
    };
    let norm = Normalization::IMAGENET;
    // (name, source, window, output edge): scan_fullres's MCU-aligned
    // central ROI already at the DNN input, a 63-px crop of a 128x72
    // thumbnail upsampled to 224, and a 263x240 crop of a 320x240 frame
    // downsampled to 160.
    let cases = [
        (
            "identity_224",
            noisy(224, 224),
            Rect::new(0, 0, 224, 224),
            224,
        ),
        (
            "crop63_of_128x72_to_224",
            noisy(128, 72),
            Rect::centered(128, 72, 63, 63),
            224,
        ),
        (
            "roi263_to_160",
            noisy(320, 240),
            Rect::centered(320, 240, 263, 240),
            160,
        ),
    ];
    let mut g = c.benchmark_group("preproc_one_pass");
    for (name, img, window, edge) in &cases {
        g.throughput(Throughput::Elements((edge * edge * 3) as u64));
        let geom = Resample::identity(img.width(), img.height())
            .crop(*window)
            .resize(*edge, *edge)
            .expect("one resize");
        let mut staged = vec![0.0f32; edge * edge * 3];
        g.bench_function(&format!("fused_{name}"), |b| {
            b.iter(|| {
                fused_resample_normalize_split_into(
                    std::hint::black_box(img),
                    &geom,
                    &norm,
                    &mut staged,
                )
                .unwrap()
            })
        });
        g.bench_function(&format!("op_by_op_{name}"), |b| {
            b.iter(|| {
                let crop = crop_u8(std::hint::black_box(img), *window).unwrap();
                let resized = resize_bilinear_u8_reference(&crop, *edge, *edge).unwrap();
                fused_convert_normalize_split_into(&resized, &norm, &mut staged).unwrap()
            })
        });
    }
    g.finish();
}

fn bench_planner(c: &mut Criterion) {
    let mut g = c.benchmark_group("dag_optimizer");
    let plan = PreprocPlan::standard(256, 224, 224);
    g.bench_function("optimize_standard_plan", |b| {
        b.iter(|| DagOptimizer::default().optimize(std::hint::black_box(&plan), 640, 480))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_codecs, bench_preproc, bench_one_pass, bench_planner
}
criterion_main!(benches);
