//! Decode hot path CI gate: the fast decode path (table-driven entropy
//! decoding, lane-batched IDCT/color kernels, band parallelism) against
//! the scalar sequential reference.
//!
//! Three checks, all on the same encoded corpus:
//!
//! 1. **Bit identity** — the fast path (any worker count) must reproduce
//!    the reference decode exactly, at factor 1 and at every scaled-decode
//!    factor, for 4:4:4 and 4:2:0 chroma.
//! 2. **Speedup gate** — full decode through the fast path must beat the
//!    scalar sequential baseline by ≥ 2× wall-clock. Timing takes the
//!    minimum over repetitions (the standard noisy-host estimator: load
//!    spikes only ever add time) and workers are clamped to the host's
//!    available parallelism, so on a single-core host the gate is carried
//!    by the kernels alone.
//! 3. **Planner scenario** — with a 4:2:0 copy of the corpus registered as
//!    its own variant and *measured* decode throughput feeding the specs,
//!    a loss-tolerant constraint must choose the subsampled variant.
//!
//! Exits non-zero when any gate fails (CI wires this into bench-smoke).

use smol_accel::ModelKind;
use smol_bench::{scaled, Table};
use smol_codec::{sjpg, Chroma, DecodeOptions, EncodedImage, Format};
use smol_core::{CandidateSpec, Constraint, InputVariant, Planner};
use smol_data::{still_catalog, throughput_images};
use smol_imgproc::ops::resize::resize_bilinear_u8;
use smol_imgproc::ImageU8;
use std::time::Instant;

/// Wall-clock gate: fast path vs scalar sequential reference.
const MIN_SPEEDUP: f64 = 2.0;

/// Source edge: large enough that per-decode timing dominates overhead.
const SRC_EDGE: usize = 768;

/// Adds deterministic fine-grain detail (±16 code values) on top of the
/// upsampled corpus. Bilinear upsampling produces unrealistically smooth
/// images whose blocks are nearly DC-only; real captures at this size
/// carry per-pixel texture that the entropy coder must actually encode,
/// which is exactly the cost the hot path optimizes.
fn add_grain(img: &mut ImageU8) {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for v in img.data_mut().iter_mut() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let n = ((state >> 59) as i16) - 16;
        *v = (*v as i16 + n).clamp(0, 255) as u8;
    }
}

/// Seconds per decode: minimum over `reps` timed decodes (one warm-up).
fn bench_decode(data: &[u8], opts: DecodeOptions, reps: usize) -> (f64, ImageU8) {
    let (mut img, _) = sjpg::decode_with_opts(data, opts).expect("decode");
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let (out, _) = sjpg::decode_with_opts(data, opts).expect("decode");
        best = best.min(t0.elapsed().as_secs_f64());
        img = out;
    }
    (best, img)
}

/// Interleaved A/B timing: alternates the two paths within each rep and
/// takes per-path minima, so slow host-load drift hits both sides equally
/// instead of biasing whichever ran second. Also asserts the two paths
/// produce identical pixels on this input.
fn bench_ab(data: &[u8], a: DecodeOptions, b: DecodeOptions, reps: usize) -> (f64, f64) {
    let (img_a, _) = sjpg::decode_with_opts(data, a).expect("decode");
    let (img_b, _) = sjpg::decode_with_opts(data, b).expect("decode");
    assert_eq!(img_a.data(), img_b.data(), "timed decodes diverged");
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let t0 = Instant::now();
        let _ = sjpg::decode_with_opts(data, a).expect("decode");
        best_a = best_a.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let _ = sjpg::decode_with_opts(data, b).expect("decode");
        best_b = best_b.min(t0.elapsed().as_secs_f64());
    }
    (best_a, best_b)
}

fn main() {
    let spec = &still_catalog()[0];
    let n = scaled(12).min(12);
    let reps = if smol_bench::quick_mode() { 3 } else { 7 };
    let natives: Vec<ImageU8> = throughput_images(spec, 11, n)
        .iter()
        .map(|img| {
            let mut up = resize_bilinear_u8(img, SRC_EDGE, SRC_EDGE).expect("upsample");
            add_grain(&mut up);
            up
        })
        .collect();
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(8);
    let fast = DecodeOptions::with_workers(workers);
    let reference = DecodeOptions::scalar_reference();

    // --- 1. Bit identity across chroma layouts and factors -------------
    for chroma in [Chroma::C444, Chroma::C420] {
        let enc = smol_codec::SjpgEncoder::with_chroma(90, chroma)
            .encode(&natives[0])
            .expect("encode");
        for factor in [1usize, 2, 4, 8] {
            let (a, sa) = sjpg::decode_scaled_opts(&enc, factor, reference).expect("reference");
            let (b, sb) = sjpg::decode_scaled_opts(&enc, factor, fast).expect("fast");
            assert_eq!(
                a.data(),
                b.data(),
                "fast path diverged: chroma {chroma:?} factor {factor}"
            );
            assert_eq!(sa.symbols_decoded, sb.symbols_decoded);
            assert_eq!(sa.idct_macs, sb.idct_macs);
        }
    }
    println!("bit identity: fast path == scalar sequential reference (444/420, factors 1/2/4/8)");

    // --- 2. Wall-clock speedup gate at factor 1 ------------------------
    // q=95: the high-fidelity ingest setting. Fine quantization keeps most
    // AC coefficients, which is exactly the regime the decode hot path is
    // for — and the regime where the bit-by-bit reference walk hurts most.
    let encoded: Vec<EncodedImage> = natives
        .iter()
        .map(|img| EncodedImage::encode(img, Format::sjpg(95)).expect("encode"))
        .collect();
    let mut slow_s = 0.0;
    let mut fast_s = 0.0;
    for enc in &encoded {
        let (s, f) = bench_ab(enc.bytes(), reference, fast, reps);
        slow_s += s;
        fast_s += f;
    }
    let speedup = slow_s / fast_s;

    let mut table = Table::new(
        "Decode hot path — scalar sequential reference vs fast path",
        &["Path", "ms/image", "Speedup"],
    );
    table.row(&[
        "scalar sequential (reference)".to_string(),
        format!("{:.2}", slow_s / encoded.len() as f64 * 1e3),
        "1.00x".to_string(),
    ]);
    table.row(&[
        format!("table-driven + SIMD + {workers} worker(s)"),
        format!("{:.2}", fast_s / encoded.len() as f64 * 1e3),
        format!("{speedup:.2}x"),
    ]);
    table.print();
    table.write_csv("decode_hotpath");

    // --- 3. Planner scenario: the 4:2:0 variant wins -------------------
    // Both specs model a DNN calibrated at full 768² input whose accuracy
    // does NOT survive reduced-resolution decoding (reduced_accuracy well
    // below the tolerance), so the planner must decide on full decodes —
    // where the subsampled variant's measured decode throughput wins under
    // a loss-tolerant constraint.
    let planner = Planner::default();
    let mk_spec = |name: &str, format: Format, accuracy: f64, tput: f64| CandidateSpec {
        dnn: ModelKind::ResNet50,
        input: InputVariant::new(name, format, SRC_EDGE, SRC_EDGE),
        accuracy,
        preproc_throughput: tput,
        reduced_accuracy: Some(accuracy - 0.05),
        cascade: None,
        routing: Vec::new(),
        video: None,
        storage: None,
    };
    // Measure real relative decode throughput of the two chroma layouts.
    let enc444 = EncodedImage::encode(&natives[0], Format::sjpg(90)).expect("encode 444");
    let enc420 = smol_codec::SjpgEncoder::with_chroma(90, Chroma::C420)
        .encode(&natives[0])
        .expect("encode 420");
    let (t444, _) = bench_decode(enc444.bytes(), fast, reps);
    let (t420, _) = bench_decode(&enc420, fast, reps);
    let specs = [
        mk_spec("full sjpg(q=90)", Format::sjpg(90), 0.7516, 1.0 / t444),
        mk_spec(
            "full sjpg420(q=90)",
            Format::sjpg420(90),
            0.7504,
            1.0 / t420,
        ),
    ];
    let chosen = planner
        .plan(&specs, &Constraint::MaxAccuracyLoss(0.005))
        .expect("constraint is feasible");
    println!(
        "\n420 decode: {:.2} ms vs 444 {:.2} ms ({:.2}x); planner chose: {}",
        t420 * 1e3,
        t444 * 1e3,
        t444 / t420,
        chosen.plan.input.name
    );

    let mut failed = false;
    if speedup < MIN_SPEEDUP {
        eprintln!("FAIL: fast-path speedup {speedup:.2}x below the {MIN_SPEEDUP}x gate");
        failed = true;
    }
    if !chosen.plan.input.format.is_chroma_subsampled() {
        eprintln!(
            "FAIL: planner did not choose the 4:2:0 variant under a loss-tolerant constraint"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
