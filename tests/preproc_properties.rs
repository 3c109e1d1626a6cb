//! Bit-identity battery for the one-pass preprocessing path.
//!
//! 1. The staged tensor `produce_item` writes equals
//!    `dag::execute_plan` — the op-by-op semantic oracle — of the
//!    decode-rewritten plan on the decoded image, bit for bit, for every
//!    plan shape (standard, thumbnail, DAG-optimized, DAG-lesioned), every
//!    decode mode's rewrite, and the geometries that stress the collapse
//!    (identity, upsample ×3, downsample, 1-px edges, odd crops).
//! 2. The separable `resize_bilinear_u8` equals the kept per-pixel scalar
//!    reference, and a windowed resample equals crop → reference resize →
//!    crop.

use proptest::prelude::*;
use smol::accel::ModelKind;
use smol::codec::{EncodedImage, Format};
use smol::core::{DecodeMode, FrameSelection, InputVariant, QueryPlan};
use smol::imgproc::dag::{execute_plan, DagOptimizer, OpSpec, PlacedOp, Placement, PreprocPlan};
use smol::imgproc::ops::crop_u8;
use smol::imgproc::ops::resize::{
    resample_u8, resize_bilinear_u8, resize_bilinear_u8_reference, Resample,
};
use smol::imgproc::{ImageU8, Rect};
use smol::runtime::{
    decode_item, produce_item, produce_media_item, wrap_gops, BufferPool, PlanContext, TensorCache,
};

/// Smooth gradient plus seeded noise, so both interpolation taps and the
/// codecs' entropy paths see varied values.
fn textured(w: usize, h: usize, seed: u64) -> ImageU8 {
    let mut state = seed | 1;
    let mut img = ImageU8::zeros(w, h, 3);
    for y in 0..h {
        for x in 0..w {
            for c in 0..3 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let grad = ((x * 211 / w.max(1) + y * 89 / h.max(1) + c * 40) % 256) as u8;
                img.set(x, y, c, grad.wrapping_add((state >> 58) as u8));
            }
        }
    }
    img
}

fn query_plan(enc: &EncodedImage, preproc: PreprocPlan, decode: DecodeMode) -> QueryPlan {
    QueryPlan {
        dnn: ModelKind::ResNet50,
        input: InputVariant::new("battery", enc.format(), enc.width(), enc.height()),
        preproc,
        decode,
        batch: 1,
        extra_stages: Vec::new(),
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The plan shapes the planner emits for a DNN input of `w × h`.
fn plan_shapes(src_w: usize, src_h: usize, w: u32, h: u32) -> Vec<(&'static str, PreprocPlan)> {
    let short = w.max(h) * 8 / 7;
    let standard = PreprocPlan::standard(short, w, h);
    let fusion_only = DagOptimizer {
        enable_fusion: true,
        enable_reorder: false,
    };
    let reorder_only = DagOptimizer {
        enable_fusion: false,
        enable_reorder: true,
    };
    vec![
        ("standard", standard.clone()),
        ("thumbnail", PreprocPlan::thumbnail(w, h)),
        (
            "optimized",
            DagOptimizer::default().optimize(&standard, src_w, src_h),
        ),
        ("fusion_only", fusion_only.optimize(&standard, src_w, src_h)),
        (
            "reorder_only",
            reorder_only.optimize(&standard, src_w, src_h),
        ),
        (
            "lesioned",
            DagOptimizer::disabled().optimize(&standard, src_w, src_h),
        ),
    ]
}

fn decode_modes(w: usize, h: usize) -> Vec<DecodeMode> {
    vec![
        DecodeMode::Full,
        DecodeMode::CentralRoi {
            crop_w: (w * 7 / 8).max(1),
            crop_h: (h * 5 / 8).max(1),
        },
        DecodeMode::EarlyStopRows {
            rows: (h * 3 / 4).max(1),
        },
        DecodeMode::ReducedResolution { factor: 2 },
        DecodeMode::ReducedResolution { factor: 4 },
        DecodeMode::ReducedResolution { factor: 8 },
    ]
}

/// Produces `enc` under `plan` (uncached, then through a cache: miss and
/// hit) and checks every staged buffer against the oracle.
fn assert_staged_matches_oracle(enc: &EncodedImage, plan: &QueryPlan, label: &str) {
    let ctx = PlanContext::new(plan);
    let pool = BufferPool::new(4, ctx.buf_len, true, false);
    let oracle = decode_item(enc, ctx.decode)
        .map_err(|e| e.to_string())
        .and_then(|img| execute_plan(&ctx.preproc, &img, &ctx.norm).map_err(|e| e.to_string()));
    let cache = TensorCache::new(1 << 24);
    for cache in [None, Some(&cache), Some(&cache)] {
        let produced = produce_item(&ctx, 0, enc, &pool, false, 0.0, cache);
        match (&oracle, produced) {
            (Ok(expected), Ok(item)) => {
                assert_eq!(expected.data().len(), ctx.buf_len, "{label}: geometry");
                assert!(
                    bits(&item.buffer.as_slice()[..ctx.buf_len]) == bits(expected.data()),
                    "{label}: staged tensor differs from execute_plan ({:?})",
                    ctx.preproc
                );
            }
            (Err(_), Err(_)) => {}
            (expected, produced) => panic!(
                "{label}: oracle {:?} vs producer {:?}",
                expected.as_ref().map(|_| ()),
                produced.map(|_| ()).map_err(|e| e.to_string())
            ),
        }
    }
}

#[test]
fn staged_tensor_is_bit_identical_to_execute_plan() {
    // (source w, source h, DNN w, DNN h): identity, the scan workload's
    // ROI geometry, downsample, upsample ×3, odd crops, 1-px edges and a
    // 1×1 output.
    let geometries = [
        (224, 224, 224, 224),
        (320, 240, 224, 224),
        (320, 240, 64, 64),
        (40, 32, 120, 96),
        (97, 61, 23, 19),
        (1, 17, 8, 8),
        (17, 1, 8, 8),
        (9, 9, 1, 1),
    ];
    let formats = [Format::sjpg(90), Format::sjpg420(90), Format::Spng];
    for (i, &(sw, sh, w, h)) in geometries.iter().enumerate() {
        for (f, &format) in formats.iter().enumerate() {
            let enc = EncodedImage::encode(&textured(sw, sh, (i * 3 + f) as u64), format)
                .expect("encode");
            for (name, preproc) in plan_shapes(sw, sh, w, h) {
                for mode in decode_modes(sw, sh) {
                    let plan = query_plan(&enc, preproc.clone(), mode);
                    let label = format!("{sw}x{sh} -> {w}x{h} {format:?} {name} {mode:?}");
                    assert_staged_matches_oracle(&enc, &plan, &label);
                }
            }
        }
    }
}

#[test]
fn scan_roi_resize_is_elided_and_exact() {
    // A 210×210 central ROI of a 320×240 sjpg decodes to an MCU-aligned
    // 224×224 region; the rewrite's resize to 224×224 changes no pixel.
    let enc = EncodedImage::encode(&textured(320, 240, 7), Format::sjpg(95)).unwrap();
    let mode = DecodeMode::CentralRoi {
        crop_w: 210,
        crop_h: 210,
    };
    let decoded = decode_item(&enc, mode).unwrap();
    assert_eq!((decoded.width(), decoded.height()), (224, 224));
    for (name, preproc) in plan_shapes(320, 240, 224, 224) {
        let plan = query_plan(&enc, preproc, mode);
        assert_staged_matches_oracle(&enc, &plan, name);
    }
}

#[test]
fn accel_placed_tail_stages_the_u8_prefix() {
    // With the elementwise tail on the accelerator the producer stages the
    // geometric prefix's u8 pixels (as f32 values, HWC): the oracle is the
    // same prefix followed by a bare conversion.
    let enc = EncodedImage::encode(&textured(97, 61, 3), Format::sjpg(90)).unwrap();
    for (name, preproc) in plan_shapes(97, 61, 45, 33) {
        let mut preproc = preproc;
        for op in &mut preproc.ops {
            if op.spec.geometry(1, 1).is_none() {
                op.placement = Placement::Accel;
            }
        }
        for mode in decode_modes(97, 61) {
            let plan = query_plan(&enc, preproc.clone(), mode);
            let ctx = PlanContext::new(&plan);
            let pool = BufferPool::new(1, ctx.buf_len, true, false);
            let item = produce_item(&ctx, 0, &enc, &pool, false, 0.0, None).unwrap();
            let mut prefix: Vec<PlacedOp> = ctx
                .preproc
                .ops
                .iter()
                .take_while(|o| o.placement == Placement::Cpu)
                .cloned()
                .collect();
            prefix.push(PlacedOp::cpu(OpSpec::ConvertF32));
            let decoded = decode_item(&enc, ctx.decode).unwrap();
            let expected = execute_plan(&PreprocPlan::new(prefix), &decoded, &ctx.norm).unwrap();
            assert_eq!(
                item.transfer_bytes, ctx.buf_len,
                "{name} {mode:?}: u8 transfer"
            );
            assert!(
                bits(&item.buffer.as_slice()[..ctx.buf_len]) == bits(expected.data()),
                "{name} {mode:?}"
            );
        }
    }
}

#[test]
fn gop_frames_are_bit_identical_to_execute_plan() {
    let frames: Vec<ImageU8> = (0..6).map(|i| textured(64, 48, i)).collect();
    let encoded = smol::video::VideoEncoder {
        gop: 3,
        ..Default::default()
    }
    .encode_frames(&frames, 30.0)
    .unwrap();
    let video = smol::video::EncodedVideo::parse(encoded).unwrap();
    let gops = video.gops();
    let items = wrap_gops(&gops);
    for (selection, deblock) in [
        (FrameSelection::All, true),
        (FrameSelection::Keyframes, false),
    ] {
        let mode = DecodeMode::Video { selection, deblock };
        for (name, preproc) in plan_shapes(64, 48, 32, 32) {
            let input = InputVariant::new("battery", Format::Svid { quality: 80 }, 64, 48).video(3);
            let plan = QueryPlan {
                dnn: ModelKind::ResNet50,
                input,
                preproc,
                decode: mode,
                batch: 1,
                extra_stages: Vec::new(),
            };
            let ctx = PlanContext::new(&plan);
            let pool = BufferPool::new(8, ctx.buf_len, true, false);
            let (selection, opts) = smol::runtime::video_decode_params(mode);
            for (item, gop) in items.iter().zip(&gops) {
                let staged = produce_media_item(&ctx, 0, item, &pool, false, 0.0, None).unwrap();
                let (decoded, _) = gop.decode_selected(selection, opts).unwrap();
                assert_eq!(staged.len(), decoded.len());
                for (s, frame) in staged.iter().zip(&decoded) {
                    let expected = execute_plan(&ctx.preproc, &frame.image, &ctx.norm).unwrap();
                    assert!(
                        bits(&s.buffer.as_slice()[..ctx.buf_len]) == bits(expected.data()),
                        "{name} {mode:?} frame {}",
                        frame.index
                    );
                }
            }
        }
    }
}

fn arb_image(max_edge: usize, channels: usize) -> impl Strategy<Value = ImageU8> {
    (1usize..max_edge, 1usize..max_edge, any::<u64>()).prop_map(move |(w, h, seed)| {
        let mut state = seed | 1;
        let mut img = ImageU8::zeros(w, h, channels);
        for v in img.data_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *v = (state >> 56) as u8;
        }
        img
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The separable resize equals the per-pixel scalar reference for any
    /// shape, up- or downsampling, including 1-px edges.
    #[test]
    fn separable_resize_matches_scalar_reference(
        img in arb_image(80, 3),
        dw in 1usize..240,
        dh in 1usize..240,
    ) {
        let fast = resize_bilinear_u8(&img, dw, dh).unwrap();
        let reference = resize_bilinear_u8_reference(&img, dw, dh).unwrap();
        prop_assert_eq!(fast, reference);
    }

    /// Same on single-channel images (the generic horizontal pass).
    #[test]
    fn separable_resize_matches_reference_on_gray(
        img in arb_image(64, 1),
        dw in 1usize..160,
        dh in 1usize..160,
    ) {
        let fast = resize_bilinear_u8(&img, dw, dh).unwrap();
        let reference = resize_bilinear_u8_reference(&img, dw, dh).unwrap();
        prop_assert_eq!(fast, reference);
    }

    /// Crops fold into the resample as offsets: window → resize → keep
    /// equals materializing each step with the reference kernels.
    #[test]
    fn windowed_resample_matches_staged_reference(
        img in arb_image(72, 3),
        fx in 0.0f64..1.0,
        fy in 0.0f64..1.0,
        fw in 0.05f64..1.0,
        fh in 0.05f64..1.0,
        dw in 1usize..200,
        dh in 1usize..200,
        kx in 0.0f64..1.0,
        ky in 0.0f64..1.0,
    ) {
        let (w, h) = (img.width(), img.height());
        let ww = ((w as f64 * fw) as usize).clamp(1, w);
        let wh = ((h as f64 * fh) as usize).clamp(1, h);
        let window = Rect::new(((w - ww) as f64 * fx) as usize, ((h - wh) as f64 * fy) as usize, ww, wh);
        let kw = (dw / 2).max(1);
        let kh = (dh / 2).max(1);
        let keep = Rect::new(((dw - kw) as f64 * kx) as usize, ((dh - kh) as f64 * ky) as usize, kw, kh);
        let geom = Resample::identity(w, h)
            .crop(window)
            .resize(dw, dh)
            .unwrap()
            .crop(keep);
        let staged = crop_u8(
            &resize_bilinear_u8_reference(&crop_u8(&img, window).unwrap(), dw, dh).unwrap(),
            keep,
        )
        .unwrap();
        prop_assert_eq!(resample_u8(&img, &geom).unwrap(), staged);
    }
}
