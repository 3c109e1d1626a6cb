//! Bilinear resize kernels (u8 and f32) and the aspect-preserving
//! short-edge resize used by the standard ResNet preprocessing pipeline.

use crate::error::{Error, Result};
use crate::image::{ImageU8, Layout, Rect, TensorF32};

/// Output dimensions of an aspect-preserving resize where the short edge
/// becomes `short`.
///
/// Matches the convention in §2 step (2): "resize ... such that the short
/// edge of the image is 256 pixels".
pub fn scaled_dims(width: usize, height: usize, short: usize) -> (usize, usize) {
    if width <= height {
        let h = (height * short).div_ceil(width.max(1));
        (short, h)
    } else {
        let w = (width * short).div_ceil(height.max(1));
        (w, short)
    }
}

/// Precomputed sampling positions for a run of output positions along one
/// axis: `lo`/`hi` are the two source samples (already offset and strided
/// for the caller), `frac` the weight of `hi`.
struct AxisMap {
    lo: Vec<usize>,
    hi: Vec<usize>,
    frac: Vec<f32>,
}

/// Half-pixel-centered mapping (the OpenCV / standard convention) of the
/// output positions `dst_range` of a `src → dst` resample. Source indices
/// are reported as `(base + index) * stride`.
fn axis_map(
    src: usize,
    dst: usize,
    dst_range: std::ops::Range<usize>,
    base: usize,
    stride: usize,
) -> AxisMap {
    let scale = src as f32 / dst as f32;
    let mut map = AxisMap {
        lo: Vec::with_capacity(dst_range.len()),
        hi: Vec::with_capacity(dst_range.len()),
        frac: Vec::with_capacity(dst_range.len()),
    };
    for d in dst_range {
        let s = ((d as f32 + 0.5) * scale - 0.5).max(0.0);
        let l = (s as usize).min(src - 1);
        let h = (l + 1).min(src - 1);
        map.lo.push((base + l) * stride);
        map.hi.push((base + h) * stride);
        map.frac.push(s - l as f32);
    }
    map
}

/// A geometric preprocessing prefix collapsed onto a borrowed source: the
/// source `window` is bilinearly resampled to `scaled_w × scaled_h`, and
/// the `out` region of that scaled image is kept. A crop before the
/// resample is a window offset and a crop after it an output offset, so
/// neither copies pixels; only the kept output positions are computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resample {
    pub window: Rect,
    pub scaled_w: usize,
    pub scaled_h: usize,
    pub out: Rect,
}

impl Resample {
    /// The identity over a `width × height` image.
    pub fn identity(width: usize, height: usize) -> Self {
        let all = Rect::new(0, 0, width, height);
        Resample {
            window: all,
            scaled_w: width,
            scaled_h: height,
            out: all,
        }
    }

    /// Output geometry.
    pub fn out_dims(&self) -> (usize, usize) {
        (self.out.w, self.out.h)
    }

    /// True when no pixel is interpolated: the window keeps its size, so
    /// every output pixel is a source pixel.
    pub fn is_copy(&self) -> bool {
        (self.scaled_w, self.scaled_h) == (self.window.w, self.window.h)
    }

    /// Keeps region `r` of the current output.
    pub fn crop(self, r: Rect) -> Self {
        Resample {
            out: Rect::new(self.out.x + r.x, self.out.y + r.y, r.w, r.h),
            ..self
        }
    }

    /// Resizes the current output to `w × h`. A resize to the current size
    /// changes no pixel (the half-pixel mapping is exact at scale 1) and is
    /// elided. Returns `None` when the output is already resampled: two
    /// resamples do not compose into one, so the caller must materialize
    /// this one first ([`resample_u8`]).
    pub fn resize(self, w: usize, h: usize) -> Option<Self> {
        if (w, h) == self.out_dims() {
            return Some(self);
        }
        if !self.is_copy() {
            return None;
        }
        let window = Rect::new(
            self.window.x + self.out.x,
            self.window.y + self.out.y,
            self.out.w,
            self.out.h,
        );
        Some(Resample {
            window,
            scaled_w: w,
            scaled_h: h,
            out: Rect::new(0, 0, w, h),
        })
    }
}

/// Runs `g` over `src` in one pass, handing each interleaved u8 output row
/// (`out.w * channels` bytes) to `sink` in row order.
///
/// A copy geometry hands out borrowed source rows. Otherwise each source
/// row the output needs is interpolated horizontally once into an f32 row
/// (kept while the next output row reuses it), and each output row is the
/// vertical interpolation of two such rows, rounded to u8. The arithmetic
/// and its order per sample match [`resize_bilinear_u8_reference`], so
/// the output is bit-identical to it.
pub fn resample_rows(
    src: &ImageU8,
    g: &Resample,
    mut sink: impl FnMut(usize, &[u8]),
) -> Result<()> {
    let (w, h) = g.out_dims();
    if w == 0 || h == 0 || g.window.w == 0 || g.window.h == 0 {
        return Err(Error::EmptyDimension { op: "resample" });
    }
    if !g.window.fits_in(src.width(), src.height()) {
        return Err(Error::RegionOutOfBounds {
            region: (g.window.x, g.window.y, g.window.w, g.window.h),
            width: src.width(),
            height: src.height(),
        });
    }
    if !g.out.fits_in(g.scaled_w, g.scaled_h) {
        return Err(Error::RegionOutOfBounds {
            region: (g.out.x, g.out.y, g.out.w, g.out.h),
            width: g.scaled_w,
            height: g.scaled_h,
        });
    }
    let c = src.channels();
    let stride = src.width() * c;
    let data = src.data();
    let row_len = w * c;
    if g.is_copy() {
        let x0 = (g.window.x + g.out.x) * c;
        let y0 = g.window.y + g.out.y;
        for dy in 0..h {
            let start = (y0 + dy) * stride + x0;
            sink(dy, &data[start..start + row_len]);
        }
        return Ok(());
    }
    let xmap = axis_map(g.window.w, g.scaled_w, g.out.x..g.out.x + w, g.window.x, c);
    let ymap = axis_map(g.window.h, g.scaled_h, g.out.y..g.out.y + h, g.window.y, 1);
    let src_row = |y: usize| &data[y * stride..(y + 1) * stride];
    // `top` holds the interpolated source row `top_y`, `bot` row `bot_y`.
    let (mut top, mut bot) = (vec![0.0f32; row_len], vec![0.0f32; row_len]);
    let (mut top_y, mut bot_y) = (usize::MAX, usize::MAX);
    let mut row = vec![0u8; row_len];
    for dy in 0..h {
        let (y0, y1, fy) = (ymap.lo[dy], ymap.hi[dy], ymap.frac[dy]);
        if top_y != y0 {
            if bot_y == y0 {
                std::mem::swap(&mut top, &mut bot);
                std::mem::swap(&mut top_y, &mut bot_y);
            } else {
                lerp_row(src_row(y0), &xmap, c, &mut top);
                top_y = y0;
            }
        }
        // At the clamped bottom edge both taps are one row, and
        // `t + (t - t) * fy == t` exactly: reuse `top`.
        let bottom = if y1 == y0 {
            &top
        } else {
            if bot_y != y1 {
                lerp_row(src_row(y1), &xmap, c, &mut bot);
                bot_y = y1;
            }
            &bot
        };
        for ((o, &t), &b) in row.iter_mut().zip(&top).zip(bottom) {
            let v = t + (b - t) * fy;
            *o = trunc_u8(v + 0.5);
        }
        sink(dy, &row);
    }
    Ok(())
}

/// `x as u8` for `x` in `[0, 256)`, in a form that vectorizes (the
/// saturating float-to-int cast does not). Bilinear weights lie in
/// `[0, 1)`, so every interpolated sample stays within its u8 taps and
/// `v + 0.5` within `[0.5, 255.5]`. Adding 2^23 rounds `x` to the nearest
/// integer in the low mantissa bits; one compare turns that into `floor`.
#[inline(always)]
fn trunc_u8(x: f32) -> u8 {
    debug_assert!((0.0..256.0).contains(&x), "{x}");
    const MAGIC: f32 = 8_388_608.0;
    let m = x + MAGIC;
    let rounded_up = (m - MAGIC > x) as u32;
    (m.to_bits().wrapping_sub(MAGIC.to_bits()) - rounded_up) as u8
}

/// Horizontal pass: interpolates one source row at every mapped column.
fn lerp_row(src: &[u8], xmap: &AxisMap, c: usize, dst: &mut [f32]) {
    if c == 3 {
        lerp_row_c::<3>(src, xmap, dst);
        return;
    }
    for (((d, &l), &h), &f) in dst
        .chunks_exact_mut(c)
        .zip(&xmap.lo)
        .zip(&xmap.hi)
        .zip(&xmap.frac)
    {
        for ch in 0..c {
            let p0 = src[l + ch] as f32;
            d[ch] = p0 + (src[h + ch] as f32 - p0) * f;
        }
    }
}

fn lerp_row_c<const C: usize>(src: &[u8], xmap: &AxisMap, dst: &mut [f32]) {
    for (((d, &l), &h), &f) in dst
        .chunks_exact_mut(C)
        .zip(&xmap.lo)
        .zip(&xmap.hi)
        .zip(&xmap.frac)
    {
        let a: &[u8; C] = src[l..l + C].try_into().expect("C bytes");
        let b: &[u8; C] = src[h..h + C].try_into().expect("C bytes");
        for ch in 0..C {
            let p0 = a[ch] as f32;
            d[ch] = p0 + (b[ch] as f32 - p0) * f;
        }
    }
}

/// Materializes `g` over `src` as a new u8 image.
pub fn resample_u8(src: &ImageU8, g: &Resample) -> Result<ImageU8> {
    let (w, h) = g.out_dims();
    let mut out = ImageU8::zeros(w, h, src.channels());
    let row_len = w * src.channels();
    let dst = out.data_mut();
    resample_rows(src, g, |dy, row| {
        dst[dy * row_len..(dy + 1) * row_len].copy_from_slice(row)
    })?;
    Ok(out)
}

/// Bilinear resize of an interleaved u8 image to `dst_w × dst_h`
/// (the separable one-pass core, [`resample_rows`]).
pub fn resize_bilinear_u8(img: &ImageU8, dst_w: usize, dst_h: usize) -> Result<ImageU8> {
    if dst_w == 0 || dst_h == 0 || img.width() == 0 || img.height() == 0 {
        return Err(Error::EmptyDimension {
            op: "resize_bilinear_u8",
        });
    }
    let g = Resample::identity(img.width(), img.height())
        .resize(dst_w, dst_h)
        .expect("the identity composes with one resize");
    resample_u8(img, &g)
}

/// The per-pixel scalar bilinear resize [`resize_bilinear_u8`] must equal
/// bit for bit. Kept only as the oracle of the resize tests and property
/// battery; nothing on a serving path calls it.
pub fn resize_bilinear_u8_reference(img: &ImageU8, dst_w: usize, dst_h: usize) -> Result<ImageU8> {
    if dst_w == 0 || dst_h == 0 || img.width() == 0 || img.height() == 0 {
        return Err(Error::EmptyDimension {
            op: "resize_bilinear_u8",
        });
    }
    let c = img.channels();
    let xmap = axis_map(img.width(), dst_w, 0..dst_w, 0, c);
    let ymap = axis_map(img.height(), dst_h, 0..dst_h, 0, 1);
    let mut out = ImageU8::zeros(dst_w, dst_h, c);
    let src = img.data();
    let dst = out.data_mut();
    let src_stride = img.width() * c;
    for dy in 0..dst_h {
        let y0 = ymap.lo[dy];
        let y1 = ymap.hi[dy];
        let fy = ymap.frac[dy];
        let row0 = &src[y0 * src_stride..y0 * src_stride + src_stride];
        let row1 = &src[y1 * src_stride..y1 * src_stride + src_stride];
        let drow = &mut dst[dy * dst_w * c..(dy + 1) * dst_w * c];
        for dx in 0..dst_w {
            let x0 = xmap.lo[dx];
            let x1 = xmap.hi[dx];
            let fx = xmap.frac[dx];
            for ch in 0..c {
                let p00 = row0[x0 + ch] as f32;
                let p01 = row0[x1 + ch] as f32;
                let p10 = row1[x0 + ch] as f32;
                let p11 = row1[x1 + ch] as f32;
                let top = p00 + (p01 - p00) * fx;
                let bot = p10 + (p11 - p10) * fx;
                let v = top + (bot - top) * fy;
                drow[dx * c + ch] = (v + 0.5) as u8;
            }
        }
    }
    Ok(out)
}

/// Bilinear resize of an HWC float tensor to `dst_w × dst_h`.
///
/// Present so the DAG optimizer can *cost* the (pruned-away) plan variant
/// that resizes after `f32` conversion; rule (2) of §6.2 says INT8 resizing
/// is cheaper, so optimized plans never pick this, but correctness tests
/// compare both orderings.
pub fn resize_bilinear_f32(t: &TensorF32, dst_w: usize, dst_h: usize) -> Result<TensorF32> {
    if t.layout() != Layout::Hwc {
        return Err(Error::InvalidPlan(
            "resize_bilinear_f32 requires HWC layout".into(),
        ));
    }
    if dst_w == 0 || dst_h == 0 || t.width() == 0 || t.height() == 0 {
        return Err(Error::EmptyDimension {
            op: "resize_bilinear_f32",
        });
    }
    let c = t.channels();
    let xmap = axis_map(t.width(), dst_w, 0..dst_w, 0, c);
    let ymap = axis_map(t.height(), dst_h, 0..dst_h, 0, 1);
    let mut out = TensorF32::zeros(dst_w, dst_h, c, Layout::Hwc);
    let src = t.data();
    let src_stride = t.width() * c;
    let dst = out.data_mut();
    for dy in 0..dst_h {
        let y0 = ymap.lo[dy];
        let y1 = ymap.hi[dy];
        let fy = ymap.frac[dy];
        let row0 = &src[y0 * src_stride..y0 * src_stride + src_stride];
        let row1 = &src[y1 * src_stride..y1 * src_stride + src_stride];
        let drow = &mut dst[dy * dst_w * c..(dy + 1) * dst_w * c];
        for dx in 0..dst_w {
            let x0 = xmap.lo[dx];
            let x1 = xmap.hi[dx];
            let fx = xmap.frac[dx];
            for ch in 0..c {
                let top = row0[x0 + ch] + (row0[x1 + ch] - row0[x0 + ch]) * fx;
                let bot = row1[x0 + ch] + (row1[x1 + ch] - row1[x0 + ch]) * fx;
                drow[dx * c + ch] = top + (bot - top) * fy;
            }
        }
    }
    Ok(out)
}

/// Aspect-preserving resize so that the short edge equals `short`.
pub fn resize_short_edge_u8(img: &ImageU8, short: usize) -> Result<ImageU8> {
    let (w, h) = scaled_dims(img.width(), img.height(), short);
    resize_bilinear_u8(img, w, h)
}

/// Box (average-pooling) downsample by an integer `factor`; output is
/// `ceil(w/factor) × ceil(h/factor)`, edge cells averaging only in-bounds
/// pixels. This is the post-decode reference a fused reduced-resolution
/// decode (scaled IDCT, `smol_codec::sjpg::decode_scaled`) is judged
/// against, and the fallback for codecs without multi-resolution decoding.
pub fn box_downsample_u8(img: &ImageU8, factor: usize) -> Result<ImageU8> {
    if factor == 0 || img.width() == 0 || img.height() == 0 {
        return Err(Error::EmptyDimension {
            op: "box_downsample_u8",
        });
    }
    if factor == 1 {
        return Ok(img.clone());
    }
    let c = img.channels();
    let (ow, oh) = (img.width().div_ceil(factor), img.height().div_ceil(factor));
    let mut out = ImageU8::zeros(ow, oh, c);
    for y in 0..oh {
        let y0 = y * factor;
        let y1 = (y0 + factor).min(img.height());
        for x in 0..ow {
            let x0 = x * factor;
            let x1 = (x0 + factor).min(img.width());
            let count = ((y1 - y0) * (x1 - x0)) as u32;
            for ch in 0..c {
                let mut acc = 0u32;
                for sy in y0..y1 {
                    for sx in x0..x1 {
                        acc += img.at(sx, sy, ch) as u32;
                    }
                }
                out.set(x, y, ch, ((acc + count / 2) / count) as u8);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient(w: usize, h: usize) -> ImageU8 {
        let mut img = ImageU8::zeros(w, h, 3);
        for y in 0..h {
            for x in 0..w {
                img.set(x, y, 0, (x * 255 / w.max(1)) as u8);
                img.set(x, y, 1, (y * 255 / h.max(1)) as u8);
                img.set(x, y, 2, 128);
            }
        }
        img
    }

    #[test]
    fn scaled_dims_short_edge_becomes_target() {
        assert_eq!(scaled_dims(640, 480, 256), (342, 256));
        assert_eq!(scaled_dims(480, 640, 256), (256, 342));
        assert_eq!(scaled_dims(256, 256, 161), (161, 161));
    }

    #[test]
    fn identity_resize_is_exact() {
        let img = gradient(16, 12);
        let out = resize_bilinear_u8(&img, 16, 12).unwrap();
        assert_eq!(img.data(), out.data());
    }

    fn noisy(w: usize, h: usize, c: usize) -> ImageU8 {
        let mut img = ImageU8::zeros(w, h, c);
        for (i, v) in img.data_mut().iter_mut().enumerate() {
            *v = (i.wrapping_mul(2_654_435_761) >> 7) as u8;
        }
        img
    }

    #[test]
    fn separable_resize_matches_reference_bitwise() {
        let shapes = [
            (16, 12, 16, 12),
            (216, 216, 224, 224),
            (63, 63, 224, 224),
            (1, 1, 5, 3),
            (7, 1, 1, 9),
            (33, 17, 99, 51),
            (320, 240, 160, 160),
            (5, 9, 2, 2),
        ];
        for c in [1, 3, 4] {
            for &(sw, sh, dw, dh) in &shapes {
                let img = noisy(sw, sh, c);
                let fast = resize_bilinear_u8(&img, dw, dh).unwrap();
                let reference = resize_bilinear_u8_reference(&img, dw, dh).unwrap();
                assert_eq!(fast, reference, "{sw}x{sh}x{c} -> {dw}x{dh}");
            }
        }
    }

    #[test]
    fn windowed_resample_matches_crop_resize_crop() {
        use crate::ops::crop::crop_u8;
        let img = noisy(128, 72, 3);
        let window = Rect::new(33, 5, 63, 63);
        let kept = Rect::new(3, 10, 200, 190);
        let g = Resample::identity(128, 72)
            .crop(window)
            .resize(224, 224)
            .unwrap()
            .crop(kept);
        let staged = crop_u8(
            &resize_bilinear_u8_reference(&crop_u8(&img, window).unwrap(), 224, 224).unwrap(),
            kept,
        )
        .unwrap();
        assert_eq!(resample_u8(&img, &g).unwrap(), staged);
        // A second resample does not compose; a same-size one is elided.
        assert!(g.resize(50, 50).is_none());
        assert_eq!(g.resize(200, 190), Some(g));
    }

    #[test]
    fn copy_geometry_hands_out_source_rows() {
        let img = noisy(20, 10, 3);
        let g = Resample::identity(20, 10)
            .crop(Rect::new(2, 3, 16, 6))
            .resize(16, 6)
            .unwrap();
        assert!(g.is_copy());
        let out = resample_u8(&img, &g).unwrap();
        assert_eq!(
            out,
            crate::ops::crop::crop_u8(&img, Rect::new(2, 3, 16, 6)).unwrap()
        );
        let outside = Resample::identity(20, 10).crop(Rect::new(10, 0, 11, 10));
        assert!(resample_u8(&img, &outside).is_err());
    }

    #[test]
    fn constant_image_stays_constant() {
        let img = ImageU8::from_vec(9, 7, 3, vec![200; 9 * 7 * 3]).unwrap();
        let out = resize_bilinear_u8(&img, 23, 5).unwrap();
        assert!(out.data().iter().all(|&v| v == 200));
    }

    #[test]
    fn downscale_preserves_gradient_direction() {
        let img = gradient(64, 64);
        let out = resize_bilinear_u8(&img, 16, 16).unwrap();
        for y in 0..16 {
            for x in 1..16 {
                assert!(out.at(x, y, 0) >= out.at(x - 1, y, 0));
            }
        }
    }

    #[test]
    fn zero_target_rejected() {
        let img = gradient(8, 8);
        assert!(resize_bilinear_u8(&img, 0, 4).is_err());
    }

    #[test]
    fn f32_resize_matches_u8_resize_closely() {
        let img = gradient(32, 24);
        let as_f32 = crate::ops::layout::to_f32(&img);
        let a = resize_bilinear_u8(&img, 10, 9).unwrap();
        let b = resize_bilinear_f32(&as_f32, 10, 9).unwrap();
        for y in 0..9 {
            for x in 0..10 {
                for c in 0..3 {
                    let d = (a.at(x, y, c) as f32 - b.at(x, y, c)).abs();
                    assert!(d <= 1.0, "x={x} y={y} c={c} d={d}");
                }
            }
        }
    }

    #[test]
    fn short_edge_resize_hits_target() {
        let img = gradient(100, 80);
        let out = resize_short_edge_u8(&img, 40).unwrap();
        assert_eq!(out.height(), 40);
        assert_eq!(out.width(), 50);
    }

    #[test]
    fn box_downsample_dims_and_averaging() {
        let img = gradient(64, 48);
        let out = box_downsample_u8(&img, 4).unwrap();
        assert_eq!((out.width(), out.height()), (16, 12));
        // Cell (0,0) averages x in 0..4 → red mean of (0+1+2+3)*255/64 / 4.
        let expect: u32 = (0..4).map(|x| (x * 255 / 64) as u32).sum::<u32>() / 4;
        assert!((out.at(0, 0, 0) as i32 - expect as i32).abs() <= 1);
        // Constant channel stays constant.
        assert!(out.data().iter().skip(2).step_by(3).all(|&v| v == 128));
    }

    #[test]
    fn box_downsample_clips_edge_cells() {
        let img = gradient(10, 7);
        let out = box_downsample_u8(&img, 4).unwrap();
        assert_eq!((out.width(), out.height()), (3, 2));
    }

    #[test]
    fn box_downsample_factor_one_is_identity() {
        let img = gradient(9, 5);
        let out = box_downsample_u8(&img, 1).unwrap();
        assert_eq!(img.data(), out.data());
    }

    #[test]
    fn box_downsample_rejects_zero_factor() {
        assert!(box_downsample_u8(&gradient(8, 8), 0).is_err());
    }
}
