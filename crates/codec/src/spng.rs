//! spng — a from-scratch lossless image codec with PNG's cost anatomy.
//!
//! Encoding: per-scanline predictive filtering (None/Sub/Up/Average/Paeth,
//! chosen per row by the minimum-sum-of-absolute-values heuristic) followed
//! by LZ77 with a 32 KiB window and canonical Huffman coding of the
//! literal/length and distance alphabets (DEFLATE's token structure with a
//! simplified container).
//!
//! Decoding is strictly sequential in raster order — like PNG, there is no
//! random access, so the only partial-decoding feature is **early stopping**
//! (Table 4): `decode_rows` stops the LZ decode as soon as the requested
//! scanlines are reconstructed.

use crate::bitio::{BitReader, BitWriter};
use crate::error::{Error, Result};
use crate::huffman::HuffmanTable;
use bytes::Bytes;
use smol_imgproc::ImageU8;

const MAGIC: u32 = 0x5350_4E47; // "SPNG"
const VERSION: u32 = 1;

const END_OF_STREAM: u16 = 256;
const LITLEN_ALPHABET: usize = 286;
const DIST_ALPHABET: usize = 30;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;
const WINDOW: usize = 32 * 1024;

/// DEFLATE length-code base values for codes 257..=285.
const LENGTH_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
const LENGTH_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
/// DEFLATE distance-code base values for codes 0..=29.
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];

fn length_code(len: usize) -> (u16, u8, u16) {
    debug_assert!((MIN_MATCH..=MAX_MATCH).contains(&len));
    let mut code = 0;
    for (i, &base) in LENGTH_BASE.iter().enumerate() {
        if len >= base as usize {
            code = i;
        } else {
            break;
        }
    }
    (
        257 + code as u16,
        LENGTH_EXTRA[code],
        (len - LENGTH_BASE[code] as usize) as u16,
    )
}

fn dist_code(dist: usize) -> (u16, u8, u16) {
    debug_assert!(dist >= 1);
    let mut code = 0;
    for (i, &base) in DIST_BASE.iter().enumerate() {
        if dist >= base as usize {
            code = i;
        } else {
            break;
        }
    }
    (
        code as u16,
        DIST_EXTRA[code],
        (dist - DIST_BASE[code] as usize) as u16,
    )
}

// ---------------------------------------------------------------------------
// Filters
// ---------------------------------------------------------------------------

#[inline]
fn paeth(a: u8, b: u8, c: u8) -> u8 {
    let (pa, pb, pc) = {
        let p = a as i16 + b as i16 - c as i16;
        (
            (p - a as i16).abs(),
            (p - b as i16).abs(),
            (p - c as i16).abs(),
        )
    };
    if pa <= pb && pa <= pc {
        a
    } else if pb <= pc {
        b
    } else {
        c
    }
}

/// Applies filter `ftype` to `row` given the previous row, writing residuals.
fn filter_row(ftype: u8, row: &[u8], prev: Option<&[u8]>, bpp: usize, out: &mut Vec<u8>) {
    for (i, &v) in row.iter().enumerate() {
        let a = if i >= bpp { row[i - bpp] } else { 0 };
        let b = prev.map_or(0, |p| p[i]);
        let c = if i >= bpp {
            prev.map_or(0, |p| p[i - bpp])
        } else {
            0
        };
        let pred = match ftype {
            0 => 0,
            1 => a,
            2 => b,
            3 => ((a as u16 + b as u16) / 2) as u8,
            _ => paeth(a, b, c),
        };
        out.push(v.wrapping_sub(pred));
    }
}

/// Reconstructs a filtered row in place (prev is the already-reconstructed
/// previous row; `None` for the first row, which predicts from zeros).
/// Each filter runs its own loop, so the per-byte work is the predictor
/// alone; the arithmetic is [`filter_row`]'s inverse byte for byte.
fn unfilter_row(ftype: u8, row: &mut [u8], prev: Option<&[u8]>, bpp: usize) {
    let n = row.len();
    let lead = bpp.min(n);
    match (ftype, prev) {
        (0, _) | (2, None) => {}
        (2, Some(prev)) => {
            for (v, &b) in row.iter_mut().zip(prev) {
                *v = v.wrapping_add(b);
            }
        }
        (3, prev) => {
            let b = |i: usize| prev.map_or(0, |p| p[i]) as u16;
            for (i, v) in row[..lead].iter_mut().enumerate() {
                *v = v.wrapping_add((b(i) / 2) as u8);
            }
            for i in bpp..n {
                row[i] = row[i].wrapping_add(((row[i - bpp] as u16 + b(i)) / 2) as u8);
            }
        }
        // Sub, and Paeth with a zero row above (it always predicts `a`).
        (1, _) | (_, None) => {
            for i in bpp..n {
                row[i] = row[i].wrapping_add(row[i - bpp]);
            }
        }
        (_, Some(prev)) => {
            // Paeth: with a = c = 0 the predictor is `b`.
            for (v, &b) in row[..lead].iter_mut().zip(prev) {
                *v = v.wrapping_add(b);
            }
            for i in bpp..n {
                row[i] = row[i].wrapping_add(paeth(row[i - bpp], prev[i], prev[i - bpp]));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// LZ77
// ---------------------------------------------------------------------------

enum Token {
    Literal(u8),
    Match { len: u16, dist: u16 },
}

/// Greedy hash-chain LZ77 over the filtered byte stream.
fn lz77(data: &[u8]) -> Vec<Token> {
    const HASH_BITS: usize = 15;
    const HASH_SIZE: usize = 1 << HASH_BITS;
    const MAX_CHAIN: usize = 64;
    let hash = |d: &[u8]| -> usize {
        ((d[0] as usize) << 10 ^ (d[1] as usize) << 5 ^ (d[2] as usize)) & (HASH_SIZE - 1)
    };
    let mut head = vec![usize::MAX; HASH_SIZE];
    let mut chain = vec![usize::MAX; data.len()];
    let mut tokens = Vec::with_capacity(data.len() / 2);
    let mut i = 0usize;
    while i < data.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= data.len() {
            let h = hash(&data[i..]);
            let mut cand = head[h];
            let mut tries = MAX_CHAIN;
            while cand != usize::MAX && tries > 0 && i - cand <= WINDOW {
                let max = (data.len() - i).min(MAX_MATCH);
                let mut l = 0usize;
                while l < max && data[cand + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = i - cand;
                    if l >= MAX_MATCH {
                        break;
                    }
                }
                cand = chain[cand];
                tries -= 1;
            }
            chain[i] = head[h];
            head[h] = i;
        }
        if best_len >= MIN_MATCH {
            tokens.push(Token::Match {
                len: best_len as u16,
                dist: best_dist as u16,
            });
            // Insert hash entries for skipped positions (cheap variant:
            // every other position) to keep future matches findable.
            let end = i + best_len;
            let mut j = i + 1;
            while j < end && j + MIN_MATCH <= data.len() {
                let h = hash(&data[j..]);
                chain[j] = head[h];
                head[h] = j;
                j += 1;
            }
            i = end;
        } else {
            tokens.push(Token::Literal(data[i]));
            i += 1;
        }
    }
    tokens
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

/// Encodes an image losslessly.
pub fn encode(img: &ImageU8) -> Result<Bytes> {
    if img.width() == 0 || img.height() == 0 {
        return Err(Error::BadHeader("zero-sized image".into()));
    }
    let bpp = img.channels();
    let stride = img.width() * bpp;

    // Filter each row, picking the filter minimizing sum of |residual|.
    let mut filtered = Vec::with_capacity((stride + 1) * img.height());
    let mut scratch: Vec<u8> = Vec::with_capacity(stride);
    for y in 0..img.height() {
        let row = img.row(y);
        let prev = if y > 0 { Some(img.row(y - 1)) } else { None };
        let mut best_type = 0u8;
        let mut best_score = u64::MAX;
        let mut best: Vec<u8> = Vec::new();
        for ftype in 0..5u8 {
            scratch.clear();
            filter_row(ftype, row, prev, bpp, &mut scratch);
            let score: u64 = scratch
                .iter()
                .map(|&v| (v as i8).unsigned_abs() as u64)
                .sum();
            if score < best_score {
                best_score = score;
                best_type = ftype;
                best = scratch.clone();
            }
        }
        filtered.push(best_type);
        filtered.extend_from_slice(&best);
    }

    // LZ77 then Huffman over token alphabets.
    let tokens = lz77(&filtered);
    let mut litlen_freq = [0u64; LITLEN_ALPHABET];
    let mut dist_freq = [0u64; DIST_ALPHABET];
    for t in &tokens {
        match t {
            Token::Literal(b) => litlen_freq[*b as usize] += 1,
            Token::Match { len, dist } => {
                litlen_freq[length_code(*len as usize).0 as usize] += 1;
                dist_freq[dist_code(*dist as usize).0 as usize] += 1;
            }
        }
    }
    litlen_freq[END_OF_STREAM as usize] += 1;
    // The distance table must exist even when no matches occur.
    if dist_freq.iter().all(|&f| f == 0) {
        dist_freq[0] = 1;
    }
    let litlen = HuffmanTable::from_frequencies(&litlen_freq, 15)?;
    let dist = HuffmanTable::from_frequencies(&dist_freq, 15)?;

    let mut w = BitWriter::with_capacity(filtered.len() / 2);
    w.put(MAGIC, 32);
    w.put(VERSION, 8);
    w.put(img.width() as u32, 16);
    w.put(img.height() as u32, 16);
    w.put(bpp as u32, 8);
    litlen.write_spec(&mut w);
    dist.write_spec(&mut w);
    for t in &tokens {
        match t {
            Token::Literal(b) => litlen.encode(&mut w, *b as u16)?,
            Token::Match { len, dist: d } => {
                let (code, extra, val) = length_code(*len as usize);
                litlen.encode(&mut w, code)?;
                if extra > 0 {
                    w.put(val as u32, extra as u32);
                }
                let (dcode, dextra, dval) = dist_code(*d as usize);
                dist.encode(&mut w, dcode)?;
                if dextra > 0 {
                    w.put(dval as u32, dextra as u32);
                }
            }
        }
    }
    litlen.encode(&mut w, END_OF_STREAM)?;
    Ok(Bytes::from(w.finish()))
}

/// Reads only the image dimensions.
pub fn peek_dims(data: &[u8]) -> Result<(usize, usize)> {
    let mut r = BitReader::new(data);
    if r.bits(32)? != MAGIC {
        return Err(Error::BadMagic { expected: "SPNG" });
    }
    let _ = r.bits(8)?;
    let w = r.bits(16)? as usize;
    let h = r.bits(16)? as usize;
    Ok((w, h))
}

/// Fully decodes an spng buffer.
pub fn decode(data: &[u8]) -> Result<ImageU8> {
    decode_rows_internal(data, usize::MAX).map(|(img, _)| img)
}

/// Decodes only the first `n_rows` scanlines (early stopping), returning the
/// partial image and the fraction of compressed bytes consumed.
pub fn decode_rows(data: &[u8], n_rows: usize) -> Result<(ImageU8, f64)> {
    decode_rows_internal(data, n_rows)
}

fn decode_rows_internal(data: &[u8], n_rows: usize) -> Result<(ImageU8, f64)> {
    let mut r = BitReader::new(data);
    if r.bits(32)? != MAGIC {
        return Err(Error::BadMagic { expected: "SPNG" });
    }
    if r.bits(8)? != VERSION {
        return Err(Error::BadHeader("unsupported version".into()));
    }
    let width = r.bits(16)? as usize;
    let height = r.bits(16)? as usize;
    let bpp = r.bits(8)? as usize;
    if width == 0 || height == 0 || bpp == 0 || bpp > 4 {
        return Err(Error::BadHeader("bad dimensions".into()));
    }
    let litlen = HuffmanTable::read_spec(&mut r, LITLEN_ALPHABET)?;
    let dist = HuffmanTable::read_spec(&mut r, DIST_ALPHABET)?;

    let rows = n_rows.min(height).max(1);
    let stride = width * bpp;
    let target = rows * (stride + 1);
    let mut out: Vec<u8> = Vec::with_capacity(target);

    // LZ decode until the needed bytes are produced or the stream ends.
    while out.len() < target {
        let sym = litlen.decode_fast(&mut r)?;
        if sym == END_OF_STREAM {
            break;
        }
        if sym < 256 {
            out.push(sym as u8);
        } else {
            let code = (sym - 257) as usize;
            if code >= LENGTH_BASE.len() {
                return Err(Error::BadCode {
                    context: "spng length code",
                });
            }
            let extra = LENGTH_EXTRA[code];
            let len = LENGTH_BASE[code] as usize
                + if extra > 0 {
                    r.bits(extra as u32)? as usize
                } else {
                    0
                };
            let dsym = dist.decode_fast(&mut r)? as usize;
            if dsym >= DIST_BASE.len() {
                return Err(Error::BadCode {
                    context: "spng distance code",
                });
            }
            let dextra = DIST_EXTRA[dsym];
            let d = DIST_BASE[dsym] as usize
                + if dextra > 0 {
                    r.bits(dextra as u32)? as usize
                } else {
                    0
                };
            if d == 0 || d > out.len() {
                return Err(Error::BadCode {
                    context: "spng distance out of window",
                });
            }
            let start = out.len() - d;
            for k in 0..len {
                let b = out[start + k];
                out.push(b);
            }
        }
    }
    if out.len() < target {
        return Err(Error::Truncated {
            context: "spng body",
        });
    }
    let consumed = (r.bit_pos() as f64 / 8.0) / data.len() as f64;

    // Unfilter the decoded scanlines in place in the image, each against
    // the row reconstructed above it.
    let mut img = ImageU8::zeros(width, rows, bpp);
    let pixels = img.data_mut();
    for y in 0..rows {
        let base = y * (stride + 1);
        let ftype = out[base];
        if ftype > 4 {
            return Err(Error::BadCode {
                context: "spng filter type",
            });
        }
        let (above, rest) = pixels.split_at_mut(y * stride);
        let row = &mut rest[..stride];
        row.copy_from_slice(&out[base + 1..base + 1 + stride]);
        let prev = y.checked_sub(1).map(|p| &above[p * stride..]);
        unfilter_row(ftype, row, prev, bpp);
    }
    Ok((img, consumed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn textured(w: usize, h: usize) -> ImageU8 {
        let mut img = ImageU8::zeros(w, h, 3);
        for y in 0..h {
            for x in 0..w {
                img.set(x, y, 0, ((x * 5 + y * 3) % 256) as u8);
                img.set(x, y, 1, ((x ^ y) % 256) as u8);
                img.set(x, y, 2, ((x * y / 7) % 256) as u8);
            }
        }
        img
    }

    #[test]
    fn roundtrip_is_lossless() {
        let img = textured(61, 43);
        let enc = encode(&img).unwrap();
        let dec = decode(&enc).unwrap();
        assert_eq!(img, dec);
    }

    #[test]
    fn smooth_images_compress() {
        let mut img = ImageU8::zeros(128, 128, 3);
        for y in 0..128 {
            for x in 0..128 {
                for c in 0..3 {
                    img.set(x, y, c, ((x + y) / 2) as u8);
                }
            }
        }
        let enc = encode(&img).unwrap();
        assert!(
            enc.len() * 4 < img.data().len(),
            "len={} raw={}",
            enc.len(),
            img.data().len()
        );
        assert_eq!(decode(&enc).unwrap(), img);
    }

    #[test]
    fn early_stop_reconstructs_prefix_rows_exactly() {
        let img = textured(80, 60);
        let enc = encode(&img).unwrap();
        let (top, consumed) = decode_rows(&enc, 15).unwrap();
        assert_eq!(top.height(), 15);
        assert!(consumed < 1.0);
        for y in 0..15 {
            assert_eq!(top.row(y), img.row(y));
        }
    }

    #[test]
    fn early_stop_consumes_less_of_the_stream() {
        let img = textured(128, 128);
        let enc = encode(&img).unwrap();
        let (_, frac_quarter) = decode_rows(&enc, 32).unwrap();
        let (_, frac_full) = decode_rows(&enc, 128).unwrap();
        assert!(
            frac_quarter < frac_full * 0.6,
            "quarter={frac_quarter} full={frac_full}"
        );
    }

    #[test]
    fn single_channel_roundtrip() {
        let mut img = ImageU8::zeros(33, 17, 1);
        for (i, v) in img.data_mut().iter_mut().enumerate() {
            *v = (i % 251) as u8;
        }
        let enc = encode(&img).unwrap();
        assert_eq!(decode(&enc).unwrap(), img);
    }

    #[test]
    fn random_noise_roundtrip() {
        // Noise defeats LZ and filters — must still be lossless.
        let mut img = ImageU8::zeros(40, 40, 3);
        let mut state = 0x12345678u32;
        for v in img.data_mut() {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            *v = (state >> 24) as u8;
        }
        let enc = encode(&img).unwrap();
        assert_eq!(decode(&enc).unwrap(), img);
    }

    #[test]
    fn corrupt_magic_rejected() {
        let img = textured(16, 16);
        let mut enc = encode(&img).unwrap().to_vec();
        enc[1] ^= 0x55;
        assert!(decode(&enc).is_err());
    }

    #[test]
    fn truncated_stream_errors() {
        let img = textured(64, 64);
        let enc = encode(&img).unwrap();
        assert!(decode(&enc[..enc.len() / 2]).is_err());
    }

    #[test]
    fn peek_dims_works() {
        let img = textured(23, 41);
        let enc = encode(&img).unwrap();
        assert_eq!(peek_dims(&enc).unwrap(), (23, 41));
    }

    #[test]
    fn unfilter_inverts_every_filter() {
        let mut state = 7u32;
        let mut noise = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    (state >> 24) as u8
                })
                .collect()
        };
        for bpp in 1..=4 {
            for len in [bpp, 2 * bpp + 1, 33 * bpp] {
                let prev = noise(len);
                let row = noise(len);
                for ftype in 0..=4u8 {
                    for above in [None, Some(&prev[..])] {
                        let mut filtered = Vec::new();
                        filter_row(ftype, &row, above, bpp, &mut filtered);
                        unfilter_row(ftype, &mut filtered, above, bpp);
                        assert_eq!(filtered, row, "filter {ftype} bpp {bpp} len {len}");
                    }
                }
            }
        }
    }

    #[test]
    fn paeth_matches_png_spec_examples() {
        assert_eq!(paeth(0, 0, 0), 0);
        assert_eq!(paeth(10, 20, 30), 10); // pa=20 pb=10? recompute: p=0,pa=10,pb=20,pc=30 → a
        assert_eq!(paeth(100, 100, 100), 100);
    }
}
