//! Named encoded serving variants — the registration-side counterpart of
//! [`crate::catalog`].
//!
//! A serving site stores each corpus in several *natively present* forms
//! (§5.2: full resolution plus thumbnails the site already generates).
//! This module materializes that layout for a catalog dataset as
//! [`EncodedVariant`]s: named, encoded corpora a session or harness can
//! register wholesale instead of hand-wiring resize/encode plumbing per
//! variant.

use crate::catalog::StillSpec;
use crate::stills::throughput_images;
use smol_codec::{EncodedImage, Format};
use smol_imgproc::ops::resize_short_edge_u8;
use smol_imgproc::ImageU8;

/// One named, encoded input variant of a dataset: the unit of dataset
/// registration (the serve layer turns this into its planner-facing
/// `InputVariant` plus serving corpus).
#[derive(Debug, Clone)]
pub struct EncodedVariant {
    /// Planner-facing label ("full-res sjpg(q=95)", "161 spng", …) — also
    /// the name calibration tables key on.
    pub name: String,
    pub format: Format,
    /// Stored dimensions of this variant's images.
    pub width: usize,
    pub height: usize,
    /// True for natively-present low-resolution variants (§5.2).
    pub thumbnail: bool,
    /// The encoded serving corpus.
    pub items: Vec<EncodedImage>,
}

/// Encodes `images` into one named variant.
pub fn encode_variant(
    name: impl Into<String>,
    images: &[ImageU8],
    format: Format,
    thumbnail: bool,
) -> smol_codec::Result<EncodedVariant> {
    let items: Vec<EncodedImage> = images
        .iter()
        .map(|img| EncodedImage::encode(img, format))
        .collect::<smol_codec::Result<_>>()?;
    let (width, height) = images
        .first()
        .map(|img| (img.width(), img.height()))
        .unwrap_or((0, 0));
    Ok(EncodedVariant {
        name: name.into(),
        format,
        width,
        height,
        thumbnail,
        items,
    })
}

/// The standard §8.1 serving layout for a still dataset: `n`
/// throughput-track images stored as full-resolution sjpg(q=95) — in both
/// 4:4:4 and 4:2:0 chroma (the subsampled copy halves decode work at a
/// fraction of a point of accuracy) — plus thumbnails (short edge
/// `spec.tput_thumb_short`) in spng, sjpg(q=95), and sjpg(q=75): the four
/// variants of the paper's still-image experiments, under the labels its
/// tables use, extended with the chroma-storage axis.
pub fn serving_variants(
    spec: &StillSpec,
    seed: u64,
    n: usize,
) -> smol_codec::Result<Vec<EncodedVariant>> {
    let natives = throughput_images(spec, seed, n);
    let short = spec.tput_thumb_short;
    let thumbs: Vec<ImageU8> = natives
        .iter()
        .map(|img| resize_short_edge_u8(img, short).expect("thumbnail resize"))
        .collect();
    Ok(vec![
        encode_variant("full-res sjpg(q=95)", &natives, Format::sjpg(95), false)?,
        encode_variant(
            "full-res sjpg420(q=95)",
            &natives,
            Format::sjpg420(95),
            false,
        )?,
        encode_variant(format!("{short} spng"), &thumbs, Format::Spng, true)?,
        encode_variant(
            format!("{short} sjpg(q=95)"),
            &thumbs,
            Format::sjpg(95),
            true,
        )?,
        encode_variant(
            format!("{short} sjpg(q=75)"),
            &thumbs,
            Format::sjpg(75),
            true,
        )?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::still_catalog;

    #[test]
    fn serving_layout_matches_the_papers_four_variants_plus_chroma() {
        let spec = &still_catalog()[0];
        let vars = serving_variants(spec, 7, 6).unwrap();
        assert_eq!(vars.len(), 5);
        assert_eq!(vars[0].name, "full-res sjpg(q=95)");
        assert_eq!(vars[1].name, "full-res sjpg420(q=95)");
        for v in &vars[..2] {
            assert!(!v.thumbnail);
            assert_eq!((v.width, v.height), spec.tput_native);
        }
        assert!(vars[1].format.is_chroma_subsampled());
        for v in &vars[2..] {
            assert!(v.thumbnail);
            assert_eq!(v.width.min(v.height), spec.tput_thumb_short);
            assert!(v.name.starts_with(&spec.tput_thumb_short.to_string()));
        }
        for v in &vars {
            assert_eq!(v.items.len(), 6);
            assert_eq!(v.items[0].width(), v.width);
            assert_eq!(v.items[0].format(), v.format);
        }
    }

    #[test]
    fn thumbnails_are_smaller_on_the_wire() {
        let spec = &still_catalog()[0];
        let vars = serving_variants(spec, 3, 4).unwrap();
        let bytes = |v: &EncodedVariant| -> usize { v.items.iter().map(|e| e.size_bytes()).sum() };
        assert!(bytes(&vars[4]) < bytes(&vars[0]), "q=75 thumbs < full-res");
        // 4:2:0 stores half the chroma blocks of the same content.
        assert!(bytes(&vars[1]) < bytes(&vars[0]), "420 < 444 on the wire");
    }
}
