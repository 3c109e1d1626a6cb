//! Persistent variant store: the physical-representation layer (ROADMAP
//! item 2, Tahoma-style storage-as-plan-space).
//!
//! A [`VariantStore`] persists a dataset's serving ladder — the encoded
//! variants [`crate::registry::serving_variants`] produces — under a
//! **content-addressed** layout so a later session can *read* a
//! materialized variant instead of re-encoding the corpus:
//!
//! ```text
//! <root>/objects/<fingerprint-hex16>.bin   # encoded bytes, content-addressed
//! <root>/manifests/<dataset-slug>.manifest # plain-text manifest (see below)
//! ```
//!
//! Objects are named by [`smol_codec::EncodedImage::fingerprint`] (FNV-1a
//! 64 over format + dimensions + bytes), which is stable across processes.
//! Identical content is stored once: materializing two datasets that share
//! images, or re-materializing the same dataset, deduplicates at the
//! object level and the second pass writes nothing.
//!
//! The manifest is a versioned, line-oriented text format (the workspace
//! carries no JSON serializer). Tab-separated fields; names, which may
//! contain spaces, are always the final field of their line:
//!
//! ```text
//! smol-variant-store v1
//! dataset\t<name>
//! variant\t<format>\t<width>\t<height>\t<thumb 0|1>\t<name>
//! item\t<fingerprint-hex16>\t<format>\t<width>\t<height>\t<bytes>
//! ```
//!
//! Formats serialize as `sjpg/<q>/444`, `sjpg/<q>/420`, `spng`, or
//! `svid/<q>`. Loading reconstructs [`EncodedVariant`]s bit-identically —
//! every object is re-fingerprinted on read, so silent corruption of the
//! object store surfaces as a typed error instead of wrong query results.

use crate::registry::EncodedVariant;
use smol_codec::{Bytes, Chroma, EncodedImage, Format};
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// On-disk store of materialized serving variants. See the module docs
/// for the layout.
#[derive(Debug, Clone)]
pub struct VariantStore {
    root: PathBuf,
}

/// What one [`VariantStore::materialize`] call did: how many objects were
/// newly written vs already present (content-level dedup), and the bytes
/// that hit the disk. A fully warm re-materialization reports
/// `objects_written == 0`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaterializeReport {
    pub objects_written: usize,
    pub objects_deduped: usize,
    pub bytes_written: u64,
}

impl VariantStore {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(root.join("objects"))?;
        fs::create_dir_all(root.join("manifests"))?;
        Ok(VariantStore { root })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the content-addressed object for `fingerprint`.
    pub fn object_path(&self, fingerprint: u64) -> PathBuf {
        self.root
            .join("objects")
            .join(format!("{fingerprint:016x}.bin"))
    }

    fn manifest_path(&self, dataset: &str) -> PathBuf {
        self.root
            .join("manifests")
            .join(format!("{}.manifest", slug(dataset)))
    }

    /// True when `dataset` has a manifest in this store.
    pub fn contains(&self, dataset: &str) -> bool {
        self.manifest_path(dataset).is_file()
    }

    /// Datasets with manifests in this store (slug order).
    pub fn datasets(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(self.root.join("manifests"))? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "manifest") {
                let text = fs::read_to_string(&path)?;
                if let Some(name) = text.lines().find_map(|l| l.strip_prefix("dataset\t")) {
                    names.push(name.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    /// Ahead-of-time transcode persistence: writes every item of every
    /// variant into the object store (skipping objects already present)
    /// and (re)writes the dataset's manifest. Object writes go through a
    /// temp file + rename so a crashed materialization never leaves a
    /// truncated object behind.
    pub fn materialize(
        &self,
        dataset: &str,
        variants: &[EncodedVariant],
    ) -> io::Result<MaterializeReport> {
        let mut report = MaterializeReport::default();
        let mut manifest = String::from("smol-variant-store v1\n");
        manifest.push_str(&format!("dataset\t{dataset}\n"));
        for v in variants {
            manifest.push_str(&format!(
                "variant\t{}\t{}\t{}\t{}\t{}\n",
                format_code(v.format),
                v.width,
                v.height,
                v.thumbnail as u8,
                v.name
            ));
            for item in &v.items {
                let fp = item.fingerprint();
                let path = self.object_path(fp);
                if path.is_file() {
                    report.objects_deduped += 1;
                } else {
                    write_atomic(&path, item.bytes())?;
                    report.objects_written += 1;
                    report.bytes_written += item.bytes().len() as u64;
                }
                manifest.push_str(&format!(
                    "item\t{fp:016x}\t{}\t{}\t{}\t{}\n",
                    format_code(item.format()),
                    item.width(),
                    item.height(),
                    item.bytes().len()
                ));
            }
        }
        write_atomic(&self.manifest_path(dataset), manifest.as_bytes())?;
        Ok(report)
    }

    /// Loads a dataset's materialized variants. Every object is
    /// re-fingerprinted against its manifest entry, so a corrupted or
    /// swapped object fails loudly here rather than decoding into wrong
    /// pixels later.
    pub fn load(&self, dataset: &str) -> io::Result<Vec<EncodedVariant>> {
        let text = fs::read_to_string(self.manifest_path(dataset))?;
        let mut lines = text.lines();
        if lines.next() != Some("smol-variant-store v1") {
            return Err(bad_data("unrecognized manifest header"));
        }
        match lines.next().and_then(|l| l.strip_prefix("dataset\t")) {
            Some(name) if name == dataset => {}
            Some(name) => {
                return Err(bad_data(format!(
                    "manifest names dataset {name:?}, expected {dataset:?} (slug collision)"
                )))
            }
            None => return Err(bad_data("manifest missing dataset line")),
        }
        let mut variants: Vec<EncodedVariant> = Vec::new();
        for line in lines {
            if let Some(rest) = line.strip_prefix("variant\t") {
                let mut f = rest.splitn(5, '\t');
                let format = parse_format(f.next().ok_or_else(|| bad_data(line))?)?;
                let width = parse_num(f.next(), line)?;
                let height = parse_num(f.next(), line)?;
                let thumbnail = f.next() == Some("1");
                let name = f.next().ok_or_else(|| bad_data(line))?.to_string();
                variants.push(EncodedVariant {
                    name,
                    format,
                    width,
                    height,
                    thumbnail,
                    items: Vec::new(),
                });
            } else if let Some(rest) = line.strip_prefix("item\t") {
                let v = variants
                    .last_mut()
                    .ok_or_else(|| bad_data("item line before any variant"))?;
                let mut f = rest.splitn(5, '\t');
                let fp = u64::from_str_radix(f.next().ok_or_else(|| bad_data(line))?, 16)
                    .map_err(|_| bad_data(line))?;
                let format = parse_format(f.next().ok_or_else(|| bad_data(line))?)?;
                let width = parse_num(f.next(), line)?;
                let height = parse_num(f.next(), line)?;
                let len: usize = parse_num(f.next(), line)?;
                let bytes = fs::read(self.object_path(fp))?;
                if bytes.len() != len {
                    return Err(bad_data(format!(
                        "object {fp:016x}: expected {len} bytes, found {}",
                        bytes.len()
                    )));
                }
                let item = EncodedImage::new(format, width, height, Bytes::from(bytes));
                if item.fingerprint() != fp {
                    return Err(bad_data(format!(
                        "object {fp:016x} failed fingerprint verification"
                    )));
                }
                v.items.push(item);
            }
        }
        Ok(variants)
    }
}

/// Atomic-ish write: temp file in the target directory, then rename.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path
        .parent()
        .ok_or_else(|| bad_data("object path has no parent"))?;
    let tmp = dir.join(format!(
        ".tmp-{}-{}",
        std::process::id(),
        path.file_name().and_then(|n| n.to_str()).unwrap_or("obj")
    ));
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
    }
    fs::rename(&tmp, path)
}

fn bad_data(msg: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn parse_num<T: std::str::FromStr>(field: Option<&str>, line: &str) -> io::Result<T> {
    field
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad_data(format!("bad manifest line: {line}")))
}

/// Filesystem-safe manifest name: alphanumerics pass through, everything
/// else becomes `_`, with an FNV-1a suffix so distinct dataset names never
/// share a manifest file (verified again at load time).
fn slug(dataset: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in dataset.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let safe: String = dataset
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!("{safe}-{h:08x}", h = h as u32)
}

fn format_code(format: Format) -> String {
    match format {
        Format::Sjpg { quality, chroma } => format!(
            "sjpg/{quality}/{}",
            if chroma.is_subsampled() { "420" } else { "444" }
        ),
        Format::Spng => "spng".to_string(),
        Format::Svid { quality } => format!("svid/{quality}"),
    }
}

fn parse_format(code: &str) -> io::Result<Format> {
    let mut parts = code.split('/');
    match parts.next() {
        Some("spng") => Ok(Format::Spng),
        Some("sjpg") => {
            let quality: u8 = parse_num(parts.next(), code)?;
            let chroma = match parts.next() {
                Some("444") => Chroma::C444,
                Some("420") => Chroma::C420,
                _ => return Err(bad_data(format!("bad chroma in format code {code:?}"))),
            };
            Ok(Format::Sjpg { quality, chroma })
        }
        Some("svid") => Ok(Format::Svid {
            quality: parse_num(parts.next(), code)?,
        }),
        _ => Err(bad_data(format!("unknown format code {code:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::still_catalog;
    use crate::registry::serving_variants;

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("smol-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn materialize_then_load_roundtrips_bit_identically() {
        let root = temp_root("roundtrip");
        let store = VariantStore::open(&root).unwrap();
        let spec = &still_catalog()[0];
        let vars = serving_variants(spec, 11, 4).unwrap();
        assert!(!store.contains("bike-bird"));
        let report = store.materialize("bike-bird", &vars).unwrap();
        assert!(report.objects_written > 0);
        assert!(store.contains("bike-bird"));
        assert_eq!(store.datasets().unwrap(), vec!["bike-bird".to_string()]);

        let loaded = store.load("bike-bird").unwrap();
        assert_eq!(loaded.len(), vars.len());
        for (orig, back) in vars.iter().zip(&loaded) {
            assert_eq!(orig.name, back.name);
            assert_eq!(orig.format, back.format);
            assert_eq!((orig.width, orig.height), (back.width, back.height));
            assert_eq!(orig.thumbnail, back.thumbnail);
            assert_eq!(orig.items.len(), back.items.len());
            for (a, b) in orig.items.iter().zip(&back.items) {
                assert_eq!(a.bytes(), b.bytes(), "stored bytes must be bit-identical");
                assert_eq!(
                    (a.width(), a.height(), a.format()),
                    (b.width(), b.height(), b.format())
                );
            }
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn rematerialization_dedups_every_object() {
        let root = temp_root("dedup");
        let store = VariantStore::open(&root).unwrap();
        let spec = &still_catalog()[0];
        let vars = serving_variants(spec, 5, 3).unwrap();
        let first = store.materialize("animals", &vars).unwrap();
        let second = store.materialize("animals", &vars).unwrap();
        assert_eq!(second.objects_written, 0, "warm store writes nothing");
        assert_eq!(second.bytes_written, 0);
        assert_eq!(
            second.objects_deduped,
            first.objects_written + first.objects_deduped
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupted_objects_fail_fingerprint_verification() {
        let root = temp_root("corrupt");
        let store = VariantStore::open(&root).unwrap();
        let spec = &still_catalog()[0];
        let vars = serving_variants(spec, 9, 2).unwrap();
        store.materialize("birds", &vars).unwrap();
        // Flip one byte of one object, keeping its length.
        let fp = vars[0].items[0].fingerprint();
        let path = store.object_path(fp);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let err = store.load("birds").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("fingerprint"), "{err}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn format_codes_roundtrip() {
        for fmt in [
            Format::sjpg(95),
            Format::sjpg420(75),
            Format::Spng,
            Format::Svid { quality: 80 },
        ] {
            assert_eq!(parse_format(&format_code(fmt)).unwrap(), fmt);
        }
        assert!(parse_format("webp/80").is_err());
    }

    #[test]
    fn slugs_are_safe_and_distinct() {
        assert_ne!(slug("a/b"), slug("a_b"), "hash suffix separates collisions");
        assert!(!slug("week/end queries").contains('/'));
    }
}
