//! File metadata: the group/dataset/attribute tree and its footer encoding.

use std::collections::BTreeMap;

use crate::dtype::Dtype;
use crate::error::{H5Error, H5Result};
use crate::wire::{Dec, Enc};

/// An attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Signed integer.
    Int(i64),
    /// Double-precision float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
}

impl AttrValue {
    /// The integer payload, if this is an [`AttrValue::Int`].
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            AttrValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The float payload, if this is an [`AttrValue::Float`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AttrValue::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The string payload, if this is an [`AttrValue::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}
impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::Int(v as i64)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// Physical layout of a dataset's bytes in the data region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Layout {
    /// One extent holding the whole dataset.
    Contiguous {
        /// Byte offset in the file.
        offset: u64,
        /// Stored byte length (compressed size if a codec is set).
        stored_len: u64,
    },
    /// Split along the slowest dimension into equally sized row-chunks
    /// (the last chunk may be shorter).
    Chunked {
        /// Rows of the slowest dimension per chunk.
        rows_per_chunk: u64,
        /// `(offset, stored_len)` per chunk, in order.
        chunks: Vec<(u64, u64)>,
    },
}

/// Metadata of one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetMeta {
    /// Element type.
    pub dtype: Dtype,
    /// Extents, slowest-varying first.
    pub shape: Vec<u64>,
    /// Storage layout.
    pub layout: Layout,
    /// Codec pipeline spec applied per extent ("" = uncompressed).
    pub codec_spec: String,
    /// Attributes attached to the dataset.
    pub attrs: BTreeMap<String, AttrValue>,
}

impl DatasetMeta {
    /// Number of elements.
    ///
    /// Saturating: a corrupted footer may carry absurd extents, and these
    /// accessors feed validation code that must report corruption rather
    /// than overflow.
    pub fn element_count(&self) -> u64 {
        self.shape
            .iter()
            .fold(1u64, |acc, &s| acc.saturating_mul(s))
    }

    /// Uncompressed byte size (saturating, see [`Self::element_count`]).
    pub fn byte_size(&self) -> u64 {
        self.element_count()
            .saturating_mul(self.dtype.size_bytes() as u64)
    }

    /// Stored (on-disk) byte size across all extents (saturating).
    pub fn stored_size(&self) -> u64 {
        match &self.layout {
            Layout::Contiguous { stored_len, .. } => *stored_len,
            Layout::Chunked { chunks, .. } => chunks
                .iter()
                .fold(0u64, |acc, &(_, l)| acc.saturating_add(l)),
        }
    }
}

/// Metadata of one group (interior namespace node).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GroupMeta {
    /// Attributes attached to the group.
    pub attrs: BTreeMap<String, AttrValue>,
}

/// The complete metadata tree of a file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FileMeta {
    /// Datasets by full path (`a/b/c`, no leading slash).
    pub datasets: BTreeMap<String, DatasetMeta>,
    /// Groups by full path ("" is the root group).
    pub groups: BTreeMap<String, GroupMeta>,
}

impl FileMeta {
    /// Normalize a user path: strip leading/trailing slashes.
    pub fn normalize(path: &str) -> String {
        path.trim_matches('/').to_string()
    }

    /// List the immediate children of a group path: `(name, is_dataset)`.
    pub fn list(&self, group: &str) -> Vec<(String, bool)> {
        let prefix = Self::normalize(group);
        let mut out: Vec<(String, bool)> = Vec::new();
        let matches = |path: &str| -> Option<String> {
            let rest = if prefix.is_empty() {
                path
            } else {
                path.strip_prefix(&prefix)?.strip_prefix('/')?
            };
            if rest.is_empty() {
                return None;
            }
            Some(rest.split('/').next().unwrap().to_string())
        };
        for path in self.datasets.keys() {
            if let Some(child) = matches(path) {
                let full = if prefix.is_empty() {
                    child.clone()
                } else {
                    format!("{prefix}/{child}")
                };
                let is_ds = self.datasets.contains_key(&full);
                if !out.iter().any(|(n, _)| n == &child) {
                    out.push((child, is_ds));
                }
            }
        }
        for path in self.groups.keys() {
            if let Some(child) = matches(path) {
                if !out.iter().any(|(n, _)| n == &child) {
                    out.push((child, false));
                }
            }
        }
        out.sort();
        out
    }

    /// Serialize the tree into footer bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u32(self.groups.len() as u32);
        for (path, g) in &self.groups {
            e.str(path);
            encode_attrs(&mut e, &g.attrs);
        }
        e.u32(self.datasets.len() as u32);
        for (path, d) in &self.datasets {
            e.str(path);
            e.u8(d.dtype.code());
            e.u32(d.shape.len() as u32);
            for &s in &d.shape {
                e.u64(s);
            }
            e.str(&d.codec_spec);
            match &d.layout {
                Layout::Contiguous { offset, stored_len } => {
                    e.u8(0);
                    e.u64(*offset);
                    e.u64(*stored_len);
                }
                Layout::Chunked {
                    rows_per_chunk,
                    chunks,
                } => {
                    e.u8(1);
                    e.u64(*rows_per_chunk);
                    e.u32(chunks.len() as u32);
                    for &(off, len) in chunks {
                        e.u64(off);
                        e.u64(len);
                    }
                }
            }
            encode_attrs(&mut e, &d.attrs);
        }
        e.into_bytes()
    }

    /// Parse footer bytes back into a tree.
    pub fn decode(bytes: &[u8]) -> H5Result<Self> {
        let mut d = Dec::new(bytes);
        let mut meta = FileMeta::default();
        let n_groups = d.u32()?;
        for _ in 0..n_groups {
            let path = d.str()?;
            let attrs = decode_attrs(&mut d)?;
            meta.groups.insert(path, GroupMeta { attrs });
        }
        let n_datasets = d.u32()?;
        for _ in 0..n_datasets {
            let path = d.str()?;
            let dtype = Dtype::from_code(d.u8()?)?;
            let ndims = d.u32()? as usize;
            if ndims > 32 {
                return Err(H5Error::Corrupt(format!(
                    "{ndims} dimensions is implausible"
                )));
            }
            let mut shape = Vec::with_capacity(ndims);
            for _ in 0..ndims {
                shape.push(d.u64()?);
            }
            let codec_spec = d.str()?;
            let layout = match d.u8()? {
                0 => Layout::Contiguous {
                    offset: d.u64()?,
                    stored_len: d.u64()?,
                },
                1 => {
                    let rows_per_chunk = d.u64()?;
                    // A count is not trusted past the 16 bytes per entry
                    // that the footer can hold.
                    let n = d.u32()? as usize;
                    let mut chunks = Vec::with_capacity(n.min(bytes.len() / 16));
                    for _ in 0..n {
                        chunks.push((d.u64()?, d.u64()?));
                    }
                    Layout::Chunked {
                        rows_per_chunk,
                        chunks,
                    }
                }
                other => {
                    return Err(H5Error::Corrupt(format!("unknown layout code {other}")));
                }
            };
            let attrs = decode_attrs(&mut d)?;
            meta.datasets.insert(
                path,
                DatasetMeta {
                    dtype,
                    shape,
                    layout,
                    codec_spec,
                    attrs,
                },
            );
        }
        if !d.at_end() {
            return Err(H5Error::Corrupt("trailing bytes after footer".into()));
        }
        Ok(meta)
    }
}

fn encode_attrs(e: &mut Enc, attrs: &BTreeMap<String, AttrValue>) {
    e.u32(attrs.len() as u32);
    for (k, v) in attrs {
        e.str(k);
        match v {
            AttrValue::Int(i) => {
                e.u8(0);
                e.i64(*i);
            }
            AttrValue::Float(f) => {
                e.u8(1);
                e.f64(*f);
            }
            AttrValue::Str(s) => {
                e.u8(2);
                e.str(s);
            }
        }
    }
}

fn decode_attrs(d: &mut Dec<'_>) -> H5Result<BTreeMap<String, AttrValue>> {
    let n = d.u32()?;
    let mut attrs = BTreeMap::new();
    for _ in 0..n {
        let k = d.str()?;
        let v = match d.u8()? {
            0 => AttrValue::Int(d.i64()?),
            1 => AttrValue::Float(d.f64()?),
            2 => AttrValue::Str(d.str()?),
            other => return Err(H5Error::Corrupt(format!("unknown attr code {other}"))),
        };
        attrs.insert(k, v);
    }
    Ok(attrs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FileMeta {
        let mut meta = FileMeta::default();
        meta.groups.insert("cm1".into(), GroupMeta::default());
        let mut g = GroupMeta::default();
        g.attrs.insert("time".into(), AttrValue::Float(0.5));
        g.attrs.insert("step".into(), AttrValue::Int(42));
        g.attrs.insert("model".into(), AttrValue::Str("cm1".into()));
        meta.groups.insert("cm1/it42".into(), g);
        meta.datasets.insert(
            "cm1/it42/u".into(),
            DatasetMeta {
                dtype: Dtype::F32,
                shape: vec![64, 64, 32],
                layout: Layout::Contiguous {
                    offset: 16,
                    stored_len: 64 * 64 * 32 * 4,
                },
                codec_spec: String::new(),
                attrs: BTreeMap::new(),
            },
        );
        meta.datasets.insert(
            "cm1/it42/theta".into(),
            DatasetMeta {
                dtype: Dtype::F64,
                shape: vec![8, 16],
                layout: Layout::Chunked {
                    rows_per_chunk: 4,
                    chunks: vec![(1000, 120), (1120, 98)],
                },
                codec_spec: "xor-delta8,rle".into(),
                attrs: BTreeMap::new(),
            },
        );
        meta
    }

    #[test]
    fn footer_roundtrip() {
        let meta = sample();
        let bytes = meta.encode();
        let back = FileMeta::decode(&bytes).unwrap();
        assert_eq!(meta, back);
    }

    #[test]
    fn sizes_computed() {
        let meta = sample();
        let u = &meta.datasets["cm1/it42/u"];
        assert_eq!(u.element_count(), 64 * 64 * 32);
        assert_eq!(u.byte_size(), 64 * 64 * 32 * 4);
        let theta = &meta.datasets["cm1/it42/theta"];
        assert_eq!(theta.stored_size(), 218);
        assert_eq!(theta.byte_size(), 8 * 16 * 8);
    }

    #[test]
    fn list_children() {
        let meta = sample();
        assert_eq!(meta.list(""), vec![("cm1".to_string(), false)]);
        assert_eq!(meta.list("cm1"), vec![("it42".to_string(), false)]);
        let inside = meta.list("cm1/it42");
        assert_eq!(
            inside,
            vec![("theta".to_string(), true), ("u".to_string(), true)]
        );
        assert_eq!(meta.list("/cm1/it42/"), inside, "slashes normalized");
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(FileMeta::decode(&[1, 2, 3]).is_err());
        // Valid-looking but trailing junk.
        let mut bytes = sample().encode();
        bytes.push(0);
        assert!(FileMeta::decode(&bytes).is_err());
    }

    #[test]
    fn attr_value_accessors() {
        assert_eq!(AttrValue::from(3i64).as_i64(), Some(3));
        assert_eq!(AttrValue::from(2.5f64).as_f64(), Some(2.5));
        assert_eq!(AttrValue::from("x").as_str(), Some("x"));
        assert_eq!(AttrValue::from(3i64).as_str(), None);
    }
}
