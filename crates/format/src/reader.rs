//! Reading h5lite files: metadata, datasets, and the `dump` inspector.

use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

use codec::{EncodeScratch, Pipeline};

use crate::dtype::H5Pod;
use crate::error::{H5Error, H5Result};
use crate::meta::{AttrValue, DatasetMeta, FileMeta, Layout};
use crate::{MAGIC, TRAILER_MAGIC, VERSION};

/// Random-access reader over any seekable source.
pub struct FileReader<R: Read + Seek> {
    r: R,
    meta: FileMeta,
    /// Stored bytes of the extent being read, and the codec's decode
    /// buffers: kept across extents and reads, so a chunked dataset costs
    /// no allocation per chunk.
    stored: Vec<u8>,
    scratch: EncodeScratch,
}

impl FileReader<std::io::BufReader<std::fs::File>> {
    /// Open a file from disk (buffered).
    pub fn open(path: impl AsRef<Path>) -> H5Result<Self> {
        let f = std::fs::File::open(path)?;
        FileReader::new(std::io::BufReader::new(f))
    }
}

impl<R: Read + Seek> FileReader<R> {
    /// Validate header and trailer, then load the metadata footer.
    pub fn new(mut r: R) -> H5Result<Self> {
        let mut header = [0u8; 16];
        r.seek(SeekFrom::Start(0))?;
        r.read_exact(&mut header)
            .map_err(|_| H5Error::Corrupt("file shorter than header".into()))?;
        if &header[..8] != MAGIC {
            return Err(H5Error::Corrupt("bad magic".into()));
        }
        let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(H5Error::Corrupt(format!("unsupported version {version}")));
        }
        let end = r.seek(SeekFrom::End(0))?;
        if end < 16 + 24 {
            return Err(H5Error::Corrupt(
                "file shorter than header + trailer".into(),
            ));
        }
        r.seek(SeekFrom::End(-24))?;
        let mut trailer = [0u8; 24];
        r.read_exact(&mut trailer)?;
        if &trailer[16..] != TRAILER_MAGIC {
            return Err(H5Error::Corrupt(
                "bad trailer magic (file not finished?)".into(),
            ));
        }
        let footer_offset = u64::from_le_bytes(trailer[..8].try_into().unwrap());
        let footer_len = u64::from_le_bytes(trailer[8..16].try_into().unwrap());
        if footer_offset + footer_len + 24 != end {
            return Err(H5Error::Corrupt("trailer does not point at footer".into()));
        }
        r.seek(SeekFrom::Start(footer_offset))?;
        let mut footer = vec![0u8; footer_len as usize];
        r.read_exact(&mut footer)?;
        let meta = FileMeta::decode(&footer)?;
        Ok(FileReader {
            r,
            meta,
            stored: Vec::new(),
            scratch: EncodeScratch::new(),
        })
    }

    /// The file's metadata tree.
    pub fn meta(&self) -> &FileMeta {
        &self.meta
    }

    /// Metadata of a dataset.
    pub fn dataset(&self, path: &str) -> H5Result<&DatasetMeta> {
        let path = FileMeta::normalize(path);
        self.meta.datasets.get(&path).ok_or(H5Error::NotFound(path))
    }

    /// Attribute on a group or dataset.
    pub fn attr(&self, path: &str, key: &str) -> Option<&AttrValue> {
        let path = FileMeta::normalize(path);
        if let Some(ds) = self.meta.datasets.get(&path) {
            return ds.attrs.get(key);
        }
        self.meta.groups.get(&path).and_then(|g| g.attrs.get(key))
    }

    /// Immediate children of a group: `(name, is_dataset)`.
    pub fn list(&self, group: &str) -> Vec<(String, bool)> {
        self.meta.list(group)
    }

    /// Append the decoded bytes of the extent `[offset, +len)`, which the
    /// caller has checked against the file size, to `out`. They must be
    /// `raw_len` bytes ([`extent_raw_len`]), and the decode stops as soon
    /// as it would produce more.
    fn read_extent(
        &mut self,
        (offset, len): (u64, u64),
        raw_len: u64,
        pipeline: Option<&Pipeline>,
        out: &mut Vec<u8>,
    ) -> H5Result<()> {
        let wrong_len = |got: usize| {
            H5Error::Corrupt(format!(
                "extent at {offset} holds {got} bytes, expected {raw_len}"
            ))
        };
        self.r.seek(SeekFrom::Start(offset))?;
        let Some(p) = pipeline else {
            if len != raw_len {
                return Err(wrong_len(len as usize));
            }
            let start = out.len();
            out.resize(start + len as usize, 0);
            return Ok(self.r.read_exact(&mut out[start..])?);
        };
        self.stored.resize(len as usize, 0);
        self.r.read_exact(&mut self.stored)?;
        let raw = p.decode_with(&self.stored, raw_len as usize, &mut self.scratch)?;
        if raw.len() as u64 != raw_len {
            return Err(wrong_len(raw.len()));
        }
        out.extend_from_slice(raw);
        Ok(())
    }

    /// Read and decompress a dataset's full contents as bytes.
    pub fn read_bytes(&mut self, path: &str) -> H5Result<Vec<u8>> {
        let ds = self.dataset(path)?.clone();
        let pipeline = if ds.codec_spec.is_empty() {
            None
        } else {
            Some(Pipeline::from_spec(&ds.codec_spec)?)
        };
        // Validate every extent against the actual file size before
        // allocating anything: a corrupted footer must produce a clean
        // error, not a gigantic allocation.
        let file_size = self.r.seek(SeekFrom::End(0))?;
        let extents: Vec<(u64, u64)> = match &ds.layout {
            Layout::Contiguous { offset, stored_len } => vec![(*offset, *stored_len)],
            Layout::Chunked { chunks, .. } => chunks.clone(),
        };
        for &(offset, len) in &extents {
            if offset.checked_add(len).is_none_or(|end| end > file_size) {
                return Err(H5Error::Corrupt(format!(
                    "dataset '{path}' extent [{offset}, +{len}) exceeds the {file_size}-byte file"
                )));
            }
        }
        check_size(&ds, path, file_size)?;
        let mut out = Vec::with_capacity(ds.byte_size() as usize);
        for (k, extent) in extents.into_iter().enumerate() {
            self.read_extent(extent, extent_raw_len(&ds, k), pipeline.as_ref(), &mut out)?;
        }
        if out.len() as u64 != ds.byte_size() {
            return Err(H5Error::Corrupt(format!(
                "dataset '{path}' decoded to {} bytes, expected {}",
                out.len(),
                ds.byte_size()
            )));
        }
        Ok(out)
    }

    /// Read a dataset as a typed vector; the element type must match.
    pub fn read_pod<T: H5Pod>(&mut self, path: &str) -> H5Result<Vec<T>> {
        let ds = self.dataset(path)?;
        if ds.dtype != T::DTYPE {
            return Err(H5Error::TypeMismatch(format!(
                "dataset '{path}' is {}, read_pod called with {}",
                ds.dtype,
                T::DTYPE
            )));
        }
        let bytes = self.read_bytes(path)?;
        let size = std::mem::size_of::<T>();
        debug_assert_eq!(bytes.len() % size, 0);
        let n = bytes.len() / size;
        let mut out: Vec<T> = Vec::with_capacity(n);
        // SAFETY: any bit pattern is a valid T (H5Pod); copy handles alignment.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr() as *mut u8, bytes.len());
            out.set_len(n);
        }
        Ok(out)
    }

    /// Read a contiguous row range of a dataset (rows = indices along the
    /// slowest dimension) without materializing the whole array.
    ///
    /// For chunked layouts only the chunks overlapping the range are read
    /// and decoded — the hyperslab access pattern analysis tools use on
    /// large node files. For contiguous uncompressed layouts the byte
    /// window is read directly; contiguous *compressed* layouts must
    /// decode the single extent (the format stores them as one unit).
    pub fn read_rows_pod<T: H5Pod>(
        &mut self,
        path: &str,
        row_start: u64,
        row_count: u64,
    ) -> H5Result<Vec<T>> {
        let ds = self.dataset(path)?.clone();
        if ds.dtype != T::DTYPE {
            return Err(H5Error::TypeMismatch(format!(
                "dataset '{path}' is {}, read_rows_pod called with {}",
                ds.dtype,
                T::DTYPE
            )));
        }
        let rows_total = ds.shape[0];
        if row_start
            .checked_add(row_count)
            .is_none_or(|end| end > rows_total)
        {
            return Err(H5Error::NotFound(format!(
                "{path}: rows [{row_start}, +{row_count}) outside 0..{rows_total}"
            )));
        }
        let row_elems: u64 = ds.shape[1..].iter().product::<u64>().max(1);
        let row_bytes = row_elems * ds.dtype.size_bytes() as u64;
        let want_start = row_start * row_bytes;
        let want_len = row_count * row_bytes;

        let bytes: Vec<u8> = match &ds.layout {
            Layout::Contiguous { offset, stored_len } => {
                if ds.codec_spec.is_empty() {
                    // Direct window read.
                    let file_size = self.r.seek(SeekFrom::End(0))?;
                    let begin = offset + want_start;
                    if begin + want_len > file_size || begin + want_len > offset + stored_len {
                        return Err(H5Error::Corrupt(format!(
                            "dataset '{path}' window exceeds its extent"
                        )));
                    }
                    self.r.seek(SeekFrom::Start(begin))?;
                    let mut buf = vec![0u8; want_len as usize];
                    self.r.read_exact(&mut buf)?;
                    buf
                } else {
                    // One compressed unit: decode all, then slice.
                    let all = self.read_bytes(path)?;
                    all[want_start as usize..(want_start + want_len) as usize].to_vec()
                }
            }
            Layout::Chunked {
                rows_per_chunk,
                chunks,
            } => {
                if *rows_per_chunk == 0 {
                    return Err(H5Error::Corrupt(format!(
                        "dataset '{path}' declares zero rows per chunk"
                    )));
                }
                let pipeline = if ds.codec_spec.is_empty() {
                    None
                } else {
                    Some(Pipeline::from_spec(&ds.codec_spec)?)
                };
                let file_size = self.r.seek(SeekFrom::End(0))?;
                check_size(&ds, path, file_size)?;
                let first_chunk = (row_start / rows_per_chunk) as usize;
                let last_chunk = ((row_start + row_count - 1) / rows_per_chunk) as usize;
                if last_chunk >= chunks.len() {
                    return Err(H5Error::Corrupt(format!(
                        "dataset '{path}' chunk table too short for its shape"
                    )));
                }
                let wanted = first_chunk..=last_chunk;
                let mut assembled = Vec::with_capacity(
                    wanted.clone().map(|k| extent_raw_len(&ds, k)).sum::<u64>() as usize,
                );
                for k in wanted {
                    let (offset, len) = chunks[k];
                    if offset.checked_add(len).is_none_or(|end| end > file_size) {
                        return Err(H5Error::Corrupt(format!(
                            "dataset '{path}' chunk extent exceeds the file"
                        )));
                    }
                    let raw_len = extent_raw_len(&ds, k);
                    self.read_extent((offset, len), raw_len, pipeline.as_ref(), &mut assembled)?;
                }
                // Trim to the requested window inside the assembled chunks.
                let skip = (row_start - first_chunk as u64 * rows_per_chunk) * row_bytes;
                let end = skip + want_len;
                if end as usize > assembled.len() {
                    return Err(H5Error::Corrupt(format!(
                        "dataset '{path}' chunks decoded short: {} < {end}",
                        assembled.len()
                    )));
                }
                assembled[skip as usize..end as usize].to_vec()
            }
        };

        let size = std::mem::size_of::<T>();
        debug_assert_eq!(bytes.len() % size, 0);
        let n = bytes.len() / size;
        let mut out: Vec<T> = Vec::with_capacity(n);
        // SAFETY: any bit pattern is a valid T (H5Pod); copy handles alignment.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr() as *mut u8, bytes.len());
            out.set_len(n);
        }
        Ok(out)
    }

    /// `h5ls`-style listing of the whole file, including compression ratios.
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (path, g) in &self.meta.groups {
            if path.is_empty() {
                continue;
            }
            let _ = writeln!(out, "{path}/");
            for (k, v) in &g.attrs {
                let _ = writeln!(out, "    @{k} = {v:?}");
            }
        }
        for (path, d) in &self.meta.datasets {
            let shape: Vec<String> = d.shape.iter().map(|s| s.to_string()).collect();
            let codec = if d.codec_spec.is_empty() {
                String::new()
            } else {
                format!(
                    "  codec={} ({:.2}:1)",
                    d.codec_spec,
                    d.byte_size() as f64 / d.stored_size().max(1) as f64
                )
            };
            let layout = match &d.layout {
                Layout::Contiguous { .. } => "contiguous".to_string(),
                Layout::Chunked {
                    chunks,
                    rows_per_chunk,
                } => {
                    format!("chunked[{} x {} rows]", chunks.len(), rows_per_chunk)
                }
            };
            let _ = writeln!(
                out,
                "{path}  {} [{}]  {layout}{codec}",
                d.dtype,
                shape.join("x")
            );
            for (k, v) in &d.attrs {
                let _ = writeln!(out, "    @{k} = {v:?}");
            }
        }
        out
    }
}

/// Reject a dataset that declares more bytes than its file can hold:
/// even with extreme compression nothing plausibly expands 1024-fold, so
/// the shape is corrupt, and nothing is allocated for it.
fn check_size(ds: &DatasetMeta, path: &str, file_size: u64) -> H5Result<()> {
    if ds.byte_size() > file_size.saturating_mul(1024) {
        return Err(H5Error::Corrupt(format!(
            "dataset '{path}' declares {} bytes in a {file_size}-byte file",
            ds.byte_size()
        )));
    }
    Ok(())
}

/// Decoded length of extent `k` of `ds`, known from its shape alone: the
/// whole dataset when contiguous, else `rows_per_chunk` rows, the last
/// chunk holding what is left.
fn extent_raw_len(ds: &DatasetMeta, k: usize) -> u64 {
    let total = ds.byte_size();
    let Layout::Chunked { rows_per_chunk, .. } = &ds.layout else {
        return total;
    };
    let row_elems = ds.shape.get(1..).unwrap_or_default().iter();
    let row_bytes = row_elems.fold(ds.dtype.size_bytes() as u64, |n, &s| n.saturating_mul(s));
    let chunk = rows_per_chunk.saturating_mul(row_bytes).max(1);
    total
        .saturating_sub(chunk.saturating_mul(k as u64))
        .min(chunk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::Dtype;
    use crate::writer::FileWriter;
    use std::io::Cursor;

    fn build_sample() -> Vec<u8> {
        let mut cur = Cursor::new(Vec::new());
        let mut w = FileWriter::new(&mut cur).unwrap();
        let u: Vec<f64> = (0..60).map(|i| i as f64 * 0.5).collect();
        w.dataset("cm1/it0/u", Dtype::F64, &[3, 4, 5])
            .unwrap()
            .write_pod(&u)
            .unwrap();
        let theta: Vec<f32> = (0..64).map(|i| 300.0 + i as f32).collect();
        w.dataset("cm1/it0/theta", Dtype::F32, &[8, 8])
            .unwrap()
            .chunked(2)
            .unwrap()
            .with_codec("xor-delta4,rle")
            .unwrap()
            .write_pod(&theta)
            .unwrap();
        w.set_attr("cm1/it0", "time", 0.5f64).unwrap();
        w.set_attr("cm1/it0/u", "unit", "m/s").unwrap();
        w.finish().unwrap();
        cur.into_inner()
    }

    #[test]
    fn full_roundtrip() {
        let bytes = build_sample();
        let mut r = FileReader::new(Cursor::new(bytes)).unwrap();
        let u = r.read_pod::<f64>("cm1/it0/u").unwrap();
        assert_eq!(u.len(), 60);
        assert_eq!(u[2], 1.0);
        let theta = r.read_pod::<f32>("/cm1/it0/theta").unwrap();
        assert_eq!(theta[63], 363.0);
        assert_eq!(r.attr("cm1/it0", "time").unwrap().as_f64(), Some(0.5));
        assert_eq!(r.attr("cm1/it0/u", "unit").unwrap().as_str(), Some("m/s"));
    }

    #[test]
    fn listing_and_dump() {
        let bytes = build_sample();
        let r = FileReader::new(Cursor::new(bytes)).unwrap();
        assert_eq!(r.list(""), vec![("cm1".to_string(), false)]);
        assert_eq!(
            r.list("cm1/it0"),
            vec![("theta".to_string(), true), ("u".to_string(), true)]
        );
        let dump = r.dump();
        assert!(
            dump.contains("cm1/it0/u  f64 [3x4x5]  contiguous"),
            "{dump}"
        );
        assert!(dump.contains("chunked[4 x 2 rows]"), "{dump}");
        assert!(dump.contains("codec=xor-delta4,rle"), "{dump}");
    }

    #[test]
    fn type_mismatch_on_read() {
        let bytes = build_sample();
        let mut r = FileReader::new(Cursor::new(bytes)).unwrap();
        assert!(matches!(
            r.read_pod::<f32>("cm1/it0/u"),
            Err(H5Error::TypeMismatch(_))
        ));
    }

    #[test]
    fn missing_dataset() {
        let bytes = build_sample();
        let mut r = FileReader::new(Cursor::new(bytes)).unwrap();
        assert!(matches!(r.read_bytes("nope"), Err(H5Error::NotFound(_))));
    }

    #[test]
    fn unfinished_file_rejected() {
        let mut cur = Cursor::new(Vec::new());
        let mut w = FileWriter::new(&mut cur).unwrap();
        w.dataset("d", Dtype::U8, &[4])
            .unwrap()
            .write_pod(&[1u8, 2, 3, 4])
            .unwrap();
        // No finish().
        drop(w);
        let bytes = cur.into_inner();
        assert!(FileReader::new(Cursor::new(bytes)).is_err());
    }

    #[test]
    fn corrupt_magic_rejected() {
        let mut bytes = build_sample();
        bytes[0] ^= 0xff;
        assert!(FileReader::new(Cursor::new(bytes)).is_err());
    }

    #[test]
    fn corrupt_trailer_rejected() {
        let mut bytes = build_sample();
        let n = bytes.len();
        bytes[n - 1] ^= 0xff;
        assert!(FileReader::new(Cursor::new(bytes)).is_err());
    }

    #[test]
    fn truncated_file_rejected() {
        let bytes = build_sample();
        for cut in [3usize, 17, bytes.len() - 5] {
            assert!(
                FileReader::new(Cursor::new(bytes[..cut].to_vec())).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn on_disk_roundtrip() {
        let dir = std::env::temp_dir().join(format!("h5lite-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.dh5");
        {
            let mut w = FileWriter::create(&path).unwrap();
            w.dataset("x", Dtype::I64, &[5])
                .unwrap()
                .write_pod(&[1i64, -2, 3, -4, 5])
                .unwrap();
            w.finish().unwrap();
        }
        let mut r = FileReader::open(&path).unwrap();
        assert_eq!(r.read_pod::<i64>("x").unwrap(), vec![1, -2, 3, -4, 5]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Reference data for the row-range tests: a 10×4 f64 grid where
    /// element (r, c) = 100r + c.
    fn rows_sample(codec: Option<&str>, chunk: Option<u64>) -> Vec<u8> {
        let mut cur = Cursor::new(Vec::new());
        let mut w = FileWriter::new(&mut cur).unwrap();
        let data: Vec<f64> = (0..10)
            .flat_map(|r| (0..4).map(move |c| (100 * r + c) as f64))
            .collect();
        let mut b = w.dataset("grid", Dtype::F64, &[10, 4]).unwrap();
        if let Some(spec) = codec {
            b = b.with_codec(spec).unwrap();
        }
        if let Some(rows) = chunk {
            b = b.chunked(rows).unwrap();
        }
        b.write_pod(&data).unwrap();
        w.finish().unwrap();
        cur.into_inner()
    }

    fn expected_rows(start: u64, count: u64) -> Vec<f64> {
        (start..start + count)
            .flat_map(|r| (0..4).map(move |c| (100 * r + c) as f64))
            .collect()
    }

    #[test]
    fn read_rows_all_layouts() {
        for (codec, chunk) in [
            (None, None),                      // contiguous raw
            (Some("xor-delta8,rle"), None),    // contiguous compressed
            (None, Some(3)),                   // chunked raw
            (Some("xor-delta8,rle"), Some(3)), // chunked compressed
            (None, Some(1)),                   // one row per chunk
            (Some("rle"), Some(16)),           // single oversized chunk
        ] {
            let bytes = rows_sample(codec, chunk);
            let mut r = FileReader::new(Cursor::new(bytes)).unwrap();
            for (start, count) in [(0u64, 10u64), (0, 1), (9, 1), (2, 5), (3, 4)] {
                let got = r.read_rows_pod::<f64>("grid", start, count).unwrap();
                assert_eq!(
                    got,
                    expected_rows(start, count),
                    "codec {codec:?} chunk {chunk:?} rows [{start}, +{count})"
                );
            }
        }
    }

    #[test]
    fn read_rows_validates_range_and_type() {
        let bytes = rows_sample(None, Some(3));
        let mut r = FileReader::new(Cursor::new(bytes)).unwrap();
        assert!(matches!(
            r.read_rows_pod::<f64>("grid", 8, 3),
            Err(H5Error::NotFound(_))
        ));
        assert!(matches!(
            r.read_rows_pod::<f32>("grid", 0, 1),
            Err(H5Error::TypeMismatch(_))
        ));
        assert!(matches!(
            r.read_rows_pod::<f64>("ghost", 0, 1),
            Err(H5Error::NotFound(_))
        ));
    }

    #[test]
    fn read_rows_matches_full_read() {
        let bytes = rows_sample(Some("xor-delta8,shuffle8,rle,lzss"), Some(4));
        let mut r = FileReader::new(Cursor::new(bytes)).unwrap();
        let full = r.read_pod::<f64>("grid").unwrap();
        let windowed = r.read_rows_pod::<f64>("grid", 4, 4).unwrap();
        assert_eq!(windowed, full[4 * 4..8 * 4]);
    }
}
