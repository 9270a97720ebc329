//! Write-once file construction.

use std::collections::BTreeMap;
use std::io::{Seek, Write};
use std::path::Path;

use codec::pipeline::EncodeScratch;
use codec::Pipeline;

use crate::dtype::{Dtype, H5Pod};
use crate::error::{H5Error, H5Result};
use crate::meta::{AttrValue, DatasetMeta, FileMeta, GroupMeta, Layout};
use crate::{MAGIC, TRAILER_MAGIC, VERSION};

/// Summary returned by [`FileWriter::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileStats {
    /// Logical (uncompressed) dataset bytes.
    pub logical_bytes: u64,
    /// Bytes actually stored for datasets (after codecs).
    pub stored_bytes: u64,
    /// Number of datasets.
    pub datasets: usize,
    /// Total file size including header, footer and trailer.
    pub file_bytes: u64,
}

/// Streaming writer for an h5lite file.
///
/// Datasets are written append-only; metadata is kept in memory and flushed
/// as a footer by [`FileWriter::finish`]. Dropping without `finish` leaves
/// an unreadable file — deliberate, matching HDF5's behaviour on crash.
pub struct FileWriter<W: Write + Seek> {
    w: W,
    meta: FileMeta,
    pos: u64,
    logical_bytes: u64,
    finished: bool,
}

impl FileWriter<std::io::BufWriter<std::fs::File>> {
    /// Create a file on disk (buffered).
    pub fn create(path: impl AsRef<Path>) -> H5Result<Self> {
        let f = std::fs::File::create(path)?;
        FileWriter::new(std::io::BufWriter::new(f))
    }

    /// Push buffered dataset bytes to the OS and `fsync` them, without
    /// finishing the file. The durability half of the storage pipeline's
    /// background flusher: data written so far survives a crash of the
    /// process (the file only becomes *readable* after
    /// [`FileWriter::finish`], matching HDF5 semantics).
    pub fn sync_data(&mut self) -> H5Result<()> {
        self.w.flush()?;
        self.w.get_ref().sync_data()?;
        Ok(())
    }

    /// Like [`FileWriter::finish`], but additionally `fsync`s file contents
    /// and metadata to disk before returning — the durability knob
    /// `finish` deliberately omits (it only flushes userspace buffers).
    pub fn finish_synced(&mut self) -> H5Result<FileStats> {
        let stats = self.finish()?;
        self.w.get_ref().sync_all()?;
        Ok(stats)
    }
}

impl<W: Write + Seek> FileWriter<W> {
    /// Start writing into any seekable sink.
    pub fn new(mut w: W) -> H5Result<Self> {
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&0u32.to_le_bytes())?; // flags, reserved
        let mut meta = FileMeta::default();
        meta.groups.insert(String::new(), GroupMeta::default()); // root
        Ok(FileWriter {
            w,
            meta,
            pos: 16,
            logical_bytes: 0,
            finished: false,
        })
    }

    /// Push buffered bytes to the underlying sink without any `fsync`.
    ///
    /// The cheap half of the durability split: the writing thread flushes
    /// its userspace buffer, while a background flusher `fsync`s through a
    /// duplicated file handle (see [`FileWriter::sync_data`], which does
    /// both on one thread).
    pub fn flush(&mut self) -> H5Result<()> {
        self.w.flush()?;
        Ok(())
    }

    fn check_open(&self) -> H5Result<()> {
        if self.finished {
            return Err(H5Error::InvalidState("writer already finished".into()));
        }
        Ok(())
    }

    /// Create a group (and any missing ancestors). Idempotent.
    pub fn create_group(&mut self, path: &str) -> H5Result<()> {
        self.check_open()?;
        let path = FileMeta::normalize(path);
        if self.meta.datasets.contains_key(&path) {
            return Err(H5Error::AlreadyExists(format!("{path} is a dataset")));
        }
        let mut prefix = String::new();
        for part in path.split('/').filter(|p| !p.is_empty()) {
            if !prefix.is_empty() {
                prefix.push('/');
            }
            prefix.push_str(part);
            self.meta.groups.entry(prefix.clone()).or_default();
        }
        Ok(())
    }

    /// Attach an attribute to a group or dataset. Creates the group if the
    /// path names nothing yet.
    pub fn set_attr(&mut self, path: &str, key: &str, value: impl Into<AttrValue>) -> H5Result<()> {
        self.check_open()?;
        let path = FileMeta::normalize(path);
        let value = value.into();
        if let Some(ds) = self.meta.datasets.get_mut(&path) {
            ds.attrs.insert(key.to_string(), value);
            return Ok(());
        }
        self.create_group(&path)?;
        self.meta
            .groups
            .get_mut(&path)
            .expect("group just created")
            .attrs
            .insert(key.to_string(), value);
        Ok(())
    }

    /// Begin a dataset at `path` with the given element type and shape.
    /// Parent groups are created automatically.
    pub fn dataset(
        &mut self,
        path: &str,
        dtype: Dtype,
        shape: &[u64],
    ) -> H5Result<DatasetBuilder<'_, W>> {
        self.check_open()?;
        let path = FileMeta::normalize(path);
        if path.is_empty() {
            return Err(H5Error::InvalidState(
                "dataset path must be non-empty".into(),
            ));
        }
        if shape.is_empty() || shape.contains(&0) {
            return Err(H5Error::InvalidState(format!(
                "dataset '{path}' must have positive extents, got {shape:?}"
            )));
        }
        if self.meta.datasets.contains_key(&path) || self.meta.groups.contains_key(&path) {
            return Err(H5Error::AlreadyExists(path));
        }
        if let Some((parent, _)) = path.rsplit_once('/') {
            self.create_group(parent)?;
        }
        Ok(DatasetBuilder {
            fw: self,
            path,
            dtype,
            shape: shape.to_vec(),
            pipeline: None,
            rows_per_chunk: None,
        })
    }

    fn append_extent(&mut self, bytes: &[u8]) -> H5Result<(u64, u64)> {
        let offset = self.pos;
        self.w.write_all(bytes)?;
        self.pos += bytes.len() as u64;
        Ok((offset, bytes.len() as u64))
    }

    /// Write the footer and trailer; the file becomes readable.
    pub fn finish(&mut self) -> H5Result<FileStats> {
        self.check_open()?;
        let footer = self.meta.encode();
        let footer_offset = self.pos;
        self.w.write_all(&footer)?;
        self.w.write_all(&footer_offset.to_le_bytes())?;
        self.w.write_all(&(footer.len() as u64).to_le_bytes())?;
        self.w.write_all(TRAILER_MAGIC)?;
        self.w.flush()?;
        self.finished = true;
        let stored: u64 = self.meta.datasets.values().map(|d| d.stored_size()).sum();
        Ok(FileStats {
            logical_bytes: self.logical_bytes,
            stored_bytes: stored,
            datasets: self.meta.datasets.len(),
            file_bytes: footer_offset + footer.len() as u64 + 24,
        })
    }

    /// Current metadata snapshot (for tests and tooling).
    pub fn meta(&self) -> &FileMeta {
        &self.meta
    }
}

/// Builder configuring and writing one dataset.
pub struct DatasetBuilder<'a, W: Write + Seek> {
    fw: &'a mut FileWriter<W>,
    path: String,
    dtype: Dtype,
    shape: Vec<u64>,
    pipeline: Option<std::sync::Arc<Pipeline>>,
    rows_per_chunk: Option<u64>,
}

impl<'a, W: Write + Seek> DatasetBuilder<'a, W> {
    /// Compress every stored extent with the given codec pipeline spec.
    pub fn with_codec(mut self, spec: &str) -> H5Result<Self> {
        self.pipeline = Some(std::sync::Arc::new(Pipeline::from_spec(spec)?));
        Ok(self)
    }

    /// Compress with a pre-built pipeline, shared across datasets — the
    /// storage pipeline's steady-state path, which must not re-parse the
    /// spec (and re-allocate the stage boxes) on every dataset.
    pub fn with_pipeline(mut self, pipeline: std::sync::Arc<Pipeline>) -> Self {
        self.pipeline = Some(pipeline);
        self
    }

    /// Chunk along the slowest dimension, `rows` rows per chunk.
    pub fn chunked(mut self, rows: u64) -> H5Result<Self> {
        if rows == 0 {
            return Err(H5Error::InvalidState(
                "rows_per_chunk must be positive".into(),
            ));
        }
        self.rows_per_chunk = Some(rows);
        Ok(self)
    }

    /// Write the dataset from a typed slice; the element type must match.
    pub fn write_pod<T: H5Pod>(self, data: &[T]) -> H5Result<()> {
        if T::DTYPE != self.dtype {
            return Err(H5Error::TypeMismatch(format!(
                "dataset '{}' is {}, write_pod called with {}",
                self.path,
                self.dtype,
                T::DTYPE
            )));
        }
        // SAFETY: H5Pod types have no padding and no invalid bit patterns.
        let bytes = unsafe {
            std::slice::from_raw_parts(data.as_ptr() as *const u8, std::mem::size_of_val(data))
        };
        self.write_bytes(bytes)
    }

    /// [`DatasetBuilder::write_pod`] through caller-owned codec scratch
    /// (see [`DatasetBuilder::write_bytes_with`]).
    pub fn write_pod_with<T: H5Pod>(self, data: &[T], scratch: &mut EncodeScratch) -> H5Result<()> {
        if T::DTYPE != self.dtype {
            return Err(H5Error::TypeMismatch(format!(
                "dataset '{}' is {}, write_pod called with {}",
                self.path,
                self.dtype,
                T::DTYPE
            )));
        }
        // SAFETY: H5Pod types have no padding and no invalid bit patterns.
        let bytes = unsafe {
            std::slice::from_raw_parts(data.as_ptr() as *const u8, std::mem::size_of_val(data))
        };
        self.write_bytes_with(bytes, scratch)
    }

    /// Write the dataset from raw little-endian bytes.
    pub fn write_bytes(self, bytes: &[u8]) -> H5Result<()> {
        let mut scratch = EncodeScratch::new();
        self.write_bytes_with(bytes, &mut scratch)
    }

    /// Like [`DatasetBuilder::write_bytes`], but codec encoding runs
    /// through caller-owned scratch buffers. A long-lived scratch makes
    /// steady-state writes allocation-free on the codec path — what the
    /// storage pipeline's per-variable scratch relies on. Uncompressed
    /// datasets append straight from `bytes` with no copy at all.
    pub fn write_bytes_with(self, bytes: &[u8], scratch: &mut EncodeScratch) -> H5Result<()> {
        let expect = self.shape.iter().product::<u64>() * self.dtype.size_bytes() as u64;
        if bytes.len() as u64 != expect {
            return Err(H5Error::TypeMismatch(format!(
                "dataset '{}' with shape {:?} of {} needs {expect} bytes, got {}",
                self.path,
                self.shape,
                self.dtype,
                bytes.len()
            )));
        }
        let codec_spec = self
            .pipeline
            .as_ref()
            .map(|p| p.spec().to_string())
            .unwrap_or_default();

        let layout = match self.rows_per_chunk {
            None => {
                let (offset, stored_len) = match &self.pipeline {
                    Some(p) => {
                        let stored = p.encode_with(bytes, scratch);
                        self.fw.append_extent(stored)?
                    }
                    None => self.fw.append_extent(bytes)?,
                };
                Layout::Contiguous { offset, stored_len }
            }
            Some(rows) => {
                let row_bytes =
                    self.shape[1..].iter().product::<u64>() as usize * self.dtype.size_bytes();
                let chunk_bytes = (rows as usize).saturating_mul(row_bytes.max(1)).max(1);
                let mut chunks = Vec::new();
                for chunk in bytes.chunks(chunk_bytes) {
                    let extent = match &self.pipeline {
                        Some(p) => {
                            let stored = p.encode_with(chunk, scratch);
                            self.fw.append_extent(stored)?
                        }
                        None => self.fw.append_extent(chunk)?,
                    };
                    chunks.push(extent);
                }
                Layout::Chunked {
                    rows_per_chunk: rows,
                    chunks,
                }
            }
        };
        self.fw.logical_bytes += bytes.len() as u64;
        self.fw.meta.datasets.insert(
            self.path,
            DatasetMeta {
                dtype: self.dtype,
                shape: self.shape,
                layout,
                codec_spec,
                attrs: BTreeMap::new(),
            },
        );
        Ok(())
    }

    /// Append a dataset whose chunks were already encoded — the append
    /// half of a two-phase store. The caller runs
    /// [`Pipeline::encode_with`] over the same chunk boundaries
    /// [`DatasetBuilder::write_bytes_with`] would use (`rows_per_chunk`
    /// rows of the slowest dimension) and passes the results here in
    /// order, producing a file byte-identical to
    /// [`DatasetBuilder::write_bytes_with`]'s.
    ///
    /// `logical_len` is the *uncompressed* byte length the chunks decode
    /// to; it must match the dataset shape, and the chunk count must match
    /// the chunking the shape implies. Requires both a pipeline (for the
    /// codec spec recorded in metadata) and `chunked(...)`.
    pub fn write_encoded_chunks<'b>(
        self,
        logical_len: u64,
        encoded: impl IntoIterator<Item = &'b [u8]>,
    ) -> H5Result<()> {
        let expect = self.shape.iter().product::<u64>() * self.dtype.size_bytes() as u64;
        if logical_len != expect {
            return Err(H5Error::TypeMismatch(format!(
                "dataset '{}' with shape {:?} of {} needs {expect} logical bytes, got {}",
                self.path, self.shape, self.dtype, logical_len
            )));
        }
        let codec_spec = match &self.pipeline {
            Some(p) => p.spec().to_string(),
            None => {
                return Err(H5Error::InvalidState(format!(
                    "dataset '{}': write_encoded_chunks needs a codec pipeline",
                    self.path
                )))
            }
        };
        let rows = match self.rows_per_chunk {
            Some(rows) => rows,
            None => {
                return Err(H5Error::InvalidState(format!(
                    "dataset '{}': write_encoded_chunks needs chunked(...)",
                    self.path
                )))
            }
        };
        let row_bytes = self.shape[1..].iter().product::<u64>() as usize * self.dtype.size_bytes();
        let chunk_bytes = (rows as usize).saturating_mul(row_bytes.max(1)).max(1) as u64;
        let want_chunks = logical_len.div_ceil(chunk_bytes).max(1);
        let mut chunks = Vec::new();
        for enc in encoded {
            chunks.push(self.fw.append_extent(enc)?);
        }
        if chunks.len() as u64 != want_chunks {
            return Err(H5Error::InvalidState(format!(
                "dataset '{}': expected {want_chunks} encoded chunks, got {}",
                self.path,
                chunks.len()
            )));
        }
        self.fw.logical_bytes += logical_len;
        self.fw.meta.datasets.insert(
            self.path,
            DatasetMeta {
                dtype: self.dtype,
                shape: self.shape,
                layout: Layout::Chunked {
                    rows_per_chunk: rows,
                    chunks,
                },
                codec_spec,
                attrs: BTreeMap::new(),
            },
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn new_writer() -> FileWriter<Cursor<Vec<u8>>> {
        FileWriter::new(Cursor::new(Vec::new())).unwrap()
    }

    #[test]
    fn header_written_first() {
        let w = new_writer();
        drop(w);
        let mut c = Cursor::new(Vec::new());
        let _ = FileWriter::new(&mut c).unwrap();
        let bytes = c.into_inner();
        assert_eq!(&bytes[..8], MAGIC);
        assert_eq!(
            u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
            VERSION
        );
    }

    #[test]
    fn dataset_shape_validation() {
        let mut w = new_writer();
        assert!(w.dataset("d", Dtype::F64, &[]).is_err());
        assert!(w.dataset("d", Dtype::F64, &[0, 3]).is_err());
        assert!(w.dataset("", Dtype::F64, &[1]).is_err());
    }

    #[test]
    fn byte_length_validation() {
        let mut w = new_writer();
        let b = w.dataset("d", Dtype::F64, &[4]).unwrap();
        assert!(b.write_bytes(&[0u8; 31]).is_err());
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut w = new_writer();
        let b = w.dataset("d", Dtype::F64, &[4]).unwrap();
        assert!(b.write_pod(&[0f32; 4]).is_err());
    }

    #[test]
    fn duplicate_dataset_rejected() {
        let mut w = new_writer();
        w.dataset("d", Dtype::U8, &[1])
            .unwrap()
            .write_pod(&[1u8])
            .unwrap();
        assert!(matches!(
            w.dataset("d", Dtype::U8, &[1]),
            Err(H5Error::AlreadyExists(_))
        ));
    }

    #[test]
    fn groups_auto_created_for_datasets() {
        let mut w = new_writer();
        w.dataset("a/b/c/d", Dtype::U8, &[1])
            .unwrap()
            .write_pod(&[1u8])
            .unwrap();
        assert!(w.meta().groups.contains_key("a"));
        assert!(w.meta().groups.contains_key("a/b"));
        assert!(w.meta().groups.contains_key("a/b/c"));
    }

    #[test]
    fn finish_twice_rejected() {
        let mut w = new_writer();
        w.finish().unwrap();
        assert!(w.finish().is_err());
        assert!(w.create_group("g").is_err());
    }

    #[test]
    fn stats_account_compression() {
        let mut w = new_writer();
        let data = vec![0u8; 64 * 1024];
        w.dataset("zeros", Dtype::U8, &[64 * 1024])
            .unwrap()
            .with_codec("rle")
            .unwrap()
            .write_pod(&data)
            .unwrap();
        let stats = w.finish().unwrap();
        assert_eq!(stats.logical_bytes, 64 * 1024);
        assert!(stats.stored_bytes < 2048, "stored {}", stats.stored_bytes);
        assert_eq!(stats.datasets, 1);
    }

    #[test]
    fn scratch_write_matches_plain_write_and_reuses() {
        let data: Vec<f64> = (0..4096).map(|i| 300.0 + (i % 7) as f64).collect();
        let write = |use_scratch: bool, scratch: &mut EncodeScratch| {
            let mut c = Cursor::new(Vec::new());
            let mut w = FileWriter::new(&mut c).unwrap();
            for it in 0..4 {
                let b = w
                    .dataset(&format!("it{it}/d"), Dtype::F64, &[64, 64])
                    .unwrap()
                    .with_codec("xor-delta8,shuffle8,rle")
                    .unwrap()
                    .chunked(16)
                    .unwrap();
                if use_scratch {
                    b.write_pod_with(&data, scratch).unwrap();
                } else {
                    b.write_pod(&data).unwrap();
                }
            }
            w.finish().unwrap();
            c.into_inner()
        };
        let mut scratch = EncodeScratch::new();
        let plain = write(false, &mut EncodeScratch::new());
        let scratched = write(true, &mut scratch);
        assert_eq!(plain, scratched, "scratch path must be byte-identical");
        // A second file through the same scratch stays allocation-free.
        let grows = scratch.grows();
        let _ = write(true, &mut scratch);
        assert_eq!(scratch.grows(), grows, "warmed scratch must not grow");
    }

    #[test]
    fn durable_finish_on_disk() {
        let dir = std::env::temp_dir().join(format!("h5lite-sync-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("durable.dh5");
        let mut w = FileWriter::create(&path).unwrap();
        w.dataset("d", Dtype::U8, &[4])
            .unwrap()
            .write_pod(&[1u8, 2, 3, 4])
            .unwrap();
        w.sync_data().unwrap(); // mid-run durability point
        let stats = w.finish_synced().unwrap();
        assert_eq!(stats.datasets, 1);
        assert!(w.finish().is_err(), "already finished");
        let mut r = crate::FileReader::open(&path).unwrap();
        assert_eq!(r.read_pod::<u8>("d").unwrap(), vec![1, 2, 3, 4]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pre_encoded_chunks_match_inline_encode_byte_for_byte() {
        let data: Vec<u8> = (0..100u32)
            .flat_map(|i| (300.0 + (i % 7) as f64).to_le_bytes())
            .collect();
        let pipeline = std::sync::Arc::new(Pipeline::from_spec("xor-delta8,rle").unwrap());

        // Inline path: the builder encodes chunk by chunk itself.
        let mut c_inline = Cursor::new(Vec::new());
        let mut w = FileWriter::new(&mut c_inline).unwrap();
        w.dataset("d", Dtype::F64, &[10, 10])
            .unwrap()
            .with_pipeline(pipeline.clone())
            .chunked(3)
            .unwrap()
            .write_bytes(&data)
            .unwrap();
        w.finish().unwrap();

        // Parallel path: chunks encoded "elsewhere" over the same
        // boundaries (3 rows × 10 cols × 8 bytes), appended pre-encoded.
        let mut scratch = EncodeScratch::new();
        let encoded: Vec<Vec<u8>> = data
            .chunks(3 * 10 * 8)
            .map(|chunk| pipeline.encode_with(chunk, &mut scratch).to_vec())
            .collect();
        let mut c_pre = Cursor::new(Vec::new());
        let mut w = FileWriter::new(&mut c_pre).unwrap();
        w.dataset("d", Dtype::F64, &[10, 10])
            .unwrap()
            .with_pipeline(pipeline.clone())
            .chunked(3)
            .unwrap()
            .write_encoded_chunks(data.len() as u64, encoded.iter().map(|v| v.as_slice()))
            .unwrap();
        w.finish().unwrap();

        assert_eq!(c_inline.into_inner(), c_pre.into_inner());

        // Guard rails: wrong chunk count, missing pipeline, missing chunking.
        let mut w = new_writer();
        assert!(w
            .dataset("d", Dtype::F64, &[10, 10])
            .unwrap()
            .with_pipeline(pipeline.clone())
            .chunked(3)
            .unwrap()
            .write_encoded_chunks(800, std::iter::empty())
            .is_err());
        let mut w = new_writer();
        assert!(w
            .dataset("d", Dtype::F64, &[10, 10])
            .unwrap()
            .chunked(3)
            .unwrap()
            .write_encoded_chunks(800, std::iter::empty())
            .is_err());
        let mut w = new_writer();
        assert!(w
            .dataset("d", Dtype::F64, &[10, 10])
            .unwrap()
            .with_pipeline(pipeline)
            .write_encoded_chunks(800, std::iter::empty())
            .is_err());
    }

    #[test]
    fn chunked_layout_records_chunks() {
        let mut w = new_writer();
        let data: Vec<u32> = (0..100).collect();
        w.dataset("d", Dtype::U32, &[10, 10])
            .unwrap()
            .chunked(3)
            .unwrap()
            .write_pod(&data)
            .unwrap();
        match &w.meta().datasets["d"].layout {
            Layout::Chunked {
                rows_per_chunk,
                chunks,
            } => {
                assert_eq!(*rows_per_chunk, 3);
                assert_eq!(chunks.len(), 4); // 3+3+3+1 rows
            }
            other => panic!("unexpected layout {other:?}"),
        }
    }
}
