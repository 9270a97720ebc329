//! The real storage pipeline on the dedicated core: compression →
//! h5lite → one file per node, at zero simulation overhead.
//!
//! §IV.D: the dedicated core absorbs compression and I/O in its spare
//! time — "we leveraged the idle time of dedicated cores to compress the
//! data prior to writing it" (~600 % compression on CM1 data) — while the
//! client-visible write cost stays the shared-memory copy alone. This
//! module is that path made real and overlapped:
//!
//! * [`StorageEngine`] — the shared implementation. Every handed-off
//!   iteration runs each variable's [`codec::Pipeline`] over the
//!   iteration's blocks, then appends chunked datasets to **one h5lite
//!   file per node** (`{simulation}_node{id}.dh5`, datasets at
//!   `it{iteration:06}/{variable}/rank{client}`, each tagged with its
//!   variable's `unit` attribute when one is declared).
//! * **One encoder**: the storing thread encodes every block itself,
//!   through one reused [`EncodeScratch`] (steady-state encodes stay
//!   allocation-free), so the file bytes depend only on the blocks, in
//!   either world, on any host.
//! * **Double-buffered staging**: [`StoragePlugin`] hands the drained
//!   block set to the engine's stager thread through a rendezvous channel
//!   and returns immediately — iteration N encodes and
//!   writes while the simulation fills N+1. The rendezvous bounds the
//!   overlap to one in-flight iteration: handing off N+1 blocks until N
//!   finished, so shared-memory blocks are released at most one
//!   iteration later than the serial engine released them.
//! * Durability is split off the write path: the writing thread only
//!   flushes its userspace buffer; a background **flusher thread**
//!   `fsync`s through a duplicated file handle
//!   ([`h5lite::FileWriter::sync_data`] semantics, coalescing a backlog
//!   of requests into one sync); a failed sync is reported like a failed
//!   write. [`StorageEngine::finish`] closes the file with
//!   [`h5lite::FileWriter::finish_synced`]. Storage always syncs; there
//!   is no switch to turn it off.
//! * [`StorageStats`] carries per-stage timings (drain / encode / append
//!   / sync nanoseconds, codec busy time) so the overlap is observable,
//!   not asserted.
//!
//! Configured from the XML surface:
//!
//! ```xml
//! <architecture>
//!   <store path="out" chunk_rows="64"/>
//! </architecture>
//! <data>
//!   <variable name="u" layout="row" codec="xor-delta8,shuffle8,rle"/>
//! </data>
//! ```

use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use codec::pipeline::EncodeScratch;
use codec::Pipeline;
use damaris_shm::BlockRef;
use damaris_xml::schema::Configuration;
use damaris_xml::VarId;
use h5lite::{FileStats, FileWriter};
use parking_lot::Mutex;

use super::{IterationCtx, Plugin};

/// Lifetime counters of one [`StorageEngine`].
///
/// `scratch_grows` is the zero-allocation witness: every codec encode
/// that had to grow a scratch buffer counts once, so a warmed pipeline
/// holds it constant while `encodes` keeps climbing. The `*_ns` fields
/// time the pipeline stages, making the overlap measurable: a healthy
/// hand-off path shows `drain_ns` (the dedicated core's event-path cost)
/// far below `encode_ns + append_ns` (the work the stager absorbed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Iterations stored (at least one dataset appended).
    pub iterations: u64,
    /// Iterations handed to the engine that stored nothing (no blocks,
    /// or only `store="false"` variables). No file is created for them.
    pub skipped_iterations: u64,
    /// Datasets appended (one per stored block).
    pub datasets: u64,
    /// Logical payload bytes consumed out of shared memory.
    pub raw_bytes: u64,
    /// Codec encode calls (one per stored chunk of a codec'd variable).
    pub encodes: u64,
    /// Encodes that grew a scratch buffer — constant after warm-up when
    /// the steady-state codec path is allocation-free.
    pub scratch_grows: u64,
    /// Flush requests handed to the background flusher.
    pub flush_requests: u64,
    /// `fsync`s the flusher completed (≤ `flush_requests`: a backlog is
    /// coalesced into one sync).
    pub syncs: u64,
    /// Nanoseconds the event path (the plugin) spent handing iterations
    /// to the stager — includes the backpressure wait when the previous
    /// iteration is still in flight.
    pub drain_ns: u64,
    /// Nanoseconds of the encode stage (wall time).
    pub encode_ns: u64,
    /// Nanoseconds of the append stage (dataset appends + userspace
    /// flush).
    pub append_ns: u64,
    /// Nanoseconds the flusher spent in `fsync`.
    pub sync_ns: u64,
    /// Nanoseconds the encoder spent in codec calls, a share of
    /// `encode_ns`.
    pub worker_busy_ns: u64,
}

impl StorageStats {
    /// Fraction of the encode stage's wall time spent in codec calls; the
    /// rest is chunk bookkeeping and skipped raw blocks. 0.0 before any
    /// encode ran.
    pub fn worker_busy_frac(&self) -> f64 {
        if self.encode_ns == 0 {
            return 0.0;
        }
        self.worker_busy_ns as f64 / self.encode_ns as f64
    }
}

/// Map a configuration element type onto its h5lite on-disk dtype.
fn elem_dtype(t: damaris_xml::schema::ElemType) -> h5lite::Dtype {
    use damaris_xml::schema::ElemType as E;
    use h5lite::Dtype;
    match t {
        E::I8 => Dtype::I8,
        E::I16 => Dtype::I16,
        E::I32 => Dtype::I32,
        E::I64 => Dtype::I64,
        E::U8 => Dtype::U8,
        E::U16 => Dtype::U16,
        E::U32 => Dtype::U32,
        E::U64 => Dtype::U64,
        E::F32 => Dtype::F32,
        E::F64 => Dtype::F64,
    }
}

/// Per-variable state resolved once at engine construction, so the
/// steady-state write loop never parses a codec spec or re-derives a
/// layout.
struct VarState {
    /// Fully qualified variable name (dataset path component).
    name: String,
    dtype: h5lite::Dtype,
    /// Declared extents; empty for dynamic layouts (shape derived from
    /// each write's byte count).
    shape: Vec<u64>,
    elem_bytes: usize,
    /// Whether storage persists this variable (`store="false"` opts out).
    store: bool,
    /// The declared `unit="…"`, attached to each of its datasets.
    unit: Option<String>,
    /// Pre-built compression pipeline, shared with every dataset builder
    /// (no per-dataset spec re-parse).
    pipeline: Option<Arc<Pipeline>>,
}

impl VarState {
    /// The dataset shape for a write of `len` bytes: the declared extents,
    /// or a 1-D shape derived from the byte count for dynamic layouts.
    fn shape_for<'a>(&'a self, len: usize, dyn_shape: &'a mut [u64; 1]) -> &'a [u64] {
        if self.shape.is_empty() {
            dyn_shape[0] = (len / self.elem_bytes.max(1)) as u64;
            dyn_shape
        } else {
            &self.shape
        }
    }

    /// Bytes per chunk under `chunk_rows`-row chunking — the same
    /// boundary [`h5lite`]'s `DatasetBuilder` derives, so pre-encoded
    /// chunks line up with the inline path byte for byte.
    fn chunk_bytes_for(&self, shape: &[u64], chunk_rows: u64) -> usize {
        let row_bytes = shape[1..].iter().product::<u64>() as usize * self.dtype.size_bytes();
        (chunk_rows as usize)
            .saturating_mul(row_bytes.max(1))
            .max(1)
    }
}

/// Errors queued by the engine's background threads, drained into the
/// result of the next [`StorageEngine::submit_iteration`] or of
/// [`StorageEngine::finish`].
type ErrorList = Arc<Mutex<Vec<String>>>;

/// Background fsync thread over a duplicated file handle. The writing
/// thread stays on its buffered writer; requests arriving while a sync is
/// in flight coalesce into the next one.
struct Flusher {
    tx: Option<mpsc::Sender<()>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Flusher {
    /// A failed sync is queued on `errors` rather than retried: the kernel
    /// may clear a write-back error once it has reported it, so a later
    /// sync (even the final one) can succeed over data that never reached
    /// the disk.
    fn spawn(
        file: File,
        path: PathBuf,
        syncs: Arc<AtomicU64>,
        sync_ns: Arc<AtomicU64>,
        errors: ErrorList,
    ) -> std::io::Result<Self> {
        let (tx, rx) = mpsc::channel::<()>();
        let handle = std::thread::Builder::new()
            .name("damaris-storage-flusher".into())
            .spawn(move || {
                while rx.recv().is_ok() {
                    // Coalesce the backlog into one fsync.
                    while rx.try_recv().is_ok() {}
                    let t0 = Instant::now();
                    match file.sync_data() {
                        Ok(()) => {
                            syncs.fetch_add(1, Ordering::Relaxed);
                            sync_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        }
                        Err(e) => errors.lock().push(format!("syncing {path:?}: {e}")),
                    }
                }
            })?;
        Ok(Flusher {
            tx: Some(tx),
            handle: Some(handle),
        })
    }

    fn request(&self) {
        if let Some(tx) = &self.tx {
            let _ = tx.send(());
        }
    }
}

impl Drop for Flusher {
    fn drop(&mut self) {
        // Closing the channel ends the thread's loop; joining guarantees
        // any in-flight fsync finished before the writer is closed.
        self.tx.take();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// One block's encoded chunks, concatenated — recycled across iterations
/// so the encode stage stops allocating once buffers reach the
/// working-set size.
#[derive(Default)]
struct EncodedChunks {
    buf: Vec<u8>,
    lens: Vec<usize>,
}

impl EncodedChunks {
    fn clear(&mut self) {
        self.buf.clear();
        self.lens.clear();
    }

    fn push_chunk(&mut self, enc: &[u8]) {
        self.buf.extend_from_slice(enc);
        self.lens.push(enc.len());
    }

    fn iter(&self) -> impl Iterator<Item = &[u8]> {
        self.lens.iter().scan(0usize, |pos, &len| {
            let chunk = &self.buf[*pos..*pos + len];
            *pos += len;
            Some(chunk)
        })
    }
}

/// One iteration's drained blocks, ordered by `(variable, source)`: views
/// of shared memory in both worlds, so dropping a set after the append is
/// what releases its blocks to their allocator (thread world) or to their
/// client rank (process world).
type StagedSet = Vec<(VarId, usize, BlockRef)>;

struct StagedIteration {
    iteration: u64,
    blocks: StagedSet,
}

/// The stager thread handle: a rendezvous channel (capacity 0) plus the
/// join handle. The zero capacity is the backpressure bound — a send
/// only completes when the stager is ready, so at most one iteration is
/// ever in flight.
struct Stager {
    tx: Option<mpsc::SyncSender<StagedIteration>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for Stager {
    fn drop(&mut self) {
        self.tx.take();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Writer-side state shared between the synchronous path and the stager
/// thread.
struct EngineCore {
    root: PathBuf,
    chunk_rows: u64,
    node_id: usize,
    simulation: String,
    vars: Vec<VarState>,
    /// Opened lazily on the first stored iteration, so an all-skipped run
    /// leaves no file.
    writer: Option<FileWriter<BufWriter<File>>>,
    flusher: Option<Flusher>,
    syncs: Arc<AtomicU64>,
    sync_ns: Arc<AtomicU64>,
    errors: ErrorList,
    iterations: u64,
    skipped_iterations: u64,
    datasets: u64,
    raw_bytes: u64,
    flush_requests: u64,
    encode_ns: u64,
    append_ns: u64,
    worker_busy_ns: u64,
    /// Reused encode scratch — the no-steady-state-allocation guarantee.
    /// It serves every variable: blocks are encoded one after another, so
    /// a scratch per variable would only keep two buffers per variable
    /// resident (10 MiB for five 1 MiB variables instead of 2 MiB).
    scratch: EncodeScratch,
    /// Recycled encode output buffers.
    chunk_bufs: Vec<EncodedChunks>,
    file_stats: Option<FileStats>,
}

impl EngineCore {
    fn file_path(&self) -> PathBuf {
        self.root
            .join(format!("{}_node{}.dh5", self.simulation, self.node_id))
    }

    fn open_writer(&mut self) -> Result<(), String> {
        if self.writer.is_some() {
            return Ok(());
        }
        let path = self.file_path();
        std::fs::create_dir_all(&self.root)
            .map_err(|e| format!("creating {:?}: {e}", self.root))?;
        let file = File::create(&path).map_err(|e| format!("creating {path:?}: {e}"))?;
        let dup = file
            .try_clone()
            .map_err(|e| format!("duplicating handle of {path:?}: {e}"))?;
        self.flusher = Some(
            Flusher::spawn(
                dup,
                path.clone(),
                self.syncs.clone(),
                self.sync_ns.clone(),
                self.errors.clone(),
            )
            .map_err(|e| format!("spawning storage flusher: {e}"))?,
        );
        let mut w =
            FileWriter::new(BufWriter::new(file)).map_err(|e| format!("opening {path:?}: {e}"))?;
        w.set_attr("", "simulation", self.simulation.as_str())
            .map_err(|e| e.to_string())?;
        w.set_attr("", "node", self.node_id as i64)
            .map_err(|e| e.to_string())?;
        self.writer = Some(w);
        Ok(())
    }

    /// Store one iteration's blocks (ordered by `(variable, source)`),
    /// two-phase: encode every codec'd block's chunks, then append
    /// everything in block order.
    fn process_iteration(
        &mut self,
        iteration: u64,
        blocks: &[(VarId, usize, &[u8])],
    ) -> Result<(), String> {
        let stored = |vars: &[VarState], var: VarId| -> bool {
            vars.get(var.index()).is_some_and(|v| v.store)
        };
        if !blocks.iter().any(|&(var, _, _)| stored(&self.vars, var)) {
            // Nothing to persist: count the skip, create no file.
            self.skipped_iterations += 1;
            return Ok(());
        }
        self.open_writer()?;

        // Phase A: encode. `encoded[i]` holds block i's chunks when block
        // i is a stored, codec'd variable.
        let t_enc = Instant::now();
        let mut encoded: Vec<Option<EncodedChunks>> = Vec::with_capacity(blocks.len());
        encoded.resize_with(blocks.len(), || None);
        for (i, &(var, _, data)) in blocks.iter().enumerate() {
            let Some(v) = self.vars.get(var.index()) else {
                continue;
            };
            let Some(p) = (if v.store { v.pipeline.clone() } else { None }) else {
                continue;
            };
            let t0 = Instant::now();
            let mut dyn_shape = [0u64; 1];
            let chunk_bytes =
                v.chunk_bytes_for(v.shape_for(data.len(), &mut dyn_shape), self.chunk_rows);
            let mut out = self.chunk_bufs.pop().unwrap_or_default();
            out.clear();
            for chunk in data.chunks(chunk_bytes) {
                let enc = p.encode_with(chunk, &mut self.scratch);
                out.push_chunk(enc);
            }
            self.worker_busy_ns += t0.elapsed().as_nanos() as u64;
            encoded[i] = Some(out);
        }
        self.encode_ns += t_enc.elapsed().as_nanos() as u64;

        // Phase B: append in block order — codec'd blocks from their
        // pre-encoded chunks, raw blocks straight from the payload.
        let t_app = Instant::now();
        for (i, &(var, source, data)) in blocks.iter().enumerate() {
            if !stored(&self.vars, var) {
                continue;
            }
            let vs = &self.vars[var.index()];
            let mut dyn_shape = [0u64; 1];
            let shape = vs.shape_for(data.len(), &mut dyn_shape);
            let ds_path = format!("it{iteration:06}/{}/rank{source}", vs.name);
            let w = self.writer.as_mut().expect("writer opened above");
            let mut b = w
                .dataset(&ds_path, vs.dtype, shape)
                .map_err(|e| format!("dataset {ds_path}: {e}"))?
                .chunked(self.chunk_rows)
                .map_err(|e| e.to_string())?;
            if let Some(p) = &vs.pipeline {
                b = b.with_pipeline(p.clone());
            }
            match encoded[i].take() {
                Some(out) => {
                    b.write_encoded_chunks(data.len() as u64, out.iter())
                        .map_err(|e| format!("writing {ds_path}: {e}"))?;
                    self.chunk_bufs.push(out);
                }
                None => b
                    .write_bytes_with(data, &mut self.scratch)
                    .map_err(|e| format!("writing {ds_path}: {e}"))?,
            }
            if let Some(unit) = &vs.unit {
                w.set_attr(&ds_path, "unit", unit.as_str())
                    .map_err(|e| e.to_string())?;
            }
            self.datasets += 1;
            self.raw_bytes += data.len() as u64;
        }
        self.iterations += 1;
        // Cheap half on this thread: push userspace buffers to the OS.
        // The expensive fsync runs on the flusher.
        let w = self.writer.as_mut().expect("writer opened above");
        w.flush().map_err(|e| e.to_string())?;
        if let Some(f) = &self.flusher {
            f.request();
            self.flush_requests += 1;
        }
        self.append_ns += t_app.elapsed().as_nanos() as u64;
        Ok(())
    }

    fn stats_locked(&self, drain_ns: u64) -> StorageStats {
        StorageStats {
            iterations: self.iterations,
            skipped_iterations: self.skipped_iterations,
            datasets: self.datasets,
            raw_bytes: self.raw_bytes,
            encodes: self.scratch.encodes(),
            scratch_grows: self.scratch.grows(),
            flush_requests: self.flush_requests,
            syncs: self.syncs.load(Ordering::Relaxed),
            drain_ns,
            encode_ns: self.encode_ns,
            append_ns: self.append_ns,
            sync_ns: self.sync_ns.load(Ordering::Relaxed),
            worker_busy_ns: self.worker_busy_ns,
        }
    }

    fn finish(&mut self) -> Result<Option<FileStats>, String> {
        // Join the flusher first so no fsync races the footer write.
        self.flusher.take();
        let Some(mut w) = self.writer.take() else {
            return Ok(self.file_stats);
        };
        let stats = w
            .finish_synced()
            .map_err(|e| format!("finishing {:?}: {e}", self.file_path()))?;
        self.file_stats = Some(stats);
        Ok(Some(stats))
    }
}

impl Drop for EngineCore {
    fn drop(&mut self) {
        // Best-effort close so a dropped engine still leaves a readable
        // file; explicit `finish` is the checked path.
        let _ = self.finish();
    }
}

/// The storage implementation behind [`StoragePlugin`]. See the module
/// docs for the pipeline it realizes.
pub struct StorageEngine {
    core: Arc<Mutex<EngineCore>>,
    drain_ns: Arc<AtomicU64>,
    errors: ErrorList,
    stager: Option<Stager>,
}

impl StorageEngine {
    /// Build the engine from a configuration's `<store>` block (defaults
    /// apply when absent) and the per-variable `codec` attributes.
    ///
    /// `fallback_dir` hosts the per-node file when `<store>` declares no
    /// `path`. Codec specs were validated at configuration load, so a
    /// failure here means the configuration bypassed validation.
    pub fn new(cfg: &Configuration, node_id: usize, fallback_dir: &Path) -> Result<Self, String> {
        let store = cfg.architecture.store.clone().unwrap_or_default();
        let root = store
            .path
            .as_ref()
            .map(PathBuf::from)
            .unwrap_or_else(|| fallback_dir.to_path_buf());
        let mut vars = Vec::with_capacity(cfg.registry().len());
        for (id, e) in cfg.registry().vars() {
            let pipeline = match &e.codec {
                Some(spec) => Some(Arc::new(Pipeline::from_spec(spec).map_err(|err| {
                    format!("variable '{}': invalid codec pipeline: {err}", e.name)
                })?)),
                None => None,
            };
            let shape: Vec<u64> = if e.layout.is_dynamic() {
                Vec::new()
            } else {
                e.layout.dimensions.iter().map(|&d| d as u64).collect()
            };
            vars.push(VarState {
                name: e.name.clone(),
                dtype: elem_dtype(e.elem_type),
                shape,
                elem_bytes: e.elem_type.size_bytes(),
                store: e.store,
                unit: cfg.variable_by_id(id).unit.clone(),
                pipeline,
            });
        }
        let errors = ErrorList::default();
        Ok(StorageEngine {
            core: Arc::new(Mutex::new(EngineCore {
                root,
                chunk_rows: store.chunk_rows,
                node_id,
                simulation: cfg.name.clone(),
                vars,
                writer: None,
                flusher: None,
                syncs: Arc::new(AtomicU64::new(0)),
                sync_ns: Arc::new(AtomicU64::new(0)),
                errors: errors.clone(),
                iterations: 0,
                skipped_iterations: 0,
                datasets: 0,
                raw_bytes: 0,
                flush_requests: 0,
                encode_ns: 0,
                append_ns: 0,
                worker_busy_ns: 0,
                scratch: EncodeScratch::new(),
                chunk_bufs: Vec::new(),
                file_stats: None,
            })),
            drain_ns: Arc::new(AtomicU64::new(0)),
            errors,
            stager: None,
        })
    }

    /// Path of this node's file (created lazily on the first stored
    /// iteration).
    pub fn file_path(&self) -> PathBuf {
        self.core.lock().file_path()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StorageStats {
        self.core
            .lock()
            .stats_locked(self.drain_ns.load(Ordering::Relaxed))
    }

    /// File summary from [`StorageEngine::finish`], if it ran and a file
    /// was written.
    pub fn file_stats(&self) -> Option<FileStats> {
        self.core.lock().file_stats
    }

    /// Store one completed iteration synchronously: `blocks` yields
    /// `(variable, 0-based client, payload)` views, **ordered by
    /// `(variable, client)`** for cross-world file equivalence. The call
    /// encodes and appends on the calling thread and returns after the
    /// append. The overlapped path is [`StorageEngine::submit_iteration`].
    pub fn store_iteration<'b, I>(&mut self, iteration: u64, blocks: I) -> Result<(), String>
    where
        I: IntoIterator<Item = (VarId, usize, &'b [u8])>,
    {
        let views: Vec<(VarId, usize, &[u8])> = blocks.into_iter().collect();
        self.core.lock().process_iteration(iteration, &views)
    }

    /// Hand one completed iteration to the stager thread and return as
    /// soon as it accepts — the double-buffered path. The rendezvous
    /// hand-off blocks only while the *previous* iteration is still
    /// encoding/writing, bounding the pipeline to one in-flight
    /// iteration. Blocks must be ordered by `(variable, client)`.
    ///
    /// Errors from previously staged iterations and from background syncs
    /// surface on the next submit (or at [`StorageEngine::finish`]).
    pub fn submit_iteration(&mut self, iteration: u64, blocks: StagedSet) -> Result<(), String> {
        let t0 = Instant::now();
        self.ensure_stager();
        let tx = self
            .stager
            .as_ref()
            .and_then(|s| s.tx.as_ref())
            .expect("stager running");
        tx.send(StagedIteration { iteration, blocks })
            .map_err(|_| "storage stager thread exited".to_string())?;
        self.drain_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let mut errs = self.errors.lock();
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs.drain(..).collect::<Vec<_>>().join("; "))
        }
    }

    fn ensure_stager(&mut self) {
        if self.stager.is_some() {
            return;
        }
        let (tx, rx) = mpsc::sync_channel::<StagedIteration>(0);
        let core = self.core.clone();
        let errors = self.errors.clone();
        let handle = std::thread::Builder::new()
            .name("damaris-storage-stager".into())
            .spawn(move || {
                while let Ok(staged) = rx.recv() {
                    let views: Vec<(VarId, usize, &[u8])> = staged
                        .blocks
                        .iter()
                        .map(|(var, source, data)| (*var, *source, data.as_slice()))
                        .collect();
                    let res = core.lock().process_iteration(staged.iteration, &views);
                    if let Err(e) = res {
                        errors
                            .lock()
                            .push(format!("iteration {}: {e}", staged.iteration));
                    }
                    // `staged` drops here, releasing the blocks — at most
                    // one iteration after the serial engine would have.
                }
            })
            .expect("spawning storage stager thread");
        self.stager = Some(Stager {
            tx: Some(tx),
            handle: Some(handle),
        });
    }

    /// Close the per-node file: drain the stager, stop the flusher, write
    /// the footer and `fsync` everything
    /// ([`h5lite::FileWriter::finish_synced`]). Idempotent; returns `None`
    /// when no iteration ever stored data. Errors queued by staged
    /// iterations and by background syncs surface here.
    pub fn finish(&mut self) -> Result<Option<FileStats>, String> {
        // Joining the stager drains any in-flight iteration first.
        self.stager.take();
        let res = if self.errors.lock().is_empty() {
            // Joins the flusher, whose last sync may still queue an error.
            self.core.lock().finish()
        } else {
            Ok(None)
        };
        let mut errs: Vec<String> = self.errors.lock().drain(..).collect();
        match res {
            Ok(stats) if errs.is_empty() => Ok(stats),
            Ok(_) => Err(errs.join("; ")),
            Err(e) => {
                errs.push(e);
                Err(errs.join("; "))
            }
        }
    }
}

impl Drop for StorageEngine {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}

impl std::fmt::Debug for StorageEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageEngine")
            .field("file", &self.file_path())
            .field("stats", &self.stats())
            .finish()
    }
}

/// The storage pipeline as a [`Plugin`] named `storage`, fired at every
/// iteration completion on the dedicated core of either world and
/// finished (footer + fsync) at shutdown via [`Plugin::on_finalize`].
///
/// `on_iteration` only *hands off* the iteration (cloning the blocks'
/// shared-memory refs and passing them to the stager), so the dedicated
/// core's event loop is back to draining queues while the engine encodes
/// and writes — the overlap [`StorageStats::drain_ns`] versus
/// [`StorageStats::encode_ns`]`+`[`StorageStats::append_ns`] makes
/// visible.
///
/// [`crate::NodeBuilder`] and [`crate::ProcessServer`] register one
/// automatically when, and only when, the configuration declares
/// `<store>`; an `<action plugin="storage" frequency="N">` then thins its
/// firing frequency like any other plugin's.
#[derive(Debug)]
pub struct StoragePlugin {
    engine: Mutex<StorageEngine>,
}

impl StoragePlugin {
    /// Build over a fresh [`StorageEngine`] (see [`StorageEngine::new`]).
    pub fn new(cfg: &Configuration, node_id: usize, fallback_dir: &Path) -> Result<Self, String> {
        Ok(StoragePlugin {
            engine: Mutex::new(StorageEngine::new(cfg, node_id, fallback_dir)?),
        })
    }

    /// Counter snapshot of the underlying engine.
    pub fn stats(&self) -> StorageStats {
        self.engine.lock().stats()
    }

    /// File summary once finished (see [`StorageEngine::file_stats`]).
    pub fn file_stats(&self) -> Option<FileStats> {
        self.engine.lock().file_stats()
    }

    /// Path of this node's file.
    pub fn file_path(&self) -> PathBuf {
        self.engine.lock().file_path()
    }
}

impl Plugin for StoragePlugin {
    fn name(&self) -> &str {
        "storage"
    }

    fn on_iteration(&self, ctx: &IterationCtx<'_>) -> Result<(), String> {
        // ctx.blocks is ordered by (variable, source); cloning a BlockRef
        // is one atomic increment, so the drain is a constant-time pass
        // before the rendezvous hand-off. Empty iterations still go
        // through so the engine's skip counter stays consistent across
        // worlds.
        let set = ctx
            .blocks
            .iter()
            .map(|b| (b.variable, b.source, b.data.clone()))
            .collect();
        self.engine.lock().submit_iteration(ctx.iteration, set)
    }

    fn on_finalize(&self) -> Result<(), String> {
        self.engine.lock().finish().map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoredBlock;
    use damaris_shm::SharedSegment;

    fn config(extra_arch: &str, extra_vars: &str) -> Configuration {
        Configuration::from_str(&format!(
            r#"<simulation name="sp">
                 <architecture>{extra_arch}</architecture>
                 <data>
                   <layout name="l" type="f64" dimensions="4,8"/>
                   <variable name="u" layout="l" codec="xor-delta8,shuffle8,rle"/>
                   <variable name="raw" layout="l"/>
                   {extra_vars}
                 </data>
               </simulation>"#
        ))
        .unwrap()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("damaris-storage-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn field(seed: f64) -> Vec<f64> {
        (0..32).map(|i| 300.0 + seed + (i % 5) as f64).collect()
    }

    fn bytes_of(v: &[f64]) -> Vec<u8> {
        v.iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    #[test]
    fn engine_writes_one_file_decodable_across_iterations() {
        let cfg = config(r#"<store type="h5lite" chunk_rows="2"/>"#, "");
        let dir = tmpdir("engine");
        let mut engine = StorageEngine::new(&cfg, 3, &dir).unwrap();
        let u = cfg.registry().var_id("u").unwrap();
        let raw = cfg.registry().var_id("raw").unwrap();
        for it in 0..4u64 {
            let a = bytes_of(&field(it as f64));
            let b = bytes_of(&field(it as f64 * 10.0));
            engine
                .store_iteration(it, [(u, 0usize, a.as_slice()), (raw, 1usize, b.as_slice())])
                .unwrap();
        }
        let stats = engine.finish().unwrap().unwrap();
        assert_eq!(stats.datasets, 8);
        assert!(
            stats.stored_bytes < stats.logical_bytes,
            "codec'd variable must shrink the file"
        );
        // finish is idempotent and keeps the stats.
        assert_eq!(engine.finish().unwrap().unwrap(), stats);
        let mut r = h5lite::FileReader::open(engine.file_path()).unwrap();
        assert_eq!(r.read_pod::<f64>("it000002/u/rank0").unwrap(), field(2.0));
        assert_eq!(
            r.read_pod::<f64>("it000003/raw/rank1").unwrap(),
            field(30.0)
        );
        assert_eq!(r.attr("", "node").unwrap().as_i64(), Some(3));
        let counters = engine.stats();
        assert_eq!(counters.iterations, 4);
        assert_eq!(counters.datasets, 8);
        assert_eq!(counters.raw_bytes, 8 * 256);
        assert!(
            counters.encodes > 0,
            "codec'd variable went through scratch"
        );
        assert!(counters.encode_ns > 0, "encode stage timed");
        assert!(counters.append_ns > 0, "append stage timed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn engine_scratch_stops_growing_after_warmup() {
        // Two codec'd variables of different sizes take turns in the one
        // inline scratch: it grows to the larger once, then never again.
        let cfg = config(
            r#"<store type="h5lite"/>"#,
            r#"<layout name="wide" type="f64" dimensions="16,8"/>
               <variable name="w" layout="wide" codec="xor-delta8,shuffle8,rle"/>"#,
        );
        let dir = tmpdir("scratch");
        let mut engine = StorageEngine::new(&cfg, 0, &dir).unwrap();
        let u = cfg.registry().var_id("u").unwrap();
        let w = cfg.registry().var_id("w").unwrap();
        let small = bytes_of(&field(1.0));
        let wide: Vec<f64> = (0..128).map(|i| 280.0 + (i % 7) as f64).collect();
        let wide = bytes_of(&wide);
        let blocks = [(u, 0usize, small.as_slice()), (w, 0usize, wide.as_slice())];
        engine.store_iteration(0, blocks).unwrap();
        let warm = engine.stats();
        for it in 1..50u64 {
            engine.store_iteration(it, blocks).unwrap();
        }
        let done = engine.stats();
        assert_eq!(
            done.scratch_grows, warm.scratch_grows,
            "steady-state codec path must not grow scratch buffers"
        );
        assert!(done.encodes > warm.encodes, "encodes kept running");
        engine.finish().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn engine_handles_dynamic_layouts_and_store_false() {
        let cfg = Configuration::from_str(
            r#"<simulation name="dynsp">
                 <architecture>
                   <buffer size="1048576"/>
                   <store type="h5lite"/>
                 </architecture>
                 <data>
                   <layout name="patch" type="f64" dimensions="dynamic" max_size="8192"/>
                   <layout name="l" type="f64" dimensions="8"/>
                   <variable name="amr" layout="patch" codec="xor-delta8,rle"/>
                   <variable name="hidden" layout="l" store="false"/>
                 </data>
               </simulation>"#,
        )
        .unwrap();
        let dir = tmpdir("dyn");
        let mut engine = StorageEngine::new(&cfg, 0, &dir).unwrap();
        let amr = cfg.registry().var_id("amr").unwrap();
        let hidden = cfg.registry().var_id("hidden").unwrap();
        let cells: Vec<f64> = (0..37).map(|i| i as f64).collect();
        let cb = bytes_of(&cells);
        let hb = [0u8; 64];
        engine
            .store_iteration(5, [(amr, 2usize, cb.as_slice()), (hidden, 0usize, &hb[..])])
            .unwrap();
        let stats = engine.finish().unwrap().unwrap();
        assert_eq!(stats.datasets, 1, "store=false variable skipped");
        let mut r = h5lite::FileReader::open(engine.file_path()).unwrap();
        assert_eq!(r.read_pod::<f64>("it000005/amr/rank2").unwrap(), cells);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_and_all_skipped_iterations_count_skips_and_leave_no_file() {
        let cfg = config(r#"<store type="h5lite"/>"#, "");
        let dir = tmpdir("empty");
        let mut engine = StorageEngine::new(&cfg, 0, &dir).unwrap();
        // A fully empty iteration…
        engine
            .store_iteration(0, std::iter::empty::<(VarId, usize, &[u8])>())
            .unwrap();
        let s = engine.stats();
        assert_eq!(s.iterations, 0, "empty iteration must not count as stored");
        assert_eq!(s.skipped_iterations, 1);
        // …and the same through the asynchronous hand-off path.
        engine.submit_iteration(1, Vec::new()).unwrap();
        engine.finish().unwrap();
        let s = engine.stats();
        assert_eq!(s.iterations, 0);
        assert_eq!(s.skipped_iterations, 2);
        assert!(!engine.file_path().exists(), "skips create no file");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_store_false_iteration_is_a_skip_not_a_store() {
        // Regression guard: an iteration whose every block is
        // store="false" must bump the skip counter, not `iterations`,
        // and must not create the file.
        let cfg = config(
            r#"<store type="h5lite"/>"#,
            r#"<variable name="ghost" layout="l" store="false"/>"#,
        );
        let dir = tmpdir("allskip");
        let mut engine = StorageEngine::new(&cfg, 0, &dir).unwrap();
        let ghost = cfg.registry().var_id("ghost").unwrap();
        let bytes = bytes_of(&field(0.0));
        engine
            .store_iteration(0, [(ghost, 0usize, bytes.as_slice())])
            .unwrap();
        let s = engine.stats();
        assert_eq!((s.iterations, s.skipped_iterations, s.datasets), (0, 1, 0));
        assert_eq!(engine.finish().unwrap(), None);
        assert!(!engine.file_path().exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn submitted_iterations_match_synchronous_store_byte_for_byte() {
        // The overlapped hand-off path must write the same file the
        // synchronous path writes, and let go of every staged block.
        let cfg = config(r#"<store type="h5lite" chunk_rows="2"/>"#, "");
        let u = cfg.registry().var_id("u").unwrap();
        let raw = cfg.registry().var_id("raw").unwrap();

        let dir_sync = tmpdir("submit-sync");
        let mut sync_engine = StorageEngine::new(&cfg, 0, &dir_sync).unwrap();
        let dir_sub = tmpdir("submit-async");
        let mut sub_engine = StorageEngine::new(&cfg, 0, &dir_sub).unwrap();
        let seg = SharedSegment::new(1 << 16).unwrap();
        let staged = |bytes: &[u8]| {
            let mut b = seg.allocate(bytes.len()).unwrap();
            b.write_bytes(bytes);
            b.freeze()
        };
        for it in 0..6u64 {
            let a = bytes_of(&field(it as f64));
            let b = bytes_of(&field(it as f64 + 0.5));
            sync_engine
                .store_iteration(it, [(u, 0usize, a.as_slice()), (raw, 1usize, b.as_slice())])
                .unwrap();
            let set = vec![(u, 0, staged(&a)), (raw, 1, staged(&b))];
            sub_engine.submit_iteration(it, set).unwrap();
        }
        sync_engine.finish().unwrap().unwrap();
        sub_engine.finish().unwrap().unwrap();
        let sync_bytes = std::fs::read(sync_engine.file_path()).unwrap();
        let sub_bytes = std::fs::read(sub_engine.file_path()).unwrap();
        assert_eq!(
            sync_bytes, sub_bytes,
            "hand-off path must be byte-identical"
        );
        let s = sub_engine.stats();
        assert_eq!(s.iterations, 6);
        assert!(s.drain_ns > 0, "hand-off path was timed");
        assert_eq!(seg.used_bytes(), 0, "every staged block released");
        std::fs::remove_dir_all(&dir_sync).ok();
        std::fs::remove_dir_all(&dir_sub).ok();
    }

    #[test]
    fn failed_background_sync_is_reported() {
        // fdatasync on a socket fails with EINVAL: the flusher must queue
        // the error, not drop it and count no sync.
        let (sock, _peer) = std::os::unix::net::UnixStream::pair().unwrap();
        let file = File::from(std::os::fd::OwnedFd::from(sock));
        let syncs = Arc::new(AtomicU64::new(0));
        let errors = ErrorList::default();
        let flusher = Flusher::spawn(
            file,
            PathBuf::from("sock"),
            syncs.clone(),
            Arc::new(AtomicU64::new(0)),
            errors.clone(),
        )
        .unwrap();
        flusher.request();
        drop(flusher); // joins after the requested sync ran
        let errs = errors.lock().clone();
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("syncing \"sock\""), "{errs:?}");
        assert_eq!(syncs.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn plugin_stores_iteration_blocks_and_finishes_on_finalize() {
        let cfg = config(r#"<store type="h5lite" chunk_rows="2"/>"#, "");
        let dir = tmpdir("plugin");
        let seg = SharedSegment::new(1 << 16).unwrap();
        let data = field(7.0);
        let mut b = seg.allocate(256).unwrap();
        b.write_pod(&data);
        let blocks = vec![StoredBlock {
            variable: cfg.registry().var_id("u").unwrap(),
            source: 1,
            iteration: 9,
            data: b.freeze(),
        }];
        let plugin = StoragePlugin::new(&cfg, 0, &dir).unwrap();
        let act = damaris_xml::schema::Action {
            name: "storage".into(),
            plugin: "storage".into(),
            trigger: damaris_xml::schema::Trigger::EndOfIteration { frequency: 1 },
            params: vec![],
        };
        let ctx = IterationCtx {
            iteration: 9,
            node_id: 0,
            simulation: "sp",
            blocks: &blocks,
            config: &cfg,
            output_dir: &dir,
            action: &act,
        };
        plugin.on_iteration(&ctx).unwrap();
        plugin.on_finalize().unwrap();
        assert!(plugin.file_stats().is_some());
        let stats = plugin.stats();
        assert!(stats.drain_ns > 0, "hand-off timed on the event path");
        let mut r = h5lite::FileReader::open(plugin.file_path()).unwrap();
        assert_eq!(r.read_pod::<f64>("it000009/u/rank1").unwrap(), data);
        std::fs::remove_dir_all(&dir).ok();
    }
}
