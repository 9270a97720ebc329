//! File-backed shared memory: a file (on tmpfs such as `/dev/shm`, or any
//! local filesystem) mapped `MAP_SHARED` into every participating process.
//!
//! The in-process [`crate::SharedSegment`] backs its storage with a heap
//! allocation — perfect for thread worlds, useless across a real process
//! boundary. [`ShmFile`] provides the missing piece: the *same bytes*
//! visible in several address spaces, exactly like the POSIX shared
//! memory segment the original Damaris middleware opens on every core of
//! an SMP node. A client process lays a [`crate::SharedSegment`] over a
//! slice of the mapping (see [`crate::SharedSegment::over_mapping`]) and
//! allocates/writes as usual; the dedicated-core process lays a
//! [`crate::SharedSegment::reader`] over the same file and reads blocks in
//! place, by their file offset, through refcounted views.
//!
//! No external crates: the two `mmap`/`munmap` calls are declared
//! directly against libc (which `std` already links on every Unix
//! platform this workspace targets).

use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};

use crate::error::ShmError;

#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 0x1;
    pub const PROT_WRITE: c_int = 0x2;
    pub const MAP_SHARED: c_int = 0x01;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// A shared, writable file mapping.
///
/// Every process that [`ShmFile::create`]s or [`ShmFile::open`]s the same
/// path sees the same bytes. Dropping unmaps; the *creator* also unlinks
/// the file, so segments do not accumulate across runs.
pub struct ShmFile {
    ptr: *mut u8,
    len: usize,
    path: PathBuf,
    owner: bool,
    file: File,
}

// SAFETY: the mapping itself is just memory; all access goes through
// explicit unsafe raw reads/writes whose disjointness the callers
// (segment allocator / reader protocol) are responsible for — the same
// contract as `SegmentInner`'s heap storage.
unsafe impl Send for ShmFile {}
unsafe impl Sync for ShmFile {}

impl ShmFile {
    /// The conventional place for segment files: `/dev/shm` when the
    /// platform mounts it (Linux), the system temp directory otherwise.
    pub fn default_dir() -> PathBuf {
        let shm = PathBuf::from("/dev/shm");
        if shm.is_dir() {
            shm
        } else {
            std::env::temp_dir()
        }
    }

    /// Create (or truncate) the file at `path`, size it to `len` bytes
    /// and map it shared. A new file is readable and writable by its owner
    /// only (mode 0600): the simulation's data is nobody else's to read.
    pub fn create(path: impl AsRef<Path>, len: usize) -> Result<Self, ShmError> {
        if len == 0 {
            return Err(ShmError::ZeroSize);
        }
        let path = path.as_ref().to_path_buf();
        let mut options = OpenOptions::new();
        options.read(true).write(true).create(true).truncate(true);
        #[cfg(unix)]
        std::os::unix::fs::OpenOptionsExt::mode(&mut options, 0o600);
        let file = options.open(&path).map_err(map_io)?;
        file.set_len(len as u64).map_err(map_io)?;
        Self::map(file, path, len, true)
    }

    /// Open and map an existing segment file created by another process.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, ShmError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(map_io)?;
        let len = file.metadata().map_err(map_io)?.len() as usize;
        if len == 0 {
            return Err(ShmError::ZeroSize);
        }
        Self::map(file, path, len, false)
    }

    #[cfg(unix)]
    fn map(file: File, path: PathBuf, len: usize, owner: bool) -> Result<Self, ShmError> {
        use std::os::unix::io::AsRawFd;
        // SAFETY: mapping a file we own a descriptor to; length matches
        // the file size set above; the pointer is checked before use.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 || ptr.is_null() {
            return Err(map_io(io::Error::last_os_error()));
        }
        Ok(ShmFile {
            ptr: ptr as *mut u8,
            len,
            path,
            owner,
            file,
        })
    }

    #[cfg(not(unix))]
    fn map(_file: File, _path: PathBuf, _len: usize, _owner: bool) -> Result<Self, ShmError> {
        Err(ShmError::MapFailed(
            "file-backed shared memory requires a Unix platform".into(),
        ))
    }

    /// Mapped length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty (never true; zero lengths are rejected).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Path of the backing file (share it with the other processes).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The open backing file (for its metadata: device and inode).
    pub fn file(&self) -> &File {
        &self.file
    }

    /// Base pointer of the mapping (page-aligned).
    pub(crate) fn base(&self) -> *mut u8 {
        self.ptr
    }

    /// Read `len` bytes at `offset` into a fresh vector.
    ///
    /// A copy, because nothing here ties the range's life to the reader:
    /// the writing process may recycle it as soon as its protocol allows.
    /// A view that outlives the call needs a lease the writer honours —
    /// that is [`crate::SharedSegment::view`], whose release hook is what
    /// tells the writer when the bytes may change. Panics if the range is
    /// out of bounds.
    pub fn read_at(&self, offset: usize, len: usize) -> Vec<u8> {
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= self.len),
            "read of {len} bytes at {offset} outside a {}-byte mapping",
            self.len
        );
        let mut out = vec![0u8; len];
        // SAFETY: bounds checked above; overlapping concurrent writes are
        // the caller's protocol responsibility (same contract as any
        // shared-memory consumer).
        unsafe {
            std::ptr::copy_nonoverlapping(self.ptr.add(offset), out.as_mut_ptr(), len);
        }
        out
    }

    /// Run `f` over the bytes at `[offset, offset + len)` without copying
    /// (e.g. a checksum scan). The borrow cannot escape `f`: a view that
    /// had to stay valid after the call would need the writer's promise
    /// not to recycle the range, which only the leased
    /// [`crate::SharedSegment::view`] carries. Panics if the range is out
    /// of bounds.
    pub fn with_bytes<R>(&self, offset: usize, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= self.len),
            "view of {len} bytes at {offset} outside a {}-byte mapping",
            self.len
        );
        // SAFETY: bounds checked above; lifetime confined to `f`.
        f(unsafe { std::slice::from_raw_parts(self.ptr.add(offset), len) })
    }
}

impl Drop for ShmFile {
    fn drop(&mut self) {
        #[cfg(unix)]
        // SAFETY: ptr/len are exactly what mmap returned.
        unsafe {
            sys::munmap(self.ptr as *mut std::os::raw::c_void, self.len);
        }
        if self.owner {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

impl std::fmt::Debug for ShmFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShmFile")
            .field("path", &self.path)
            .field("len", &self.len)
            .field("owner", &self.owner)
            .finish()
    }
}

fn map_io(e: io::Error) -> ShmError {
    ShmError::MapFailed(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unique_path(tag: &str) -> PathBuf {
        ShmFile::default_dir().join(format!(
            "damaris-shm-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    // Real mmap/libc syscalls: outside Miri's interpreter.
    #[cfg_attr(miri, ignore)]
    fn create_write_open_read() {
        let path = unique_path("rw");
        let shm = ShmFile::create(&path, 4096).unwrap();
        assert_eq!(shm.len(), 4096);
        // Write through one mapping…
        // SAFETY: offset 128 + 12 bytes is inside the 4096-byte mapping
        // and nothing else touches the file during the test.
        unsafe { std::ptr::copy_nonoverlapping(b"hello shared".as_ptr(), shm.base().add(128), 12) };
        // …and read it back through an independent mapping of the file,
        // as a second process would.
        let other = ShmFile::open(&path).unwrap();
        assert_eq!(other.read_at(128, 12), b"hello shared");
        other.with_bytes(128, 5, |b| assert_eq!(b, b"hello"));
        drop(other);
        drop(shm); // owner unlinks
        assert!(!path.exists(), "creator must unlink the segment file");
    }

    #[test]
    // Real mmap/libc syscalls: outside Miri's interpreter.
    #[cfg_attr(miri, ignore)]
    fn created_file_is_private_to_its_owner() {
        use std::os::unix::fs::PermissionsExt;
        let path = unique_path("mode");
        let shm = ShmFile::create(&path, 4096).unwrap();
        let mode = shm.file().metadata().unwrap().permissions().mode();
        assert_eq!(mode & 0o077, 0, "segment file mode {mode:o}");
    }

    #[test]
    // Real mmap/libc syscalls: outside Miri's interpreter.
    #[cfg_attr(miri, ignore)]
    fn bounds_are_enforced() {
        let path = unique_path("bounds");
        let shm = ShmFile::create(&path, 256).unwrap();
        assert_eq!(shm.read_at(192, 64).len(), 64);
        assert!(std::panic::catch_unwind(|| shm.read_at(193, 64)).is_err());
        assert!(std::panic::catch_unwind(|| shm.read_at(usize::MAX, 2)).is_err());
    }

    #[test]
    // Real mmap/libc syscalls: outside Miri's interpreter.
    #[cfg_attr(miri, ignore)]
    fn zero_and_missing_rejected() {
        assert!(matches!(
            ShmFile::create(unique_path("zero"), 0),
            Err(ShmError::ZeroSize)
        ));
        assert!(ShmFile::open(unique_path("missing")).is_err());
    }
}
