//! The Linux calls a socket loop waits with: `poll(2)` over its sockets,
//! an `eventfd(2)` counter other threads signal, and `pidfd_open(2)`, which
//! makes a child's exit one more readable descriptor. Compiled into both
//! `damaris_serve` (its poll thread) and `mini_mpi` (its mesh thread and
//! the launching parent's supervision loop).
//!
//! No external crates: each is declared directly against libc (which
//! `std` already links), the way `damaris_shm`'s mapping declares `mmap`.

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::os::raw::{c_int, c_long, c_short, c_uint, c_ulong};
use std::time::Duration;

// eventfd is Linux-only; the flag values are the asm-generic ones (x86,
// arm, riscv).
#[cfg(not(target_os = "linux"))]
compile_error!("this crate waits with Linux's poll(2) and eventfd(2)");

pub const POLLIN: c_short = 0x001;
pub const POLLOUT: c_short = 0x004;
const EFD_NONBLOCK: c_int = 0o4000;
const EFD_CLOEXEC: c_int = 0o2_000_000;
/// The same number on every architecture (added after the syscall tables
/// were unified). glibc only wraps it from 2.36, so it goes through
/// `syscall(2)`.
const SYS_PIDFD_OPEN: c_long = 434;

/// `struct pollfd`.
#[repr(C)]
pub struct PollFd {
    fd: c_int,
    events: c_short,
    /// Written by the kernel.
    revents: c_short,
}

impl PollFd {
    pub fn new(fd: &impl AsRawFd, events: c_short) -> PollFd {
        PollFd {
            fd: fd.as_raw_fd(),
            events,
            revents: 0,
        }
    }

    /// Whether the last [`wait`] found the descriptor ready or hung up.
    pub fn ready(&self) -> bool {
        self.revents != 0
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn syscall(number: c_long, ...) -> c_long;
}

/// Block until one of `fds` is ready or `timeout` (`None`: never) has
/// passed. A signal interrupting the wait counts as a wake-up.
pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
    let ms = timeout.map_or(-1, |t| t.as_millis().min(c_int::MAX as u128) as c_int);
    // SAFETY: `fds` is a valid, writable array of `fds.len()` `struct
    // pollfd`s for the whole call; poll writes only their `revents`.
    let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, ms) };
    if ready < 0 {
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}

/// A descriptor that turns readable once process `pid` has exited (Linux
/// 5.3+). It does not reap the process: that is still the parent's
/// `wait`, and until then `pid` cannot be reused.
#[allow(dead_code)] // damaris_serve supervises no processes
pub fn pidfd_open(pid: u32) -> io::Result<OwnedFd> {
    // SAFETY: pidfd_open takes a pid and a flags word, no pointers; it
    // returns a new close-on-exec descriptor or -1.
    let fd = unsafe { syscall(SYS_PIDFD_OPEN, pid as c_long, 0 as c_long) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `fd` was just returned by pidfd_open and nothing else owns
    // it; the `OwnedFd` closes it on drop.
    Ok(unsafe { OwnedFd::from_raw_fd(fd as c_int) })
}

/// A nonblocking eventfd: readable while its counter is nonzero.
pub struct EventFd(File);

impl EventFd {
    pub fn new() -> io::Result<EventFd> {
        // SAFETY: eventfd takes no pointers; it returns a new descriptor
        // or -1.
        let fd = unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` was just returned by eventfd and nothing else owns
        // it; the `File` closes it on drop.
        Ok(EventFd(unsafe { File::from_raw_fd(fd) }))
    }

    /// Add one to the counter, making the descriptor readable.
    pub fn signal(&self) {
        // Fails only when the counter would pass u64::MAX - 1.
        let _ = (&self.0).write(&1u64.to_ne_bytes());
    }

    /// Reset the counter to zero; returns at once when it already is.
    pub fn drain(&self) {
        let _ = (&self.0).read(&mut [0u8; 8]);
    }
}

impl AsRawFd for EventFd {
    fn as_raw_fd(&self) -> c_int {
        self.0.as_raw_fd()
    }
}
