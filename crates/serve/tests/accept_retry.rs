//! The poll thread retries an `accept` that failed for want of file
//! descriptors, even with no subscriber connected to wake it. A test
//! binary of its own, because it lowers the process's descriptor limit.

use std::fs::File;
use std::io::Read;
use std::net::TcpStream;
use std::os::raw::{c_int, c_ulong};
use std::time::{Duration, Instant};

use damaris_serve::{ServeOptions, StreamServer};

const RLIMIT_NOFILE: c_int = 7;

/// `struct rlimit`.
#[repr(C)]
struct RLimit {
    cur: c_ulong,
    max: c_ulong,
}

extern "C" {
    fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
}

fn nofile() -> RLimit {
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a valid, writable `struct rlimit` for the call.
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) }, 0);
    lim
}

fn set_nofile(lim: &RLimit) {
    // SAFETY: `lim` is a valid `struct rlimit`; setrlimit only reads it.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, lim) }, 0);
}

/// Wait until the poll thread has made more than `n` passes.
fn wait_for_pass(server: &StreamServer, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().poll_waits <= n {
        assert!(Instant::now() < deadline, "the poll thread never ran");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn failed_accept_is_retried_with_no_subscriber_connected() {
    let server = StreamServer::bind(ServeOptions::default()).unwrap();
    // After its first pass the thread waits on the listener and the
    // eventfd only; the connection below is the one thing that wakes it.
    wait_for_pass(&server, 0);
    let passes = server.stats().poll_waits;

    // Leave exactly one descriptor free: the client's socket takes it,
    // and the server's accept fails with EMFILE.
    let saved = nofile();
    let highest = std::fs::read_dir("/proc/self/fd")
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<c_ulong>().ok())
        .max()
        .unwrap();
    set_nofile(&RLimit {
        cur: (highest + 8).min(saved.cur),
        max: saved.max,
    });
    let mut filler = Vec::new();
    while let Ok(f) = File::open("/dev/null") {
        filler.push(f);
    }
    filler.pop();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    wait_for_pass(&server, passes);
    assert_eq!(
        server.stats().subscribers_connected,
        0,
        "the accept was meant to fail"
    );

    // Descriptors free again, and nothing else will wake the thread: the
    // retry alone must deliver HELLO.
    drop(filler);
    set_nofile(&saved);
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut prefix = [0u8; 5];
    raw.read_exact(&mut prefix)
        .expect("HELLO after the failed accept");
    assert_eq!(prefix[4], 1, "first frame is HELLO");
    assert_eq!(server.stats().subscribers_connected, 1);
    server.shutdown(Duration::from_secs(5));
}
