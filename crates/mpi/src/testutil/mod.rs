//! Deterministic fault injection for the socket world.
//!
//! Test-only infrastructure (no `cfg(test)` gate so integration tests in
//! other crates can use it; nothing here runs unless constructed):
//!
//! * [`FaultProxy`] — an in-process TCP proxy that fronts the launching
//!   parent's registry in a seed-list world. Because every rank registers
//!   through the seed address, the proxy observes every `Register` frame
//!   and rewrites the advertised mesh address to a per-rank forwarder it
//!   owns, so **every mesh link flows through the proxy** and can be
//!   manipulated deterministically: dropped once (transient failure),
//!   black-holed (network partition: the connection stays open but all
//!   frames are silently swallowed), or delayed per frame. After the
//!   welcome it splices the registry connection, so each rank's result
//!   and its end still reach the parent.
//! * [`PidMap`] — records `(rank, pid)` pairs via the
//!   [`crate::SpawnOptions::on_spawn`] hook so tests can `SIGKILL` /
//!   `SIGSTOP` / `SIGCONT` individual rank processes.
//! * [`free_loopback_addr`] — a concrete free `127.0.0.1:<port>`, the one
//!   place a port is bound, released and bound again later (racy, and
//!   acceptable only in tests).
//! * [`decode_mesh_stream`] — the mesh's frame decoder, for fuzzing the
//!   parser that reads every byte a peer sends.
//!
//! Fault schedules are expressed in *protocol* terms — "after the 3rd
//! data frame from rank 2 to rank 0" — not wall-clock terms, which keeps
//! the tests deterministic on loaded CI machines.

use std::collections::{BTreeMap, BTreeSet};
use std::hash::{BuildHasher, RandomState};
use std::io::{self, Read};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::socket::{read_frame, write_frame, Frame, FrameBuf};

/// A concrete free loopback address (`127.0.0.1:<port>`), suitable for
/// [`crate::SpawnOptions::seeds`]. The port is bound and released, so
/// another process could take it before it is bound again; it lies below
/// the kernel's ephemeral range to make that unlikely.
pub fn free_loopback_addr() -> io::Result<String> {
    resolve_port_zero("127.0.0.1:0")
}

/// Resolve a trailing `:0` in a `host:port` address to a concrete free
/// port by briefly binding a listener there. The port is picked below the
/// kernel's ephemeral range, which every `:0` bind and every outgoing
/// connection draw from: with rank processes binding and dialing on all
/// sides, a port from that range is soon taken again. Below it, only
/// another explicit bind to the same port can collide, and the search
/// starts at a random port.
fn resolve_port_zero(addr: &str) -> io::Result<String> {
    let Some((host, port)) = addr.rsplit_once(':') else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("address '{addr}' is not host:port"),
        ));
    };
    if port != "0" {
        return Ok(addr.to_string());
    }
    const FIRST: u16 = 10_000;
    let range = std::fs::read_to_string("/proc/sys/net/ipv4/ip_local_port_range");
    let low = range
        .ok()
        .and_then(|r| r.split_whitespace().next()?.parse().ok());
    let span = u64::from(low.unwrap_or(32_768u16).saturating_sub(FIRST));
    let start = RandomState::new().hash_one(addr);
    for i in 0..span {
        let port = FIRST + ((start.wrapping_add(i)) % span) as u16;
        if TcpListener::bind((host, port)).is_ok() {
            return Ok(format!("{host}:{port}"));
        }
    }
    let l = TcpListener::bind((host, 0))?;
    Ok(format!("{host}:{}", l.local_addr()?.port()))
}

/// Feed `chunks` through one connection's inbound buffer, as the mesh
/// thread's partial reads do, and return every whole frame decoded and
/// encoded again, in order. A trailing partial frame is left undecoded.
pub fn decode_mesh_stream<'a>(
    chunks: impl IntoIterator<Item = &'a [u8]>,
) -> io::Result<Vec<Vec<u8>>> {
    let (mut inbox, mut frames) = (FrameBuf::default(), Vec::new());
    for chunk in chunks {
        inbox.extend(chunk);
        while let Some(frame) = inbox.next_frame()? {
            let mut bytes = Vec::new();
            write_frame(&mut bytes, &frame).expect("a decoded frame is within the limit");
            frames.push(bytes);
        }
    }
    Ok(frames)
}

/// Rank-to-pid registry fed by the [`crate::SpawnOptions::on_spawn`]
/// hook; lets tests signal individual rank processes.
#[derive(Clone, Default)]
pub struct PidMap {
    inner: Arc<Mutex<BTreeMap<usize, u32>>>,
}

impl PidMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// The hook to plug into [`crate::SpawnOptions::on_spawn`].
    pub fn hook(&self) -> Arc<dyn Fn(usize, u32) + Send + Sync> {
        let inner = self.inner.clone();
        Arc::new(move |rank, pid| {
            inner.lock().insert(rank, pid);
        })
    }

    /// The recorded pid of `rank`, if it has spawned yet.
    pub fn pid(&self, rank: usize) -> Option<u32> {
        self.inner.lock().get(&rank).copied()
    }

    /// Block until `rank`'s pid is recorded (the spawn hook fires as the
    /// parent loops over ranks, racing the caller).
    pub fn wait_pid(&self, rank: usize, timeout: Duration) -> Option<u32> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(pid) = self.pid(rank) {
                return Some(pid);
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Send `sig` (a `kill -s` name: `KILL`, `STOP`, `CONT`, …) to the
    /// process of `rank`. Returns `false` if the rank has no recorded
    /// pid or the signal could not be delivered.
    pub fn signal(&self, rank: usize, sig: &str) -> bool {
        let Some(pid) = self.pid(rank) else {
            return false;
        };
        std::process::Command::new("kill")
            .args(["-s", sig, &pid.to_string()])
            .status()
            .map(|s| s.success())
            .unwrap_or(false)
    }

    /// `SIGKILL` the process of `rank` (crash-stop failure).
    pub fn kill(&self, rank: usize) -> bool {
        self.signal(rank, "KILL")
    }
}

/// What to do to a link once its trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Close both halves of the proxied connection once (transient
    /// failure). The dialer redials through the proxy and the link
    /// resumes.
    Drop,
    /// Silently swallow every subsequent frame in both directions while
    /// keeping the connection open (network partition). Reconnect
    /// attempts on a black-holed link are swallowed too.
    BlackHole,
    /// Sleep this long before forwarding each dialer-to-listener frame.
    Delay(Duration),
}

/// One scheduled fault on the mesh link between ranks `low` and `high`.
///
/// Links are identified by their endpoint pair: `low` is the listener
/// side and `high` the dialer side (rank `h` dials every rank below it,
/// so `high > low` always). The trigger counts `Data` frames flowing
/// dialer-to-listener: the fault fires immediately before the
/// `(after_data + 1)`-th such frame would be forwarded (`after_data ==
/// 0` fires before any application data crosses, right after the
/// handshake).
#[derive(Debug, Clone, Copy)]
pub struct LinkFault {
    /// Listener-side rank (the lower endpoint).
    pub low: usize,
    /// Dialer-side rank (the higher endpoint).
    pub high: usize,
    /// How many dialer-to-listener `Data` frames pass before firing.
    pub after_data: usize,
    /// What happens when the trigger fires.
    pub action: FaultAction,
}

struct FaultSlot {
    fault: LinkFault,
    triggered: bool,
}

struct ProxyShared {
    registry_addr: String,
    faults: Mutex<Vec<FaultSlot>>,
    blackholed: Mutex<BTreeSet<(usize, usize)>>,
    data_counts: Mutex<BTreeMap<(usize, usize), usize>>,
    stop: AtomicBool,
}

impl ProxyShared {
    fn is_blackholed(&self, low: usize, high: usize) -> bool {
        self.blackholed.lock().contains(&(low, high))
    }

    /// Check (and consume) a fault due for link `(low, high)` given that
    /// `seen` data frames have already been forwarded.
    fn due_fault(&self, low: usize, high: usize, seen: usize) -> Option<FaultAction> {
        let mut faults = self.faults.lock();
        for slot in faults.iter_mut() {
            if !slot.triggered
                && slot.fault.low == low
                && slot.fault.high == high
                && seen >= slot.fault.after_data
            {
                slot.triggered = true;
                if slot.fault.action == FaultAction::BlackHole {
                    self.blackholed.lock().insert((low, high));
                }
                return Some(slot.fault.action);
            }
        }
        None
    }
}

/// Deterministic TCP fault proxy for seed-list worlds; see the module
/// docs. Construct it, point [`crate::SpawnOptions::seeds`] at
/// [`FaultProxy::seeds`] and [`crate::SpawnOptions::registry_bind`] at
/// [`FaultProxy::registry_bind`] (where the launching parent binds its
/// registry), and every mesh link of the spawned world is routed through
/// the proxy.
pub struct FaultProxy {
    seed_addr: String,
    shared: Arc<ProxyShared>,
}

impl FaultProxy {
    /// Bind the proxy and schedule `faults`.
    pub fn new(faults: Vec<LinkFault>) -> io::Result<FaultProxy> {
        let registry_addr = resolve_port_zero("127.0.0.1:0")?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let seed_addr = format!("127.0.0.1:{}", listener.local_addr()?.port());
        let shared = Arc::new(ProxyShared {
            registry_addr,
            faults: Mutex::new(
                faults
                    .into_iter()
                    .map(|fault| FaultSlot {
                        fault,
                        triggered: false,
                    })
                    .collect(),
            ),
            blackholed: Mutex::new(BTreeSet::new()),
            data_counts: Mutex::new(BTreeMap::new()),
            stop: AtomicBool::new(false),
        });
        listener.set_nonblocking(true)?;
        let accept_shared = shared.clone();
        std::thread::Builder::new()
            .name("fault-proxy-seed".into())
            .spawn(move || seed_accept_loop(listener, accept_shared))
            .expect("failed to spawn fault-proxy accept thread");
        Ok(FaultProxy { seed_addr, shared })
    }

    /// The address to advertise as the world's seed list.
    pub fn seeds(&self) -> String {
        self.seed_addr.clone()
    }

    /// Where the parent's registry must actually bind (the proxy dials
    /// this address and relays registrations to it).
    pub fn registry_bind(&self) -> String {
        self.shared.registry_addr.clone()
    }

    /// Black-hole the `(low, high)` link right now (in addition to any
    /// scheduled faults); subsequent frames and reconnects are swallowed.
    pub fn black_hole_now(&self, low: usize, high: usize) {
        self.shared.blackholed.lock().insert((low, high));
    }

    /// How many dialer-to-listener `Data` frames the proxy has forwarded
    /// (or swallowed) on the `(low, high)` link so far.
    pub fn data_frames_seen(&self, low: usize, high: usize) -> usize {
        self.shared
            .data_counts
            .lock()
            .get(&(low, high))
            .copied()
            .unwrap_or(0)
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
    }
}

/// Accept registration connections on the public seed address.
fn seed_accept_loop(listener: TcpListener, shared: Arc<ProxyShared>) {
    while !shared.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = shared.clone();
                std::thread::spawn(move || {
                    let _ = handle_register(stream, shared);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => return,
        }
    }
}

/// One rank registering: rewrite its advertised mesh address to a fresh
/// forwarder, relay the registration to the parent's registry and the
/// welcome back, then splice the connection so the rank's result and its
/// end reach the parent.
fn handle_register(mut client: TcpStream, shared: Arc<ProxyShared>) -> io::Result<()> {
    client.set_read_timeout(Some(Duration::from_secs(30)))?;
    let Frame::Register { rank, addr } = read_frame(&mut client)? else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "expected a register frame on the seed address",
        ));
    };
    // The forwarder owns this rank's advertised identity: every dialer
    // (initial mesh connect and later reconnects) lands here.
    let forwarder = TcpListener::bind("127.0.0.1:0")?;
    let fwd_addr = format!("127.0.0.1:{}", forwarder.local_addr()?.port());
    forwarder.set_nonblocking(true)?;
    {
        let shared = shared.clone();
        let real_addr = addr.clone();
        std::thread::Builder::new()
            .name(format!("fault-proxy-fwd-{rank}"))
            .spawn(move || forwarder_loop(forwarder, rank as usize, real_addr, shared))
            .expect("failed to spawn forwarder thread");
    }
    // The parent bound its registry before spawning any rank.
    let mut upstream = TcpStream::connect(&shared.registry_addr)?;
    write_frame(
        &mut upstream,
        &Frame::Register {
            rank,
            addr: fwd_addr,
        },
    )?;
    // The welcome only arrives once every rank has registered.
    let welcome = read_frame(&mut upstream)?;
    write_frame(&mut client, &welcome)?;
    client.set_read_timeout(None)?;
    io::copy(&mut client, &mut upstream)?;
    upstream.shutdown(Shutdown::Write)
}

/// Accept mesh connections destined for rank `low`'s data listener.
fn forwarder_loop(listener: TcpListener, low: usize, real_addr: String, shared: Arc<ProxyShared>) {
    while !shared.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = shared.clone();
                let real_addr = real_addr.clone();
                std::thread::spawn(move || {
                    let _ = handle_link(stream, low, &real_addr, shared);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => return,
        }
    }
}

/// One proxied mesh connection: sniff the dialer's identity from the
/// handshake frame, then relay frames in both directions, applying any
/// scheduled fault on the dialer-to-listener flow.
fn handle_link(
    mut dialer: TcpStream,
    low: usize,
    real_addr: &str,
    shared: Arc<ProxyShared>,
) -> io::Result<()> {
    dialer.set_read_timeout(Some(Duration::from_secs(30)))?;
    let handshake = read_frame(&mut dialer)?;
    let high = match &handshake {
        Frame::Hello { rank } | Frame::Reconnect { rank, .. } => *rank as usize,
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "expected a hello or reconnect handshake",
            ))
        }
    };
    dialer.set_read_timeout(None)?;
    if shared.is_blackholed(low, high) {
        // Partitioned: swallow everything (including this reconnect
        // attempt) while keeping the connection open.
        let mut sink = [0u8; 4096];
        while dialer.read(&mut sink).map(|n| n > 0).unwrap_or(false) {}
        return Ok(());
    }
    let mut upstream = TcpStream::connect(real_addr)?;
    write_frame(&mut upstream, &handshake)?;

    // Listener-to-dialer direction: unchanged unless black-holed.
    {
        let mut from = upstream.try_clone()?;
        let mut to = dialer.try_clone()?;
        let shared = shared.clone();
        std::thread::spawn(move || {
            while let Ok(frame) = read_frame(&mut from) {
                if shared.is_blackholed(low, high) {
                    continue;
                }
                if write_frame(&mut to, &frame).is_err() {
                    break;
                }
            }
            let _ = to.shutdown(Shutdown::Both);
        });
    }

    // Dialer-to-listener direction: count data frames, fire faults.
    while let Ok(frame) = read_frame(&mut dialer) {
        if let Frame::Data { .. } = frame {
            let seen = shared
                .data_counts
                .lock()
                .get(&(low, high))
                .copied()
                .unwrap_or(0);
            match shared.due_fault(low, high, seen) {
                Some(FaultAction::Drop) => {
                    let _ = dialer.shutdown(Shutdown::Both);
                    let _ = upstream.shutdown(Shutdown::Both);
                    return Ok(());
                }
                Some(FaultAction::BlackHole) | None => {}
                Some(FaultAction::Delay(d)) => std::thread::sleep(d),
            }
            *shared.data_counts.lock().entry((low, high)).or_insert(0) += 1;
        }
        if shared.is_blackholed(low, high) {
            continue;
        }
        if write_frame(&mut upstream, &frame).is_err() {
            break;
        }
    }
    let _ = upstream.shutdown(Shutdown::Both);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_port_zero_resolves_only_zero() {
        assert_eq!(
            resolve_port_zero("127.0.0.1:8080").unwrap(),
            "127.0.0.1:8080"
        );
        let resolved = resolve_port_zero("127.0.0.1:0").unwrap();
        assert!(resolved.starts_with("127.0.0.1:"));
        assert_ne!(resolved, "127.0.0.1:0");
        // Rebinding it works: nothing took it meanwhile.
        assert!(TcpListener::bind(&resolved).is_ok());
        assert!(resolve_port_zero("no-port-here").is_err());
    }
}
