//! One trial: a fresh `Damaris::launch` of a workload, its stream
//! subscribers, and the checks that what came out the other end is what
//! the clients wrote.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use damaris_core::prelude::*;
use damaris_serve::{Subscriber, SubscriberEvent};
use h5lite::FileReader;

use crate::client::{fnv1a, fnv1a_f64, simulate, ClientLog};
use crate::sys::{cpu_total_s, now_ns, Pinned, Placement};
use crate::workload::{Env, Spec, LAUNCH_PROGRAM};

/// What one stream subscriber saw.
#[derive(Debug, Default)]
pub struct SubscriberLog {
    pub data_frames: u64,
    /// DATA frames whose payload was not exactly one block long.
    pub bad_length_frames: u64,
    /// `(iteration, monotonic ns at which ITER-END arrived)`.
    pub iteration_ends: Vec<(u64, u64)>,
    pub lag_events: u64,
    pub dropped_frames: u64,
    /// `(iteration, client, FNV-1a)` of the sampled iterations' frames.
    pub hashes: Vec<(u64, u64, u64)>,
    /// Client 0's sampled frames, kept as probe input.
    pub sample_blocks: Vec<Vec<u8>>,
    pub error: Option<String>,
}

/// Sampled datasets read back from a trial's `.dh5` file.
#[derive(Debug)]
pub struct Readback {
    /// Seconds inside `FileReader::open` and `read_pod`.
    pub seconds: f64,
    pub decoded_bytes: u64,
    /// Client 0's sampled blocks in (iteration, variable) order, kept as
    /// probe input.
    pub sample_blocks: Vec<Vec<f64>>,
}

/// Everything measured and checked in one trial.
#[derive(Debug)]
pub struct Trial {
    /// The XML text was in hand and the launch sequence began.
    pub start_ns: u64,
    /// `Damaris::launch` returned: data durable, file sealed.
    pub end_ns: u64,
    /// CPU seconds of this process and its reaped children over the
    /// launch; `None` when `getrusage` is unavailable.
    pub cpu_s: Option<f64>,
    pub iterations: u64,
    pub logs: Vec<ClientLog>,
    pub report: SimReport,
    /// Size of the trial's `.dh5` file, for store workloads.
    pub stored_bytes: Option<u64>,
    pub readback: Option<Readback>,
    pub subscribers: Vec<SubscriberLog>,
    /// One line per failed correctness check.
    pub failures: Vec<String>,
}

impl Trial {
    /// First client entered the simulation function, relative to the
    /// launch start: spawn, rendezvous, mmap and node build are over.
    pub fn setup_s(&self) -> f64 {
        self.first_entry_ns().saturating_sub(self.start_ns) as f64 * 1e-9
    }

    /// When the first client entered the simulation function.
    pub fn first_entry_ns(&self) -> u64 {
        let first = self.logs.iter().map(|l| l.entry_ns).min();
        first.unwrap_or(self.start_ns)
    }

    /// When the last client's `finalize` returned.
    pub fn last_exit_ns(&self) -> u64 {
        let last = self.logs.iter().map(|l| l.exit_ns).max();
        last.unwrap_or(self.end_ns)
    }

    pub fn run_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// Last `finalize` return → launch return.
    pub fn drain_s(&self) -> f64 {
        self.end_ns.saturating_sub(self.last_exit_ns()) as f64 * 1e-9
    }

    /// CPU seconds spent outside the client compute threads; `None` when
    /// either clock is unavailable.
    pub fn offload_cpu_s(&self) -> Option<f64> {
        let clients: u64 = self.logs.iter().map(|l| l.cpu_ns).sum::<Option<u64>>()?;
        Some((self.cpu_s? - clients as f64 * 1e-9).max(0.0))
    }
}

const SERVER_WAIT: Duration = Duration::from_secs(30);

/// One subscriber's life: find the server, subscribe to everything,
/// release the clients once every subscriber is in, read until BYE.
fn subscribe(
    spec: &Spec,
    dir: &Path,
    ready: &AtomicUsize,
    subscribers: usize,
    samples: &[u64],
) -> SubscriberLog {
    let mut log = SubscriberLog::default();
    let result = (|| -> Result<(), String> {
        let addr_file = Spec::addr_file(dir);
        let deadline = Instant::now() + SERVER_WAIT;
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                break text.trim().to_string();
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "no serve address in {addr_file:?} after {SERVER_WAIT:?}"
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let mut sub = Subscriber::connect(addr.as_str()).map_err(|e| format!("connect: {e}"))?;
        sub.subscribe(&[]).map_err(|e| format!("subscribe: {e}"))?;
        // A SUBSCRIBE that the server handles after iteration 0 is
        // published still yields iteration 0 as the catch-up snapshot, so
        // releasing the clients right away keeps delivery exact.
        if ready.fetch_add(1, Ordering::SeqCst) + 1 == subscribers {
            std::fs::write(Spec::go_file(dir), b"go").map_err(|e| format!("go-file: {e}"))?;
        }
        loop {
            match sub.next_event().map_err(|e| format!("stream: {e}"))? {
                SubscriberEvent::Data {
                    iteration,
                    source,
                    bytes,
                    ..
                } => {
                    log.data_frames += 1;
                    if bytes.len() != spec.app.block_bytes() {
                        log.bad_length_frames += 1;
                    }
                    if samples.contains(&iteration) {
                        log.hashes.push((iteration, source, fnv1a(&bytes)));
                        if source == 0 {
                            log.sample_blocks.push(bytes);
                        }
                    }
                }
                SubscriberEvent::IterationEnd { iteration, .. } => {
                    log.iteration_ends.push((iteration, now_ns()));
                }
                SubscriberEvent::Lag { dropped_frames, .. } => {
                    log.lag_events += 1;
                    log.dropped_frames += dropped_frames;
                }
                SubscriberEvent::Bye => return Ok(()),
            }
        }
    })();
    log.error = result.err();
    log
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("clearing {dir:?}: {e}")),
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir:?}: {e}"))
}

/// Launch `spec` once with `iterations` dumps per client and check its
/// outputs. `consumers` off runs the bare reference (no store, no serve).
///
/// `Err` means the launch itself failed; failed checks of a launch that
/// returned are listed in [`Trial::failures`].
pub fn run_trial(
    spec: &Spec,
    env: &Env,
    seed: u64,
    label: &str,
    iterations: u64,
    traced: bool,
    consumers: bool,
) -> Result<Trial, String> {
    let dir = spec.trial_dir(env, label);
    fresh_dir(&dir)?;
    let xml = spec.xml(env, &dir, consumers);
    let serve = consumers && spec.serve && iterations > 0;
    let go_file = Spec::go_file(&dir);
    let run_input = spec.input(
        env,
        seed,
        iterations,
        traced,
        serve.then_some(go_file.as_path()),
    );
    let input = run_input.encode();
    let ready = AtomicUsize::new(0);
    // Everything started from here on — the subscribers, what `launch`
    // spawns — inherits this thread's CPUs and so sits on the service
    // cores; clients move themselves to their own (`simulate`, and
    // `child_main` for a whole process-world rank).
    let _service = Pinned::to(Placement::new(env.clients).service());

    let (launch, subscribers, start_ns, end_ns, cpu_s) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..if serve { env.subscribers } else { 0 })
            .map(|_| {
                let (dir, ready, samples) = (&dir, &ready, &run_input.samples);
                scope.spawn(move || subscribe(spec, dir, ready, env.subscribers, samples))
            })
            .collect();
        let cpu_before = cpu_total_s();
        let start_ns = now_ns();
        let launch = Configuration::from_str(&xml)
            .map_err(|e| format!("workload XML: {e}"))
            .and_then(|cfg| {
                Damaris::launch(cfg, LAUNCH_PROGRAM, &input, |h, input| simulate(h, input))
                    .map_err(|e| format!("launch: {e}"))
            });
        let end_ns = now_ns();
        let cpu_s = cpu_before.zip(cpu_total_s()).map(|(a, b)| b - a);
        let subscribers: Vec<SubscriberLog> = handles
            .into_iter()
            .map(|h| h.join().expect("subscriber thread does not panic"))
            .collect();
        (launch, subscribers, start_ns, end_ns, cpu_s)
    });
    let report = launch?;

    let mut failures = Vec::new();
    let mut logs = Vec::new();
    for (client, out) in report.outputs.iter().enumerate() {
        match ClientLog::decode(out) {
            Some(log) => logs.push(log),
            None => failures.push(format!("client {client}: output does not decode")),
        }
    }
    let mut trial = Trial {
        start_ns,
        end_ns,
        cpu_s,
        iterations,
        logs,
        report,
        stored_bytes: None,
        readback: None,
        subscribers,
        failures,
    };
    check_counts(spec, env, &mut trial);
    if consumers && spec.store && iterations > 0 {
        check_store(spec, env, &dir, &mut trial);
    }
    if serve {
        check_stream(spec, env, &mut trial);
    }
    // The `.dh5` of a full trial is hundreds of MiB; nothing reads it
    // after the checks above.
    fresh_dir(&dir)?;
    Ok(trial)
}

/// Counts that must repeat exactly: iterations, blocks and bytes the
/// dedicated core consumed, nothing skipped, nobody dead, no call errors.
fn check_counts(spec: &Spec, env: &Env, t: &mut Trial) {
    let clients = env.clients as u64;
    let blocks = t.iterations * clients * spec.app.variables().len() as u64;
    let r = &t.report;
    let mut expect = |what: &str, got: u64, want: u64| {
        if got != want {
            t.failures
                .push(format!("{what}: got {got}, expected {want}"));
        }
    };
    expect("client outputs", r.outputs.len() as u64, clients);
    expect("iterations_completed", r.iterations_completed, t.iterations);
    expect("blocks_received", r.blocks_received, blocks);
    expect(
        "bytes_received",
        r.bytes_received,
        blocks * spec.app.block_bytes() as u64,
    );
    expect("skipped_client_iterations", r.skipped_client_iterations, 0);
    expect("dead ranks", r.dead_ranks.len() as u64, 0);
    for log in &t.logs {
        expect(
            &format!("client {} iterations", log.client),
            log.iterations.len() as u64,
            t.iterations,
        );
        expect(&format!("client {} call errors", log.client), log.errors, 0);
        expect(
            &format!("client {} skipped iterations", log.client),
            log.skipped_iterations,
            0,
        );
    }
}

/// The `.dh5` exists, and every sampled dataset read back through
/// `FileReader` hashes to what the client hashed at write time.
fn check_store(spec: &Spec, env: &Env, dir: &Path, t: &mut Trial) {
    let path = spec.dh5_path(dir);
    match std::fs::metadata(&path) {
        Ok(meta) => t.stored_bytes = Some(meta.len()),
        Err(e) => {
            t.failures.push(format!("stored file {path:?}: {e}"));
            return;
        }
    }
    let mut seconds = 0.0;
    let mut decoded_bytes = 0u64;
    let mut sample_blocks = Vec::new();
    let timer = Instant::now();
    let mut reader = match FileReader::open(&path) {
        Ok(r) => r,
        Err(e) => {
            t.failures.push(format!("opening {path:?}: {e}"));
            return;
        }
    };
    seconds += timer.elapsed().as_secs_f64();
    let mut expected = 0usize;
    for log in &t.logs {
        for &(iteration, var, hash) in &log.hashes {
            expected += 1;
            let name = spec.app.variables()[var as usize].0;
            let ds = format!("it{iteration:06}/{name}/rank{}", log.client);
            let timer = Instant::now();
            let values = match reader.read_pod::<f64>(&ds) {
                Ok(v) => v,
                Err(e) => {
                    t.failures.push(format!("reading {ds}: {e}"));
                    continue;
                }
            };
            seconds += timer.elapsed().as_secs_f64();
            decoded_bytes += (values.len() * 8) as u64;
            if fnv1a_f64(&values) != hash {
                t.failures
                    .push(format!("{ds}: read-back differs from what was written"));
            }
            if log.client == 0 {
                sample_blocks.push(values);
            }
        }
    }
    let want = env.clients * Spec::samples(t.iterations).len() * spec.app.variables().len();
    if expected != want {
        t.failures
            .push(format!("sampled hashes: got {expected}, expected {want}"));
    }
    t.readback = Some(Readback {
        seconds,
        decoded_bytes,
        sample_blocks,
    });
}

/// Every subscriber received every frame, whole, in full length, with the
/// sampled frames byte-identical to what the clients wrote.
fn check_stream(spec: &Spec, env: &Env, t: &mut Trial) {
    let frames = t.iterations * env.clients as u64 * spec.app.variables().len() as u64;
    let written: Vec<(u64, u64, u64)> = t
        .logs
        .iter()
        .flat_map(|l| l.hashes.iter().map(|&(it, _, h)| (it, l.client, h)))
        .collect();
    for (i, sub) in t.subscribers.iter().enumerate() {
        let mut fail = |msg: String| t.failures.push(format!("subscriber {i}: {msg}"));
        if let Some(e) = &sub.error {
            fail(e.clone());
        }
        if sub.data_frames != frames {
            fail(format!(
                "{} DATA frames, expected {frames}",
                sub.data_frames
            ));
        }
        if sub.bad_length_frames != 0 {
            fail(format!(
                "{} frames of the wrong length",
                sub.bad_length_frames
            ));
        }
        if sub.iteration_ends.len() as u64 != t.iterations {
            fail(format!(
                "{} ITER-END frames, expected {}",
                sub.iteration_ends.len(),
                t.iterations
            ));
        }
        if sub.lag_events != 0 {
            fail(format!(
                "{} LAG events ({} frames dropped)",
                sub.lag_events, sub.dropped_frames
            ));
        }
        let mut got = sub.hashes.clone();
        let mut want = written.clone();
        got.sort_unstable();
        want.sort_unstable();
        if got != want {
            fail("sampled frames differ from what was written".into());
        }
    }
}
