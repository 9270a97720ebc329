//! Subscriber streaming-tier bench: the serving tier must fan completed
//! iterations out to **thousands of concurrent subscribers** while the
//! compute side never notices it exists.
//!
//! Two measurements back the claim:
//!
//! 1. **Fan-out at scale**: one [`StreamServer`] feeding 1000 concurrent
//!    TCP subscribers (drained by a small poller pool — the bench host
//!    has few cores, so per-subscriber threads would measure the
//!    scheduler, not the tier). Publishing is paced so every subscriber
//!    takes every frame: `fanout_delivered_frac` must stay 1.0, and the
//!    delivered bytes over the wall clock give the aggregate
//!    `fanout_throughput`. The publisher side must stay wait-free no
//!    matter how many sockets are attached — `publish_ns_max` is the
//!    worst single publish over the whole run.
//! 2. **Client-visible write p50, serve-on vs serve-off**: the same
//!    two-client thread-world run with and without `<serve>` (one live
//!    subscriber draining), each `write()` individually timed. The
//!    streaming work rides the dedicated core and a detached poll
//!    thread, so the medians must agree — CI gates
//!    `serve_on_write_p50_ratio <= 1.10`.
//!
//! Results go to stdout as tables and to `BENCH_serve.json` at the
//! workspace root for CI's regression guard.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use damaris_bench::print_table;
use damaris_core::prelude::*;
use damaris_serve::{
    Payload, PublishBlock, ServeOptions, StreamServer, Subscriber, SubscriberEvent,
};

/// Concurrent subscribers in the fan-out case (the tentpole number).
const SUBS: usize = 1000;
/// Poller threads draining those subscribers round-robin.
const POLLERS: usize = 4;
/// Published iterations in the fan-out case.
const FANOUT_ITERS: u64 = 20;
/// DATA frames per published iteration.
const FANOUT_VARS: usize = 2;
/// Payload bytes per DATA frame (8 KiB: small enough that 1000 copies
/// per iteration fit comfortably in socket buffers, big enough that
/// throughput measures bytes, not syscalls).
const FANOUT_BYTES: usize = 8 << 10;

/// Iterations per client before measurement starts (write-path case).
const WARMUP_ITERS: u64 = 10;
/// Measured iterations per client.
const MEASURED_ITERS: u64 = 100;
/// f64 elements per block (32 KiB).
const ELEMS: usize = 4096;
/// Variables written (and individually timed) per iteration.
const VARS: &[&str] = &["v0", "v1", "v2", "v3", "v4", "v5", "v6", "v7"];
/// Compute cores per node.
const CLIENTS: usize = 2;
/// Full end-to-end runs per case; the reported p50 is the minimum
/// across runs (robust against scheduler interference on shared CI).
const RUN_REPEATS: usize = 2;

struct FanoutSample {
    subscribers: usize,
    iterations: u64,
    throughput: f64,
    publish_ns_max: f64,
    delivered_frac: f64,
}

/// One poller's share of the subscriber pool: drain with `try_next`
/// until every subscriber saw the last ITER-END, tallying delivery.
fn drain_pool(
    subs: &mut [Subscriber],
    last_iter: u64,
    bytes_seen: &AtomicU64,
    ends_seen: &AtomicU64,
    lags_seen: &AtomicU64,
) {
    let mut done = vec![false; subs.len()];
    let mut remaining = subs.len();
    while remaining > 0 {
        let mut idle = true;
        for (sub, done) in subs.iter_mut().zip(done.iter_mut()) {
            if *done {
                continue;
            }
            loop {
                match sub.try_next().expect("stream healthy") {
                    None => break,
                    Some(SubscriberEvent::Data { bytes, .. }) => {
                        idle = false;
                        bytes_seen.fetch_add(bytes.len() as u64, Ordering::Relaxed);
                    }
                    Some(SubscriberEvent::IterationEnd { iteration, .. }) => {
                        idle = false;
                        ends_seen.fetch_add(1, Ordering::Relaxed);
                        if iteration == last_iter {
                            *done = true;
                            remaining -= 1;
                            break;
                        }
                    }
                    Some(SubscriberEvent::Lag { .. }) => {
                        lags_seen.fetch_add(1, Ordering::Relaxed);
                    }
                    Some(SubscriberEvent::Bye) => {
                        *done = true;
                        remaining -= 1;
                        break;
                    }
                }
            }
        }
        if idle {
            thread::sleep(Duration::from_micros(50));
        }
    }
}

/// Stand up a bare [`StreamServer`], attach [`SUBS`] subscribers and
/// pace [`FANOUT_ITERS`] publications through all of them.
fn run_fanout() -> FanoutSample {
    let server = StreamServer::bind(ServeOptions {
        listen: "127.0.0.1:0".into(),
        queue_frames: 64,
        simulation: "serve-fanout".into(),
        addr_file: None,
    })
    .expect("fan-out server binds");
    let addr = server.local_addr();

    eprintln!("serve_fanout: connecting {SUBS} subscribers…");
    let mut subs = Vec::with_capacity(SUBS);
    for _ in 0..SUBS {
        let mut s = Subscriber::connect(addr).expect("subscriber connects");
        s.subscribe(&[]).expect("subscribe");
        subs.push(s);
    }

    // The published payloads: one Arc per variable, cloned per iteration
    // — exactly how the plugin shares frames, refcounts instead of copies.
    let payloads: Vec<Arc<Vec<u8>>> = (0..FANOUT_VARS)
        .map(|v| Arc::new(vec![v as u8; FANOUT_BYTES]))
        .collect();

    let bytes_seen = AtomicU64::new(0);
    let ends_seen = AtomicU64::new(0);
    let lags_seen = AtomicU64::new(0);
    let per_pool = SUBS.div_ceil(POLLERS);
    let start = Barrier::new(POLLERS + 1);
    let elapsed = thread::scope(|scope| {
        let mut pools: Vec<&mut [Subscriber]> = subs.chunks_mut(per_pool).collect();
        for pool in pools.drain(..) {
            let (start, bytes_seen, ends_seen, lags_seen) =
                (&start, &bytes_seen, &ends_seen, &lags_seen);
            scope.spawn(move || {
                start.wait();
                drain_pool(pool, FANOUT_ITERS - 1, bytes_seen, ends_seen, lags_seen);
            });
        }
        start.wait();
        let t0 = Instant::now();
        for it in 0..FANOUT_ITERS {
            let blocks = payloads
                .iter()
                .enumerate()
                .map(|(v, p)| PublishBlock {
                    variable: format!("v{v}"),
                    source: 0,
                    payload: Payload::Owned(p.clone()),
                })
                .collect();
            server.publish(it, blocks);
            // Pace: don't publish ahead of the slowest subscriber, so
            // the run measures sustained no-loss fan-out, not the lag
            // policy.
            let target = SUBS as u64 * (it + 1);
            while ends_seen.load(Ordering::Relaxed) < target {
                thread::sleep(Duration::from_micros(50));
            }
        }
        t0.elapsed().as_secs_f64()
    });

    let stats = server.stats();
    assert_eq!(stats.subscribers_connected, SUBS as u64);
    server.shutdown(Duration::from_secs(5));

    let delivered = ends_seen.load(Ordering::Relaxed) as f64;
    assert_eq!(
        lags_seen.load(Ordering::Relaxed),
        0,
        "paced run must not lag"
    );
    FanoutSample {
        subscribers: SUBS,
        iterations: FANOUT_ITERS,
        throughput: bytes_seen.load(Ordering::Relaxed) as f64 / elapsed.max(1e-9),
        publish_ns_max: stats.publish_ns_max as f64,
        delivered_frac: delivered / (SUBS as u64 * FANOUT_ITERS) as f64,
    }
}

struct WriteSample {
    serve: &'static str,
    write_ns_p50: f64,
    write_ns_p90: f64,
}

fn config(serve: bool) -> String {
    let serve = if serve {
        r#"<serve listen="127.0.0.1:0" queue_frames="256"/>"#
    } else {
        ""
    };
    let vars: String = VARS
        .iter()
        .map(|v| format!(r#"<variable name="{v}" layout="grid"/>"#))
        .collect();
    format!(
        r#"<simulation name="serve-path">
             <architecture>
               <dedicated cores="1"/>
               <buffer size="{}"/>
               <queue capacity="{}" kind="sharded"/>
               {serve}
             </architecture>
             <data>
               <layout name="grid" type="f64" dimensions="{ELEMS}"/>
               {vars}
             </data>
           </simulation>"#,
        64 << 20,
        (VARS.len() + 1) * (WARMUP_ITERS + MEASURED_ITERS + 2) as usize
    )
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn field(rank: usize, iteration: u64) -> Vec<f64> {
    (0..ELEMS)
        .map(|i| 300.0 + rank as f64 + iteration as f64 * 0.01 + (i % 64) as f64 * 0.125)
        .collect()
}

/// One full two-client run; returns every measured `write()` latency in
/// nanoseconds, sorted. With `serve` on, one live subscriber drains the
/// stream for the whole run.
fn run_once(serve: bool) -> Vec<f64> {
    let node = DamarisNode::builder()
        .config_str(&config(serve))
        .expect("config")
        .clients(CLIENTS)
        .build()
        .expect("node");
    let drainer = serve.then(|| {
        let addr = node.serve_addr().expect("serve tier bound");
        thread::spawn(move || {
            let mut sub = Subscriber::connect(addr).expect("subscriber connects");
            sub.subscribe(&[]).expect("subscribe");
            let mut frames = 0u64;
            loop {
                match sub.next_event().expect("stream healthy") {
                    SubscriberEvent::Bye => break,
                    SubscriberEvent::Data { .. } => frames += 1,
                    _ => {}
                }
            }
            frames
        })
    });
    // Bound each client's lead over the dedicated core, emulating the
    // compute phase during which blocks are recycled.
    const WINDOW: u64 = 4;
    let start = Arc::new(Barrier::new(CLIENTS));
    let mut all: Vec<f64> = thread::scope(|scope| {
        let handles: Vec<_> = node
            .clients()
            .map(|client| {
                let start = start.clone();
                let node = &node;
                scope.spawn(move || {
                    let mut h = Damaris::threads(client);
                    let rank = h.id();
                    let mut samples = Vec::with_capacity(VARS.len() * MEASURED_ITERS as usize);
                    start.wait();
                    for it in 0..WARMUP_ITERS + MEASURED_ITERS {
                        let data = field(rank, it);
                        for var in VARS {
                            let t0 = Instant::now();
                            h.write(var, it, &data).expect("write");
                            if it >= WARMUP_ITERS {
                                samples.push(t0.elapsed().as_nanos() as f64);
                            }
                        }
                        h.end_iteration(it).expect("end");
                        while node.iterations_completed() + WINDOW <= it {
                            thread::yield_now();
                        }
                    }
                    h.finalize().expect("finalize");
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    // Clients returning does not mean the dedicated core has completed
    // (and published) their last iterations; shutdown waits for that.
    let report = node.shutdown().expect("shutdown");
    assert_eq!(report.iterations_completed, WARMUP_ITERS + MEASURED_ITERS);
    if serve {
        let stats = node.serve_stats().expect("serve stats");
        assert_eq!(
            stats.iterations_published,
            WARMUP_ITERS + MEASURED_ITERS,
            "every completed iteration was offered to the stream"
        );
    }
    if let Some(d) = drainer {
        let frames = d.join().expect("drainer thread");
        assert!(frames > 0, "the live subscriber saw data");
    }
    all.sort_by(|a, b| a.partial_cmp(b).unwrap());
    all
}

fn run_write_case(serve: bool) -> WriteSample {
    let (mut p50, mut p90) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..RUN_REPEATS {
        let samples = run_once(serve);
        p50 = p50.min(percentile(&samples, 0.50));
        p90 = p90.min(percentile(&samples, 0.90));
    }
    WriteSample {
        serve: if serve { "on" } else { "off" },
        write_ns_p50: p50,
        write_ns_p90: p90,
    }
}

fn main() {
    eprintln!("serve_fanout: {SUBS}-subscriber fan-out…");
    let fanout = run_fanout();
    print_table(
        "serve — iteration fan-out to concurrent subscribers",
        &[
            "subscribers",
            "iterations",
            "MB/s",
            "publish ns max",
            "delivered",
        ],
        &[vec![
            fanout.subscribers.to_string(),
            fanout.iterations.to_string(),
            format!("{:.0}", fanout.throughput / 1e6),
            format!("{:.0}", fanout.publish_ns_max),
            format!("{:.3}", fanout.delivered_frac),
        ]],
    );

    eprintln!("serve_fanout: end-to-end write p50, serve off…");
    let off = run_write_case(false);
    eprintln!("serve_fanout: end-to-end write p50, serve on…");
    let on = run_write_case(true);
    print_table(
        "serve — client-visible write() latency, serve on vs off",
        &["serve", "write ns p50", "write ns p90"],
        &[&off, &on]
            .iter()
            .map(|s| {
                vec![
                    s.serve.to_string(),
                    format!("{:.0}", s.write_ns_p50),
                    format!("{:.0}", s.write_ns_p90),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let on_off_ratio = on.write_ns_p50 / off.write_ns_p50.max(1e-9);
    println!(
        "fan-out {:.0} MB/s to {SUBS} subscribers (delivered {:.3}); \
         serve on/off write p50 ratio {on_off_ratio:.3}",
        fanout.throughput / 1e6,
        fanout.delivered_frac
    );

    // Machine-readable trajectory record at the workspace root. The
    // on/off ratio is the zero-overhead claim and must stay <= 1.10;
    // the delivered fraction is the sustained-fan-out claim (1.0 means
    // no subscriber lost a single frame at 1000-way concurrency).
    let mut json = String::from("{\n  \"benchmark\": \"serve_fanout\",\n  \"frame_bytes\": ");
    json.push_str(&FANOUT_BYTES.to_string());
    json.push_str(",\n  \"block_bytes\": ");
    json.push_str(&(ELEMS * 8).to_string());
    json.push_str(",\n  \"samples\": [\n");
    json.push_str(&format!(
        "    {{\"series\": \"fanout\", \"subscribers\": {}, \"iterations\": {}, \"fanout_throughput\": {:.1}, \"publish_ns_max\": {:.1}, \"delivered_frac\": {:.4}}},\n",
        fanout.subscribers, fanout.iterations, fanout.throughput, fanout.publish_ns_max, fanout.delivered_frac
    ));
    for s in [&off, &on] {
        json.push_str(&format!(
            "    {{\"series\": \"write\", \"serve\": \"{}\", \"write_ns_p50\": {:.1}, \"write_ns_p90\": {:.1}}},\n",
            s.serve, s.write_ns_p50, s.write_ns_p90
        ));
    }
    json.push_str(&format!(
        "    {{\"series\": \"derived\", \"serve_on_write_p50_ratio\": {on_off_ratio:.3}, \"fanout_delivered_frac\": {:.4}}}\n",
        fanout.delivered_frac
    ));
    json.push_str("  ]\n}\n");
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    match std::fs::write(out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => eprintln!("could not write {out}: {e}"),
    }
}
