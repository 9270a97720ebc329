//! Per-layer probes of the traced run: each one times public calls of a
//! single crate, alone and single-threaded, on the workload's own blocks
//! (dump 0, the middle dump and the last one, as storage or the stream
//! delivered them) at the workload's block size.
//!
//! A probe that does not apply to a workload is not run and its metrics
//! stay absent.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use codec::{Codec, EncodeScratch, Pipeline};
use damaris_core::baseline;
use damaris_core::prelude::*;
use damaris_serve::{
    Payload, PublishBlock, ServeOptions, StreamServer, Subscriber, SubscriberEvent,
};
use damaris_shm::{EventChannel, EventConsumer, EventProducer, ShardedChannel, SharedSegment};
use h5lite::{Dtype, FileReader, FileWriter};
use mini_mpi::{Source, World};

use crate::client::{simulate, ClientLog, WARMUP_ITERATIONS};
use crate::metrics::{put, Reading, Readings, MIB};
use crate::sys::{now_ns, Pinned, Placement};
use crate::trace::Trace;
use crate::workload::{Env, Spec, World as WorldKind, CM1_CODEC};

/// `program` of the mini_mpi probe's `run_spawned` call site.
pub const MPI_PROGRAM: &str = "damaris-e2e-mpi-probe";

fn p50(samples: &[f64]) -> Option<Reading> {
    Reading::percentile_of(samples, 50.0)
}

fn as_bytes(values: &[f64]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// `Configuration::from_str` on the workload's XML.
pub fn xmlconf(m: &mut Readings, xml: &str) {
    let samples: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            let cfg = Configuration::from_str(std::hint::black_box(xml));
            let us = t.elapsed().as_secs_f64() * 1e6;
            std::hint::black_box(cfg.is_ok());
            us
        })
        .collect();
    put(m, "xmlconf.parse_us", p50(&samples));
}

/// `ProxyApp::step` with nothing else running, and its ratio to the step
/// time inside the run.
pub fn apps(m: &mut Readings, spec: &Spec, seed: u64) {
    let mut app = spec.app.build(seed, 0);
    for _ in 0..WARMUP_ITERATIONS {
        app.step();
    }
    let samples: Vec<f64> = (0..40)
        .map(|_| {
            let t = Instant::now();
            app.step();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let alone = p50(&samples);
    if let (Some(alone), Some(inside)) = (alone, m.get("apps.step_ms_p50").copied()) {
        m.insert(
            "apps.compute_inflation_x",
            Reading::exact(inside.value / alone.value),
        );
    }
    put(m, "apps.step_alone_ms_p50", alone);
}

/// `SharedSegment::allocate` + drop, `Block::write_pod`, and (thread
/// workloads) a `ShardedChannel` send with the consumer draining.
pub fn shm(m: &mut Readings, spec: &Spec, seed: u64) -> Result<(), String> {
    let bytes = spec.app.block_bytes();
    // A memcpy does not care what it copies: one block of a fresh proxy.
    let block = spec.app.build(seed, 0).fields()[0].1.to_vec();
    let block = block.as_slice();
    let seg = SharedSegment::new(64 << 20).map_err(|e| format!("shm probe segment: {e}"))?;
    let alloc: Vec<f64> = (0..2000)
        .map(|_| {
            let t = now_ns();
            let b = seg.allocate(bytes);
            drop(std::hint::black_box(b));
            (now_ns() - t) as f64
        })
        .collect();
    put(m, "shm.alloc_ns_p50", p50(&alloc));

    let mut dst = seg
        .allocate(bytes)
        .map_err(|e| format!("shm probe block: {e}"))?;
    let fill: Vec<f64> = (0..60)
        .map(|_| {
            let t = Instant::now();
            dst.write_pod(std::hint::black_box(block));
            bytes as f64 / MIB / t.elapsed().as_secs_f64()
        })
        .collect();
    put(m, "shm.fill_mib_s", p50(&fill));

    if spec.world == WorldKind::Threads {
        const BATCH: usize = 100;
        let channel: ShardedChannel<u64> = ShardedChannel::new(1, 1024);
        let mut consumer = channel.consumer(0, 1);
        let producer = channel.producer(0);
        let post = std::thread::scope(|scope| {
            let drain = scope.spawn(move || while consumer.recv().is_ok() {});
            // Batches amortise the two clock reads around ~100 ns sends.
            let post: Vec<f64> = (0..300)
                .map(|_| {
                    let t = now_ns();
                    for i in 0..BATCH as u64 {
                        let _ = producer.send(std::hint::black_box(i));
                    }
                    (now_ns() - t) as f64 / BATCH as f64
                })
                .collect();
            channel.close();
            drain.join().expect("drain thread does not panic");
            post
        });
        put(m, "shm.post_ns_p50", p50(&post));
    }
    Ok(())
}

/// Results of the codec and format replay, kept for `core.store.overhead_x`.
pub struct StoreReplay {
    /// Seconds of `encode_with` + `write_encoded_chunks` per MiB of
    /// logical data, alone on the workload's blocks.
    pub encode_append_s_per_mib: f64,
}

/// `Pipeline::encode_with` / `decode` and the `FileWriter` / `FileReader`
/// calls, on the sampled blocks.
pub fn codec_and_format(
    m: &mut Readings,
    dims: &[u64],
    blocks: &[Vec<f64>],
    dir: &Path,
) -> Result<Option<StoreReplay>, String> {
    if blocks.is_empty() {
        return Ok(None);
    }
    let h5 = |e: h5lite::H5Error| format!("format probe: {e}");
    let pipeline = Arc::new(Pipeline::from_spec(CM1_CODEC).map_err(|e| e.to_string())?);
    let raw: Vec<Vec<u8>> = blocks.iter().map(|b| as_bytes(b)).collect();
    let logical: usize = raw.iter().map(Vec::len).sum();
    let logical_mib = logical as f64 / MIB;

    // One untimed pass sizes the scratch buffers, as the engine's warm-up
    // iterations do.
    let mut scratch = EncodeScratch::new();
    for r in &raw {
        pipeline.encode_with(r, &mut scratch);
    }
    let mut encoded: Vec<Vec<u8>> = Vec::with_capacity(raw.len());
    let t = Instant::now();
    for r in &raw {
        encoded.push(pipeline.encode_with(r, &mut scratch).to_vec());
    }
    let encode_s = t.elapsed().as_secs_f64();
    let stored: usize = encoded.iter().map(Vec::len).sum();
    let t = Instant::now();
    for (e, r) in encoded.iter().zip(&raw) {
        let back = pipeline.decode(e).map_err(|e| e.to_string())?;
        if &back != r {
            return Err("codec probe: decode does not invert encode".into());
        }
    }
    // The comparison above is a memcmp per block, small beside the decode.
    let decode_s = t.elapsed().as_secs_f64();
    m.insert("codec.encode_mib_s", Reading::exact(logical_mib / encode_s));
    m.insert("codec.decode_mib_s", Reading::exact(logical_mib / decode_s));
    m.insert(
        "codec.ratio",
        Reading::exact(logical as f64 / stored as f64),
    );

    std::fs::create_dir_all(dir).map_err(|e| format!("format probe dir: {e}"))?;
    let raw_path = dir.join("probe_raw.dh5");
    let enc_path = dir.join("probe_encoded.dh5");

    // Raw append, with a data sync after every dump's worth of blocks.
    let per_dump = (raw.len() / 3).max(1);
    let mut w = FileWriter::create(&raw_path).map_err(h5)?;
    let mut append_s = 0.0;
    let mut sync_ms = Vec::new();
    for (i, r) in raw.iter().enumerate() {
        let t = Instant::now();
        w.dataset(&format!("raw/b{i}"), Dtype::F64, dims)
            .map_err(h5)?
            .write_bytes(r)
            .map_err(h5)?;
        append_s += t.elapsed().as_secs_f64();
        if (i + 1) % per_dump == 0 {
            let t = Instant::now();
            w.sync_data().map_err(h5)?;
            sync_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    let t = Instant::now();
    w.finish_synced().map_err(h5)?;
    m.insert(
        "format.finish_ms",
        Reading::exact(t.elapsed().as_secs_f64() * 1e3),
    );
    m.insert(
        "format.append_mib_s",
        Reading::exact(logical_mib / append_s),
    );
    put(m, "format.sync_ms_p50", p50(&sync_ms));

    // Append of already-encoded chunks (the engine's reassembly half), one
    // chunk per block as the default 64-row chunking gives for these shapes.
    let mut w = FileWriter::create(&enc_path).map_err(h5)?;
    let t = Instant::now();
    for (i, (e, r)) in encoded.iter().zip(&raw).enumerate() {
        w.dataset(&format!("enc/b{i}"), Dtype::F64, dims)
            .map_err(h5)?
            .with_pipeline(pipeline.clone())
            .chunked(dims[0].max(1))
            .map_err(h5)?
            .write_encoded_chunks(r.len() as u64, [e.as_slice()])
            .map_err(h5)?;
    }
    let append_encoded_s = t.elapsed().as_secs_f64();
    let stats = w.finish_synced().map_err(h5)?;
    m.insert(
        "format.append_encoded_mib_s",
        Reading::exact(logical_mib / append_encoded_s),
    );
    m.insert(
        "format.container_bytes_per_byte",
        Reading::exact(stats.file_bytes as f64 / stats.stored_bytes as f64),
    );

    let t = Instant::now();
    let mut reader = FileReader::open(&enc_path).map_err(h5)?;
    m.insert(
        "format.open_ms",
        Reading::exact(t.elapsed().as_secs_f64() * 1e3),
    );
    let t = Instant::now();
    for (i, b) in blocks.iter().enumerate() {
        let back = reader.read_pod::<f64>(&format!("enc/b{i}")).map_err(h5)?;
        if back.len() != b.len() {
            return Err("format probe: read-back length differs".into());
        }
    }
    m.insert(
        "format.read_mib_s",
        Reading::exact(logical_mib / t.elapsed().as_secs_f64()),
    );
    for p in [raw_path, enc_path] {
        std::fs::remove_file(&p).map_err(|e| format!("removing {p:?}: {e}"))?;
    }
    Ok(Some(StoreReplay {
        encode_append_s_per_mib: (encode_s + append_encoded_s) / logical_mib,
    }))
}

/// File-per-process and collective dumps of the same CM1 blocks over an
/// in-process `World::run`, every core computing and writing; and how
/// many times longer a file-per-process dump blocks a rank than the
/// workload's write phase (`write_phase_ms_p50`) blocks a client.
pub fn baselines(
    m: &mut Readings,
    env: &Env,
    spec: &Spec,
    blocks: &[Vec<f64>],
    dir: &Path,
    write_phase_ms_p50: Option<f64>,
) -> Result<(), String> {
    let vars = spec.app.variables();
    let dumps: Vec<Vec<Vec<f64>>> = blocks.chunks_exact(vars.len()).map(<[_]>::to_vec).collect();
    if dumps.is_empty() {
        return Ok(());
    }
    let dumps = Arc::new(dumps);
    let names: Vec<&'static str> = vars.iter().map(|v| v.0).collect();
    let ranks = env.clients + 1;
    let dir = dir.join("baseline");
    std::fs::create_dir_all(&dir).map_err(|e| format!("baseline dir: {e}"))?;
    let run_dir = dir.clone();
    const REPEATS: u64 = 4;
    let per_rank = World::run(ranks, move |comm| {
        let mut fpp = Vec::new();
        let mut coll = Vec::new();
        let mut files = 0usize;
        let mut errors = Vec::new();
        for rep in 0..REPEATS {
            for (d, dump) in dumps.iter().enumerate() {
                let vars: Vec<(&str, &[f64])> = names
                    .iter()
                    .zip(dump)
                    .map(|(n, v)| (*n, v.as_slice()))
                    .collect();
                let it = rep * dumps.len() as u64 + d as u64;
                comm.barrier();
                match baseline::file_per_process(comm, &run_dir, "fpp", it, &vars) {
                    Ok(r) => {
                        fpp.push(r.seconds * 1e3);
                        files = r.files_created;
                    }
                    Err(e) => errors.push(format!("file_per_process: {e}")),
                }
                comm.barrier();
                match baseline::collective(comm, &run_dir, "coll", it, &vars, 1) {
                    Ok(r) => coll.push(r.seconds * 1e3),
                    Err(e) => errors.push(format!("collective: {e}")),
                }
            }
        }
        (fpp, coll, files, errors)
    });
    std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {dir:?}: {e}"))?;
    let mut fpp = Vec::new();
    let mut coll = Vec::new();
    let mut files = 0;
    for (f, c, n, errors) in per_rank {
        if let Some(e) = errors.into_iter().next() {
            return Err(format!("baseline probe: {e}"));
        }
        fpp.extend(f);
        coll.extend(c);
        files += n;
    }
    let fpp = p50(&fpp);
    if let (Some(fpp), Some(write)) = (fpp, write_phase_ms_p50) {
        m.insert("core.io_hidden_x", Reading::exact(fpp.value / write));
    }
    put(m, "baseline.fpp_write_ms_p50", fpp);
    put(m, "baseline.collective_write_ms_p50", p50(&coll));
    m.insert("baseline.fpp_files", Reading::exact(files as f64));
    Ok(())
}

/// The rank program of the mini_mpi probe; also what a re-executed probe
/// child runs. `input[0]` selects the no-op world (0) or the ping world
/// (1), in which rank 1 posts descriptor-sized messages and round-trips
/// batch-sized ones against rank 0.
pub fn mpi_rank(comm: &mut mini_mpi::Comm, input: &[u8]) -> Vec<u8> {
    const POSTS: usize = 2000;
    const ROUNDTRIPS: usize = 1000;
    const TAG_POST: u32 = 1;
    const TAG_BATCH: u32 = 2;
    const TAG_ACK: u32 = 3;
    if input.first() != Some(&1) {
        return Vec::new();
    }
    // A write descriptor is 5 words (40 bytes); a CM1 iteration's batch is
    // a 4-word header plus 5 descriptors of 3 words.
    let descriptor = [0u64; 5];
    let batch = [0u64; 4 + 5 * 3];
    if comm.rank() == 0 {
        for _ in 0..POSTS {
            let _: Vec<u64> = comm.recv(Source::Rank(1), TAG_POST);
        }
        for _ in 0..ROUNDTRIPS {
            let _: Vec<u64> = comm.recv(Source::Rank(1), TAG_BATCH);
            comm.send(1, TAG_ACK, &[1u64]);
        }
        return Vec::new();
    }
    let post: Vec<f64> = (0..POSTS)
        .map(|_| {
            let t = now_ns();
            comm.send(0, TAG_POST, &descriptor);
            (now_ns() - t) as f64
        })
        .collect();
    let roundtrip: Vec<f64> = (0..ROUNDTRIPS)
        .map(|_| {
            let t = now_ns();
            comm.send(0, TAG_BATCH, &batch);
            let _: Vec<u64> = comm.recv(Source::Rank(0), TAG_ACK);
            (now_ns() - t) as f64 * 1e-3
        })
        .collect();
    post.iter()
        .chain(&roundtrip)
        .flat_map(|v| v.to_le_bytes())
        .collect()
}

/// 2-rank `run_spawned` worlds: a no-op one for the spawn cost, a ping
/// one for post and round-trip latency.
pub fn mpi(m: &mut Readings) -> Result<(), String> {
    let spawn_ms: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            World::run_spawned(2, MPI_PROGRAM, &[0], mpi_rank)
                .map(|_| t.elapsed().as_secs_f64() * 1e3)
                .map_err(|e| format!("mpi probe (no-op world): {e}"))
        })
        .collect::<Result<_, _>>()?;
    put(m, "mpi.spawn_ms", Reading::median_of(&spawn_ms));
    let out = World::run_spawned(2, MPI_PROGRAM, &[1], mpi_rank)
        .map_err(|e| format!("mpi probe (ping world): {e}"))?;
    let values: Vec<f64> = out[1]
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect();
    if values.len() != 3000 {
        return Err(format!("mpi probe returned {} samples", values.len()));
    }
    put(m, "mpi.post_ns_p50", p50(&values[..2000]));
    put(m, "mpi.roundtrip_us_p50", p50(&values[2000..]));
    Ok(())
}

/// `StreamServer::bind` + `publish` to one `Subscriber`: publish cost,
/// publish → frame-in-hand latency (one iteration in flight), and
/// back-to-back delivery rate.
pub fn serve(m: &mut Readings, spec: &Spec, blocks: &[Vec<u8>]) -> Result<(), String> {
    const PACED: u64 = 60;
    const BURST: u64 = 60;
    let Some(block) = blocks.first() else {
        return Ok(());
    };
    let payload = Arc::new(block.clone());
    let variable = spec.app.variables()[0].0;
    let server = StreamServer::bind(ServeOptions::default())
        .map_err(|e| format!("serve probe bind: {e}"))?;
    let addr = server.local_addr();
    let (tx, rx) = std::sync::mpsc::channel::<(u64, u64)>();
    let result = std::thread::scope(|scope| -> Result<(), String> {
        let reader = scope.spawn(move || -> Result<(), String> {
            let mut sub =
                Subscriber::connect(addr).map_err(|e| format!("serve probe connect: {e}"))?;
            sub.subscribe(&[])
                .map_err(|e| format!("serve probe subscribe: {e}"))?;
            loop {
                match sub
                    .next_event()
                    .map_err(|e| format!("serve probe stream: {e}"))?
                {
                    // The receiver is gone once the probe has given up.
                    SubscriberEvent::IterationEnd { iteration, .. }
                        if tx.send((iteration, now_ns())).is_err() =>
                    {
                        return Ok(())
                    }
                    SubscriberEvent::Bye => return Ok(()),
                    _ => {}
                }
            }
        });
        let publish = |iteration: u64| -> u64 {
            let t = now_ns();
            server.publish(
                iteration,
                vec![PublishBlock {
                    variable: variable.to_string(),
                    source: 0,
                    payload: Payload::Owned(payload.clone()),
                }],
            );
            t
        };
        let wait_for = |iteration: u64| -> Result<u64, String> {
            loop {
                let (k, at) = rx
                    .recv_timeout(std::time::Duration::from_secs(20))
                    .map_err(|_| "serve probe: subscriber went silent".to_string())?;
                if k == iteration {
                    return Ok(at);
                }
            }
        };
        let ran = (|| -> Result<(), String> {
            // Iteration 0 is the handshake: live or as the catch-up
            // snapshot, its arrival proves the SUBSCRIBE was handled.
            publish(0);
            wait_for(0)?;
            let mut publish_us = Vec::new();
            let mut latency_us = Vec::new();
            for k in 1..=PACED {
                let t = publish(k);
                publish_us.push((now_ns() - t) as f64 * 1e-3);
                latency_us.push((wait_for(k)? - t) as f64 * 1e-3);
            }
            let t = now_ns();
            for k in PACED + 1..=PACED + BURST {
                publish(k);
            }
            let done = wait_for(PACED + BURST)?;
            let mib = BURST as f64 * payload.len() as f64 / MIB;
            put(m, "serve.publish_us_p50", p50(&publish_us));
            put(m, "serve.frame_lat_us_p50", p50(&latency_us));
            m.insert(
                "serve.deliver_mib_s",
                Reading::exact(mib / ((done - t) as f64 * 1e-9)),
            );
            Ok(())
        })();
        server.shutdown(std::time::Duration::from_secs(5));
        let read = reader.join().expect("serve probe reader does not panic");
        ran.and(read)
    });
    result
}

/// Counters only an embedded node exposes (`segment_stats`,
/// `storage_stats`, the `NodeReport`): one extra pass of the workload's
/// loop over a `DamarisNode` built from the same configuration.
///
/// The pass runs without `Damaris::launch`'s digest plugin, so the
/// dedicated core is a little less busy here than in the trials.
pub fn node_counters(
    m: &mut Readings,
    spec: &Spec,
    env: &Env,
    seed: u64,
    iterations: u64,
    replay: Option<&StoreReplay>,
) -> Result<(), String> {
    let dir = spec.trial_dir(env, "node");
    std::fs::create_dir_all(&dir).map_err(|e| format!("node pass dir: {e}"))?;
    let cfg = Configuration::from_str(&spec.xml(env, &dir, true)).map_err(|e| e.to_string())?;
    let input = spec.input(env, seed, iterations, false, None).encode();
    // Same placement as a thread-world trial.
    let _service = Pinned::to(Placement::new(env.clients).service());
    let node = DamarisNode::builder()
        .config(cfg)
        .build()
        .map_err(|e| format!("node pass build: {e}"))?;
    let logs: Vec<Option<ClientLog>> = std::thread::scope(|scope| {
        let handles: Vec<_> = node
            .clients()
            .map(|client| {
                let input = &input;
                scope.spawn(move || {
                    let mut h = Damaris::threads(client);
                    ClientLog::decode(&simulate(&mut h, input))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().ok().flatten())
            .collect()
    });
    let report = node
        .shutdown()
        .map_err(|e| format!("node pass shutdown: {e}"))?;
    if logs.iter().any(Option::is_none) || report.iterations_completed != iterations {
        return Err("node pass: a client failed or iterations are missing".into());
    }
    if let Some(e) = report.plugin_errors.first() {
        return Err(format!("node pass plugin error: {e}"));
    }
    let seg = node.segment_stats();
    if seg.allocations > 0 {
        m.insert(
            "shm.class_hit_frac",
            Reading::exact(seg.class_hits as f64 / seg.allocations as f64),
        );
    }
    m.insert("shm.alloc_failures", Reading::exact(seg.failures as f64));
    m.insert("shm.peak_mib", Reading::exact(seg.peak as f64 / MIB));
    m.insert(
        "core.dedicated_idle_frac",
        Reading::exact(report.dedicated_idle_fraction),
    );
    if let Some(s) = node.storage_stats().filter(|s| s.iterations > 0) {
        let per_iter = |ns: u64| Reading::exact(ns as f64 * 1e-6 / s.iterations as f64);
        m.insert("core.store.handoff_ms_per_iter", per_iter(s.drain_ns));
        m.insert("core.store.encode_ms_per_iter", per_iter(s.encode_ns));
        m.insert("core.store.append_ms_per_iter", per_iter(s.append_ns));
        m.insert("core.store.sync_ms_per_iter", per_iter(s.sync_ns));
        m.insert(
            "core.store.worker_busy_frac",
            Reading::exact(s.worker_busy_frac()),
        );
        m.insert(
            "core.store.scratch_grows",
            Reading::exact(s.scratch_grows as f64),
        );
        m.insert("core.store.syncs", Reading::exact(s.syncs as f64));
        if let Some(replay) = replay {
            let alone_s = replay.encode_append_s_per_mib * s.raw_bytes as f64 / MIB;
            m.insert(
                "core.store.overhead_x",
                Reading::exact((s.encode_ns + s.append_ns) as f64 * 1e-9 / alone_s),
            );
        }
    }
    std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {dir:?}: {e}"))?;
    Ok(())
}

/// Run `f` as a root span named `name` and turn its error into a failure
/// line instead of aborting the other probes.
pub fn run(
    trace: &mut Trace,
    failures: &mut Vec<String>,
    name: &'static str,
    f: impl FnOnce() -> Result<(), String>,
) {
    if let Err(e) = trace.scope(name, f) {
        failures.push(e);
    }
}

/// The sampled blocks as `f64` values: read back from storage when the
/// workload stores, else decoded from the frames a subscriber kept.
pub fn sample_values(stored: Option<&[Vec<f64>]>, streamed: &[Vec<u8>]) -> Vec<Vec<f64>> {
    match stored {
        Some(blocks) => blocks.to_vec(),
        None => streamed
            .iter()
            .map(|b| {
                b.chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                    .collect()
            })
            .collect(),
    }
}
