//! Storage-pipeline bench (§IV.D): the dedicated core compresses and
//! writes one h5lite file per node in its idle time, at zero visible cost
//! to the simulation.
//!
//! Three measurements back the claim:
//!
//! 1. **Compression factor** per codec pipeline on genuine CM1-proxy
//!    fields (the paper reports ~600 %). The proxy simulation and the
//!    codecs are deterministic, so these factors are machine-independent
//!    and CI gates them as absolute bounds (`compression_factor_default
//!    >= 4.0`).
//! 2. **Codec throughput** (bytes/s of input) per pipeline — absolute,
//!    machine-dependent, gated only under `--strict`.
//! 3. **Client-visible write p50, store-on vs store-off**: the same
//!    two-client thread-world run with and without `<store
//!    type="h5lite">`, each `write()` call individually timed. The codec
//!    and file work ride the dedicated core, so the medians must agree —
//!    CI gates `storage_on_off_p50_ratio <= 1.10`.
//!
//! Results go to stdout as tables and to `BENCH_storage.json` at the
//! workspace root for CI's regression guard.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Instant;

use codec::{Codec, Pipeline};
use damaris_bench::print_table;
use damaris_core::prelude::*;
use sim_apps::{Cm1, Cm1Config, ProxyApp};

/// Codec pipelines measured on the CM1-proxy fields. The last is the
/// spec the end-to-end section (and the repo's example configs) use.
const PIPELINES: &[&str] = &[
    "rle",
    "xor-delta8,rle",
    "xor-delta8,shuffle8,rle",
    "xor-delta8,shuffle8,rle,lzss",
];
/// Pipeline whose compression factor CI gates (`>= 4.0`).
const DEFAULT_PIPELINE: &str = "xor-delta8,shuffle8,rle,lzss";
/// CM1 steps evolved before sampling the field (past the trivially
/// compressible initial state, still in the paper's smooth regime).
const CM1_STEPS: usize = 10;
/// Encode repetitions per pipeline; throughput takes the best run.
const ENCODE_REPEATS: usize = 3;

/// Iterations per client before measurement starts.
const WARMUP_ITERS: u64 = 10;
/// Measured iterations per client.
const MEASURED_ITERS: u64 = 100;
/// f64 elements per block (32 KiB — big enough that the dedicated core
/// has real codec + file work per iteration).
const ELEMS: usize = 4096;
/// Variables written (and individually timed) per iteration. Real
/// simulations publish many variables per step; the burst also amortizes
/// the dedicated-core wakeup a step's first post may pay (with the store
/// off the core parks between steps, and on a small host that wakeup
/// preempts the writer mid-call — a ~10 µs artifact the median must
/// ignore).
const VARS: &[&str] = &["v0", "v1", "v2", "v3", "v4", "v5", "v6", "v7"];
/// Compute cores per node.
const CLIENTS: usize = 2;
/// Full end-to-end runs per case; the reported p50 is the minimum
/// across runs (robust against scheduler interference on shared CI).
const RUN_REPEATS: usize = 2;

struct CodecSample {
    pipeline: &'static str,
    factor: f64,
    throughput: f64,
}

struct WriteSample {
    store: &'static str,
    write_ns_p50: f64,
    write_ns_p90: f64,
}

/// One flattened CM1-proxy snapshot, all fields concatenated — the data
/// profile §IV.D compresses ~600 %.
fn cm1_bytes(steps: usize) -> Vec<u8> {
    let mut sim = Cm1::new(Cm1Config {
        nx: 96,
        ny: 96,
        nz: 32,
        ..Default::default()
    });
    for _ in 0..steps {
        sim.step();
    }
    sim.fields()
        .iter()
        .flat_map(|(_, v)| v.iter().flat_map(|f| f.to_le_bytes()))
        .collect()
}

fn measure_codecs(bytes: &[u8]) -> Vec<CodecSample> {
    PIPELINES
        .iter()
        .map(|spec| {
            let p = Pipeline::from_spec(spec).expect("specs are valid");
            let mut packed = Vec::new();
            let mut best = f64::INFINITY;
            for _ in 0..ENCODE_REPEATS {
                let t0 = Instant::now();
                packed = p.encode(bytes);
                best = best.min(t0.elapsed().as_secs_f64());
            }
            assert_eq!(p.decode(&packed).expect("roundtrip"), bytes);
            CodecSample {
                pipeline: spec,
                factor: codec::compression_ratio(bytes.len(), packed.len()),
                throughput: bytes.len() as f64 / best.max(1e-9),
            }
        })
        .collect()
}

fn config(store_dir: Option<&Path>) -> String {
    let store = match store_dir {
        Some(d) => format!(
            r#"<store type="h5lite" path="{}" chunk_rows="64"/>"#,
            d.display()
        ),
        None => String::new(),
    };
    let vars: String = VARS
        .iter()
        .map(|v| format!(r#"<variable name="{v}" layout="grid" codec="xor-delta8,shuffle8,rle"/>"#))
        .collect();
    // Ring capacity covers every event of a client's run; the segment
    // holds the pipelining window many times over.
    format!(
        r#"<simulation name="storage-path">
             <architecture>
               <dedicated cores="1"/>
               <buffer size="{}"/>
               <queue capacity="{}" kind="sharded"/>
               {store}
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

/// A smooth field drifting with the iteration, so the store-on run's
/// codec work is realistic rather than degenerate.
fn field(rank: usize, iteration: u64) -> Vec<f64> {
    (0..ELEMS)
        .map(|i| 300.0 + rank as f64 + iteration as f64 * 0.01 + (i % 64) as f64 * 0.125)
        .collect()
}

/// One full two-client run; returns every measured `write()` latency in
/// nanoseconds, sorted.
fn run_once(store_dir: Option<&Path>) -> Vec<f64> {
    let node = DamarisNode::builder()
        .config_str(&config(store_dir))
        .expect("config")
        .clients(CLIENTS)
        .build()
        .expect("node");
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
    let report = node.shutdown().expect("shutdown");
    assert_eq!(report.iterations_completed, WARMUP_ITERS + MEASURED_ITERS);
    // Keep the store-on case honest: the pipeline really persisted data.
    if let Some(dir) = store_dir {
        let path = dir.join("storage-path_node0.dh5");
        let mut r = h5lite::FileReader::open(&path).expect("per-node file written");
        let it = WARMUP_ITERS + MEASURED_ITERS - 1;
        let got = r
            .read_pod::<f64>(&format!("it{it:06}/v0/rank1"))
            .expect("codec dataset decodes");
        assert_eq!(got, field(1, it), "stored data round-trips");
    }
    all.sort_by(|a, b| a.partial_cmp(b).unwrap());
    all
}

fn run_write_case(store_dir: Option<&Path>) -> WriteSample {
    let store = if store_dir.is_some() { "on" } else { "off" };
    let (mut p50, mut p90) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..RUN_REPEATS {
        let samples = run_once(store_dir);
        p50 = p50.min(percentile(&samples, 0.50));
        p90 = p90.min(percentile(&samples, 0.90));
    }
    WriteSample {
        store,
        write_ns_p50: p50,
        write_ns_p90: p90,
    }
}

fn main() {
    eprintln!("storage_path: codec pipelines on CM1-proxy data…");
    let bytes = cm1_bytes(CM1_STEPS);
    let codecs = measure_codecs(&bytes);
    print_table(
        "storage — codec pipelines on CM1-proxy fields",
        &["pipeline", "factor", "MB/s"],
        &codecs
            .iter()
            .map(|c| {
                vec![
                    c.pipeline.to_string(),
                    format!("{:.2}", c.factor),
                    format!("{:.0}", c.throughput / 1e6),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let dir: PathBuf =
        std::env::temp_dir().join(format!("damaris-bench-storage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench store dir");
    eprintln!("storage_path: end-to-end write p50, store off…");
    let off = run_write_case(None);
    eprintln!("storage_path: end-to-end write p50, store on…");
    let on = run_write_case(Some(&dir));
    std::fs::remove_dir_all(&dir).ok();
    print_table(
        "storage — client-visible write() latency, store on vs off",
        &["store", "write ns p50", "write ns p90"],
        &[&off, &on]
            .iter()
            .map(|s| {
                vec![
                    s.store.to_string(),
                    format!("{:.0}", s.write_ns_p50),
                    format!("{:.0}", s.write_ns_p90),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let default_factor = codecs
        .iter()
        .find(|c| c.pipeline == DEFAULT_PIPELINE)
        .expect("default pipeline measured")
        .factor;
    let on_off_ratio = on.write_ns_p50 / off.write_ns_p50.max(1e-9);
    println!(
        "default pipeline '{DEFAULT_PIPELINE}': {default_factor:.2}x; \
         store on/off write p50 ratio {on_off_ratio:.3}"
    );

    // Machine-readable trajectory record at the workspace root. The
    // derived metrics are what CI gates: the compression factor is
    // deterministic (same proxy data, same codecs, everywhere) and must
    // stay >= 4.0; the on/off ratio is the zero-overhead claim and must
    // stay <= 1.10.
    let mut json = String::from("{\n  \"benchmark\": \"storage_path\",\n  \"cm1_steps\": ");
    json.push_str(&CM1_STEPS.to_string());
    json.push_str(",\n  \"block_bytes\": ");
    json.push_str(&(ELEMS * 8).to_string());
    json.push_str(",\n  \"samples\": [\n");
    for c in &codecs {
        json.push_str(&format!(
            "    {{\"series\": \"codec\", \"pipeline\": \"{}\", \"compression_factor\": {:.3}, \"encode_throughput\": {:.1}}},\n",
            c.pipeline, c.factor, c.throughput
        ));
    }
    for s in [&off, &on] {
        json.push_str(&format!(
            "    {{\"series\": \"write\", \"store\": \"{}\", \"write_ns_p50\": {:.1}, \"write_ns_p90\": {:.1}}},\n",
            s.store, s.write_ns_p50, s.write_ns_p90
        ));
    }
    json.push_str(&format!(
        "    {{\"series\": \"derived\", \"compression_factor_default\": {default_factor:.3}, \"storage_on_off_p50_ratio\": {on_off_ratio:.3}, \"store_on_write_ns_p90\": {:.1}}}\n",
        on.write_ns_p90
    ));
    json.push_str("  ]\n}\n");
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_storage.json");
    match std::fs::write(out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => eprintln!("could not write {out}: {e}"),
    }
}
