//! End-to-end tests of the real storage pipeline (§IV.D): a live
//! `<store type="h5lite">` run must leave one decodable per-node file
//! behind, with per-variable codec compression, chunked datasets, and a
//! steady-state codec path that reuses its scratch buffers instead of
//! allocating per iteration (asserted through the engine's stats
//! counters, the counting-allocator equivalent for this subsystem).

use std::path::PathBuf;
use std::sync::Arc;

use damaris_core::prelude::*;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("damaris-storetest-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn store_config(dir: &std::path::Path) -> Configuration {
    let xml = format!(
        r#"<simulation name="stepsim">
             <architecture>
               <dedicated cores="1"/>
               <clients count="2"/>
               <buffer size="4194304"/>
               <queue capacity="256"/>
               <world kind="threads"/>
               <store type="h5lite" path="{}" chunk_rows="4"/>
             </architecture>
             <data>
               <layout name="grid" type="f64" dimensions="16,16"/>
               <variable name="u" layout="grid" codec="xor-delta8,shuffle8,rle"/>
               <variable name="v" layout="grid"/>
             </data>
           </simulation>"#,
        dir.display()
    );
    Configuration::from_str(&xml).expect("store config is valid")
}

/// A smooth CM1-like field: slowly varying in space, drifting with the
/// iteration — the data profile §IV.D compresses ~600 %.
fn field(rank: usize, iteration: u64) -> Vec<f64> {
    (0..256)
        .map(|i| 300.0 + rank as f64 + iteration as f64 * 0.01 + (i % 16) as f64 * 0.125)
        .collect()
}

fn run_store_sim(cfg: Configuration, iterations: u64) -> (SimReport, Arc<StoragePlugin>) {
    // Register our own engine handle under the same "storage" name: it
    // replaces the auto-registered plugin, so the test can read the
    // stats counters after the run.
    let storage = Arc::new(
        StoragePlugin::new(&cfg, 0, &std::env::temp_dir()).expect("storage plugin builds"),
    );
    let report = Damaris::launcher(cfg, "storage-pipeline-test")
        .input(&iterations.to_le_bytes())
        .with_plugin(storage.clone())
        .launch(|h, input| {
            let iterations = u64::from_le_bytes(input.try_into().unwrap());
            for it in 0..iterations {
                let data = field(h.id(), it);
                h.write("u", it, &data).unwrap();
                h.write("v", it, &data).unwrap();
                h.end_iteration(it).unwrap();
            }
            h.finalize().unwrap();
            Vec::new()
        })
        .expect("threads world with <store> runs");
    (report, storage)
}

#[test]
fn live_store_run_writes_one_decodable_file_per_node() {
    let dir = tmpdir("live");
    let (report, storage) = run_store_sim(store_config(&dir), 50);
    assert_eq!(report.iterations_completed, 50);

    // One real file for the whole node, all iterations, all ranks.
    let path = storage.file_path();
    assert_eq!(path, dir.join("stepsim_node0.dh5"));
    assert!(path.exists(), "per-node file written at {path:?}");

    // dh5dump's reading path decodes the chunked + codec'd datasets.
    let mut r = h5lite::FileReader::open(&path).expect("file opens");
    for rank in 0..2usize {
        for it in [0u64, 23, 49] {
            let got = r
                .read_pod::<f64>(&format!("it{it:06}/u/rank{rank}"))
                .expect("codec dataset decodes");
            assert_eq!(got, field(rank, it), "u rank{rank} it{it}");
            let got = r
                .read_pod::<f64>(&format!("it{it:06}/v/rank{rank}"))
                .expect("raw dataset reads");
            assert_eq!(got, field(rank, it), "v rank{rank} it{it}");
        }
    }
    let dump = r.dump();
    assert!(dump.contains("it000049/u/rank1  f64 [16x16]"), "{dump}");
    assert!(dump.contains("chunked[4 x 4 rows]"), "{dump}");
    assert!(dump.contains("codec=xor-delta8,shuffle8,rle"), "{dump}");
    assert_eq!(r.attr("", "simulation").unwrap().as_str(), Some("stepsim"));

    // The smooth field compresses; the raw variable keeps the file honest.
    let fs = storage.file_stats().expect("finish ran at shutdown");
    assert_eq!(fs.datasets, 50 * 2 * 2);
    assert!(
        fs.stored_bytes < fs.logical_bytes,
        "codec'd variable shrank the file: {fs:?}"
    );

    // Zero steady-state allocation, by stats: scratch growth is confined
    // to warm-up while encodes keep accumulating across all 50
    // iterations (every chunk of every `u` dataset is one encode).
    let st = storage.stats();
    assert_eq!(st.iterations, 50);
    assert_eq!(st.raw_bytes, 50 * 2 * 2 * 2048);
    assert!(st.encodes >= 50 * 2, "{st:?}");
    assert!(
        st.scratch_grows <= 4,
        "steady-state codec path must not grow scratch: {st:?}"
    );
    // Durability ran off the hot path: flushes were requested per stored
    // iteration and the background flusher fsynced at least once (a
    // backlog coalesces, so syncs ≤ requests).
    assert_eq!(st.flush_requests, 50);
    assert!(st.syncs >= 1 && st.syncs <= st.flush_requests, "{st:?}");

    std::fs::remove_dir_all(&dir).ok();
}

/// The double-buffered staging hand-off (§IV.D overlap): every stored
/// iteration goes through all four stages (hand-off on the event path;
/// encode, append and fsync behind it) and each stage is counted and
/// timed. Only counts are asserted: how much of the encode + append the
/// hand-off overlaps depends on the host (with no compute phase and one
/// iteration in flight the submit side waits out the engine), and is
/// measured by the end-to-end benchmark's `core.store.handoff_ms_per_iter`
/// against `core.store.encode_ms_per_iter`.
#[test]
fn store_event_path_pays_handoff_not_encode() {
    let dir = tmpdir("overlap");
    let (report, storage) = run_store_sim(store_config(&dir), 40);
    assert_eq!(report.iterations_completed, 40);

    let st = storage.stats();
    assert_eq!(st.iterations, 40, "{st:?}");
    assert_eq!(
        st.flush_requests, 40,
        "one flush request per iteration: {st:?}"
    );
    assert!(st.syncs >= 1 && st.syncs <= st.flush_requests, "{st:?}");
    // `u` carries a codec: at least one encode per client per iteration.
    assert!(st.encodes >= 40 * 2, "{st:?}");
    // All four pipeline stages really ran and were timed.
    assert!(st.drain_ns > 0, "hand-off was timed: {st:?}");
    assert!(st.encode_ns > 0, "encode stage was timed: {st:?}");
    assert!(st.append_ns > 0, "append stage was timed: {st:?}");
    assert!(st.sync_ns > 0, "background fsync was timed: {st:?}");
    // The encode stage reports its codec busy time.
    assert!(st.worker_busy_ns > 0, "{st:?}");
    let frac = st.worker_busy_frac();
    assert!(
        frac > 0.0 && frac <= 1.0 + f64::EPSILON,
        "busy fraction {frac} out of range: {st:?}"
    );

    // Overlap must not change what lands on disk.
    let mut r = h5lite::FileReader::open(storage.file_path()).unwrap();
    assert_eq!(r.read_pod::<f64>("it000039/u/rank1").unwrap(), field(1, 39));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn plain_launch_auto_registers_the_storage_pipeline() {
    let dir = tmpdir("auto");
    let cfg = store_config(&dir);
    let report = Damaris::launch(cfg, "unused-for-threads", &[], |h, _| {
        for it in 0..3u64 {
            h.write("u", it, &field(h.id(), it)).unwrap();
            h.write("v", it, &field(h.id(), it)).unwrap();
            h.end_iteration(it).unwrap();
        }
        h.finalize().unwrap();
        Vec::new()
    })
    .expect("launch with <store> runs");
    assert_eq!(report.iterations_completed, 3);
    let path = dir.join("stepsim_node0.dh5");
    assert!(path.exists(), "auto-registered pipeline wrote {path:?}");
    let mut r = h5lite::FileReader::open(&path).unwrap();
    assert_eq!(
        r.read_pod::<f64>("it000002/u/rank0").unwrap(),
        field(0, 2),
        "auto-registered pipeline round-trips"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_codec_spec_fails_at_config_load() {
    let xml = r#"<simulation name="bad">
         <data>
           <layout name="l" type="f64" dimensions="8"/>
           <variable name="u" layout="l" codec="rle,warp-drive"/>
         </data>
       </simulation>"#;
    let err = Configuration::from_str(xml).expect_err("unknown codec stage rejected at load");
    let msg = err.to_string();
    assert!(msg.contains("invalid codec pipeline"), "{msg}");
    assert!(msg.contains("warp-drive"), "names the bad stage: {msg}");
}
