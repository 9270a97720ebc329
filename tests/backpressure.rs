//! Integration: the §V.C.1 backpressure behaviour on the real middleware —
//! a slow plugin, a small segment, and the two policies.

use std::sync::Arc;
use std::time::{Duration, Instant};

use damaris::core::plugins::FnPlugin;
use damaris::core::prelude::*;

fn config(mode: &str) -> String {
    format!(
        r#"<simulation name="pressure">
             <architecture>
               <dedicated cores="1"/>
               <buffer size="131072"/>
               <queue capacity="8"/>
               <skip mode="{mode}" high-watermark="0.5"/>
             </architecture>
             <data>
               <layout name="slab" type="f64" dimensions="2048"/>
               <variable name="field" layout="slab"/>
             </data>
           </simulation>"#
    )
}

/// Returns the wall time, the slowest single client write in seconds and
/// the node's report.
fn run(
    mode: &str,
    iterations: u64,
    plugin_ms: u64,
    compute_ms: u64,
) -> (f64, f64, damaris::core::node::NodeReport) {
    let node = DamarisNode::builder()
        .config_str(&config(mode))
        .expect("config")
        .clients(2)
        .build()
        .expect("node");
    node.register_plugin(Arc::new(FnPlugin::new("slow", move |_| {
        std::thread::sleep(Duration::from_millis(plugin_ms));
        Ok(())
    })));
    // Real simulations advance in lockstep (the MPI timestep synchronizes
    // ranks), so model that with a per-iteration barrier. Without it,
    // free-running clients can skew further apart than the segment holds
    // (8 slabs here); in block mode the leader then owns every slot with
    // blocks of iterations that cannot complete without the laggard — a
    // genuine deadlock until the 60 s allocation timeout, seen on
    // single-core runners.
    let barrier = Arc::new(std::sync::Barrier::new(2));
    let t0 = Instant::now();
    let handles: Vec<_> = node
        .clients()
        .map(|client| {
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let data = vec![2.5f64; 2048];
                for it in 0..iterations {
                    // Stand-in for the compute phase between dumps.
                    if compute_ms > 0 {
                        std::thread::sleep(Duration::from_millis(compute_ms));
                    }
                    barrier.wait();
                    client.write("field", it, &data).expect("write");
                    client.end_iteration(it).expect("end");
                }
                client.finalize().expect("finalize");
                client.stats().max_write_seconds
            })
        })
        .collect();
    let worst_write = handles
        .into_iter()
        .map(|h| h.join().expect("client"))
        .fold(0.0, f64::max);
    let report = node.shutdown().expect("shutdown");
    (t0.elapsed().as_secs_f64(), worst_write, report)
}

#[test]
fn drop_mode_skips_under_pressure_and_keeps_sim_fast() {
    let (wall, _, report) = run("drop-iteration", 60, 10, 0);
    assert!(
        report.skipped_client_iterations > 0,
        "slow plugin must force skips: {report:?}"
    );
    // All iterations still complete from the sim's point of view
    // (every end_iteration is acknowledged, data may be partial).
    assert_eq!(report.iterations_completed, 60);
    // The simulation never waits for the plugin: it finishes long before
    // 60 × 10 ms of serialized analysis would take.
    assert!(
        wall < 1.2,
        "drop mode must not serialize on the plugin: {wall:.2}s"
    );
}

#[test]
fn slow_plugin_leaves_client_writes_at_memcpy_cost() {
    // Analysis on the dedicated core never reaches the write path: a
    // 16 KiB slab costs a memcpy (microseconds) while the plugin sleeps
    // 10 ms per iteration. Drop mode never makes a write wait for space,
    // so every recorded write is allocation + copy + publish. The bound
    // allows scheduler noise; a write near the plugin's cost would mean
    // the write path is coupled to it.
    let (_, worst_write, report) = run("drop-iteration", 20, 10, 0);
    assert_eq!(report.iterations_completed, 20);
    assert!(
        worst_write > 0.0,
        "at least one write must be admitted: {report:?}"
    );
    assert!(
        worst_write < 0.02,
        "writes must stay memcpy-fast beside a slow plugin, worst {worst_write:.4}s"
    );
}

#[test]
fn block_mode_loses_nothing() {
    let (_, _, report) = run("block", 30, 5, 0);
    assert_eq!(report.skipped_client_iterations, 0);
    assert_eq!(report.iterations_completed, 30);
}

#[test]
fn quiet_runs_never_skip_in_drop_mode() {
    // Fast plugin AND a real compute phase between dumps: the dedicated
    // core keeps up, so drop mode behaves exactly like block mode. (With
    // zero compute time an infinitely fast producer must skip — that case
    // is covered above.)
    let (_, _, report) = run("drop-iteration", 20, 0, 2);
    assert_eq!(report.skipped_client_iterations, 0);
    assert_eq!(report.iterations_completed, 20);
}

#[test]
fn occupancy_returns_to_zero_after_drain() {
    let node = DamarisNode::builder()
        .config_str(&config("drop-iteration"))
        .expect("config")
        .clients(1)
        .build()
        .expect("node");
    let client = node.client(0).expect("client");
    let data = vec![1.0f64; 2048];
    for it in 0..5 {
        client.write("field", it, &data).expect("write");
        client.end_iteration(it).expect("end");
    }
    client.finalize().expect("finalize");
    node.shutdown().expect("shutdown");
    assert_eq!(node.segment_occupancy(), 0.0, "all blocks reclaimed");
    assert_eq!(node.queue_pressure(), 0.0, "queue drained");
}
