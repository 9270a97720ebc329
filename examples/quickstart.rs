//! Quickstart: the smallest complete Damaris session.
//!
//! One SMP "node" with 3 compute cores (threads) and 1 dedicated core.
//! Each compute core writes a temperature grid every iteration — one line
//! of instrumentation per variable — and the dedicated core's storage
//! engine (`<store/>`) compresses every block with the variable's `codec`
//! and aggregates them all into one HDF5-like file per node, entirely off
//! the simulation's critical path.
//!
//! Run with: `cargo run --release --example quickstart`

use std::sync::Arc;

use damaris::core::plugins::StatsPlugin;
use damaris::core::prelude::*;

const CONFIG: &str = r#"
<simulation name="quickstart">
  <architecture>
    <dedicated cores="1"/>
    <buffer size="8388608"/>
    <queue capacity="256"/>
    <store/>
  </architecture>
  <data>
    <parameter name="n" value="64"/>
    <layout name="grid" type="f64" dimensions="n,n"/>
    <mesh name="plane" type="rectilinear">
      <coord name="x" unit="m"/>
      <coord name="y" unit="m"/>
    </mesh>
    <variable name="temperature" layout="grid" mesh="plane" unit="K"
              codec="xor-delta8,shuffle8,rle"/>
  </data>
</simulation>"#;

fn main() {
    let out_dir = std::env::temp_dir().join("damaris-quickstart");
    let node = DamarisNode::builder()
        .config_str(CONFIG)
        .expect("valid configuration")
        .clients(3)
        .output_dir(&out_dir)
        .build()
        .expect("node starts");

    // The storage engine is started by <store/>; add a statistics plugin to
    // show multiple services sharing the dedicated core.
    let stats = Arc::new(StatsPlugin::new());
    node.register_plugin(stats.clone());

    let iterations = 5u64;
    let handles: Vec<_> = node
        .clients()
        .map(|client| {
            std::thread::spawn(move || {
                let id = client.id() as f64;
                for it in 0..iterations {
                    // A toy "simulation": a drifting warm patch.
                    let field: Vec<f64> = (0..64 * 64)
                        .map(|p| {
                            let (x, y) = ((p % 64) as f64, (p / 64) as f64);
                            300.0
                                + id
                                + ((x - 32.0 - it as f64).powi(2) + (y - 32.0).powi(2))
                                    .sqrt()
                                    .recip()
                                    .min(1.0)
                        })
                        .collect();
                    // The single line of Damaris instrumentation:
                    client.write("temperature", it, &field).expect("write");
                    client.end_iteration(it).expect("end iteration");
                }
                client.finalize().expect("finalize");
                client.stats()
            })
        })
        .collect();

    let client_stats: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("client"))
        .collect();
    let report = node.shutdown().expect("clean shutdown");

    println!(
        "quickstart: {} iterations completed",
        report.iterations_completed
    );
    println!(
        "dedicated core idle: {:.1} %",
        report.dedicated_idle_fraction * 100.0
    );
    for (i, s) in client_stats.iter().enumerate() {
        println!(
            "client {i}: {} writes, mean sim-visible cost {:.3} ms (p99 {:.3} ms)",
            s.writes,
            s.mean_write_seconds() * 1e3,
            s.p99_write_seconds() * 1e3
        );
    }
    let stored = node.storage_stats().expect("<store> declared");
    let file = out_dir.join("quickstart_node0.dh5");
    let file_bytes = std::fs::metadata(&file).expect("node file").len();
    println!(
        "wrote {:?}: {} iterations, {} datasets, {} B logical → {file_bytes} B on disk",
        file.file_name().expect("named file"),
        stored.iterations,
        stored.datasets,
        stored.raw_bytes
    );
    let last = stats
        .summary(iterations - 1, "temperature")
        .expect("stats ran");
    println!(
        "temperature @ last iteration: min {:.2} K, max {:.2} K, mean {:.2} K",
        last.min, last.max, last.mean
    );
    std::fs::remove_dir_all(&out_dir).ok();
}
