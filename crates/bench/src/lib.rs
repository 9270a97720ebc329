//! # damaris-bench
//!
//! Bench targets that time the real middleware on one node, each printing
//! a table (run one with `cargo bench -p damaris_bench --bench <target>`).
//! The end-to-end numbers live in `benchmark/`; these time one layer each.
//!
//! | target | what it measures |
//! |---|---|
//! | `e5_compression` | §IV.D: the real codecs' ratio and speed on CM1-proxy data |
//! | `e8_backpressure` | §V.C.1: skip iterations instead of blocking, on a live node |
//! | `micro` (criterion) | shm / queue / codec / h5lite / collective latencies |
//! | `mpi_transport` | mini-mpi post and roundtrip latency, threads against sockets |
//! | `storage_path` | the `<store>` engine's write cost and throughput |
//! | `serve_fanout` | the streaming tier's fan-out to many subscribers |
//!
//! This library provides the shared table renderer plus the E5 and E8
//! experiments.

use std::sync::Arc;
use std::time::Instant;

use codec::{Codec, Pipeline};
use damaris_core::plugins::FnPlugin;
use damaris_core::prelude::*;
use sim_apps::{Cm1, Cm1Config, ProxyApp};

/// Render an aligned ASCII table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let joined: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        println!("| {} |", joined.join(" | "));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row);
    }
}

/// Format seconds compactly.
pub fn fmt_s(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0} s")
    } else if v >= 1.0 {
        format!("{v:.1} s")
    } else {
        format!("{:.0} ms", v * 1000.0)
    }
}

/// Result of the real-data compression experiment (E5).
#[derive(Debug, Clone)]
pub struct CompressionResult {
    /// Pipeline spec.
    pub pipeline: String,
    /// Achieved ratio (paper convention: 6.0 = 600 %).
    pub ratio: f64,
    /// Compression throughput (bytes/s of input).
    pub throughput: f64,
}

/// E5, real part: compress genuine CM1-proxy output with several pipelines
/// on this machine. `steps` evolves the field first (later fields are less
/// compressible than the initial state — both are reported).
pub fn e5_real_compression(steps: usize) -> Vec<CompressionResult> {
    let mut sim = Cm1::new(Cm1Config {
        nx: 96,
        ny: 96,
        nz: 32,
        ..Default::default()
    });
    for _ in 0..steps {
        sim.step();
    }
    let bytes: Vec<u8> = sim
        .fields()
        .iter()
        .flat_map(|(_, v)| v.iter().flat_map(|f| f.to_le_bytes()))
        .collect();
    [
        "rle",
        "lzss",
        "xor-delta8,rle",
        "xor-delta8,shuffle8,rle,lzss",
    ]
    .into_iter()
    .map(|spec| {
        let p = Pipeline::from_spec(spec).expect("specs are valid");
        let t0 = Instant::now();
        let packed = p.encode(&bytes);
        let dt = t0.elapsed().as_secs_f64();
        assert_eq!(p.decode(&packed).expect("roundtrip"), bytes);
        CompressionResult {
            pipeline: spec.to_string(),
            ratio: codec::compression_ratio(bytes.len(), packed.len()),
            throughput: bytes.len() as f64 / dt.max(1e-9),
        }
    })
    .collect()
}

/// Result of the live backpressure experiment (E8).
#[derive(Debug, Clone)]
pub struct BackpressureResult {
    /// Policy label.
    pub policy: &'static str,
    /// Wall seconds for the whole run.
    pub wall_seconds: f64,
    /// Iterations the simulation completed.
    pub iterations: u64,
    /// Client-iterations dropped.
    pub skipped: u64,
    /// Mean sim-visible write call duration.
    pub mean_write_s: f64,
}

/// E8: a live Damaris node with a deliberately slow analysis plugin,
/// producing data faster than the plugin drains it. `block` selects the
/// policy; the paper's choice is drop-iteration (`block = false`).
pub fn e8_live_backpressure(block: bool, iterations: u64) -> BackpressureResult {
    let mode = if block { "block" } else { "drop-iteration" };
    let xml = format!(
        r#"<simulation name="backpressure">
             <architecture>
               <dedicated cores="1"/>
               <buffer size="262144"/>
               <queue capacity="8"/>
               <skip mode="{mode}" high-watermark="0.5"/>
             </architecture>
             <data>
               <layout name="slab" type="f64" dimensions="4096"/>
               <variable name="field" layout="slab"/>
             </data>
           </simulation>"#
    );
    let node = DamarisNode::builder()
        .config_str(&xml)
        .expect("config valid")
        .clients(2)
        .build()
        .expect("node builds");
    // A plugin that takes far longer than the simulation's step time.
    node.register_plugin(Arc::new(FnPlugin::new("slow-analysis", |_ctx| {
        std::thread::sleep(std::time::Duration::from_millis(15));
        Ok(())
    })));
    // The producer loop is generic over the facade: the identical
    // function would overload a process-mode node.
    fn produce<H: SimHandle>(h: &mut H, iterations: u64) -> ClientStats {
        let data = vec![1.5f64; 4096];
        for it in 0..iterations {
            h.write("field", it, &data).expect("write path works");
            h.end_iteration(it).expect("end iteration");
            // The simulation's own step is fast.
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        h.finalize().expect("finalize");
        h.stats()
    }
    let t0 = Instant::now();
    let handles: Vec<_> = node
        .clients()
        .map(|client| {
            std::thread::spawn(move || produce(&mut Damaris::threads(client), iterations))
        })
        .collect();
    let stats: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("client ok"))
        .collect();
    let report = node.shutdown().expect("shutdown");
    let wall = t0.elapsed().as_secs_f64();
    let total_writes: u64 = stats.iter().map(|s| s.writes).sum();
    let total_write_s: f64 = stats.iter().map(|s| s.total_write_seconds).sum();
    BackpressureResult {
        policy: if block { "block" } else { "drop-iteration" },
        wall_seconds: wall,
        iterations: report.iterations_completed,
        skipped: report.skipped_client_iterations,
        mean_write_s: if total_writes == 0 {
            0.0
        } else {
            total_write_s / total_writes as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_compression_reaches_paper_regime_on_early_fields() {
        let results = e5_real_compression(0);
        let best = results.iter().map(|r| r.ratio).fold(0.0f64, f64::max);
        assert!(
            best >= 6.0,
            "initial CM1 fields must compress ≥6:1, best {best:.1}"
        );
    }

    #[test]
    fn backpressure_drop_mode_skips_and_stays_fast() {
        let drop = e8_live_backpressure(false, 40);
        assert!(drop.skipped > 0, "overload must force skips, got {drop:?}");
        assert!(
            drop.mean_write_s < 0.05,
            "writes stay cheap: {}",
            drop.mean_write_s
        );
    }

    #[test]
    fn backpressure_block_mode_loses_nothing_but_stalls() {
        let block = e8_live_backpressure(true, 20);
        assert_eq!(block.skipped, 0);
        assert_eq!(block.iterations, 20);
    }

    #[test]
    fn table_renderer_smoke() {
        print_table(
            "demo",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert_eq!(fmt_s(0.05), "50 ms");
        assert_eq!(fmt_s(2.5), "2.5 s");
        assert_eq!(fmt_s(800.0), "800 s");
    }
}
