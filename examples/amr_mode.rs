//! AMR mode: variable-size blocks through dynamic layouts.
//!
//! Real in-situ pipelines rarely emit fixed-size blocks: adaptive mesh
//! refinement changes each rank's patch sizes every few steps, particle
//! counts drift per iteration, and data-reduction output shrinks with the
//! field's entropy. This example runs a toy refinement workload — every
//! rank's block size varies per iteration, no two ranks agree — over a
//! `dimensions="dynamic"` layout; the undeclared sizes allocate from the
//! segment's first-fit coalescing list.
//!
//! Run with: `cargo run --release --example amr_mode`

use damaris::core::prelude::*;

const CONFIG: &str = r#"
<simulation name="amr-mode">
  <architecture>
    <dedicated cores="1"/>
    <clients count="4"/>
    <buffer size="8388608"/>
    <queue capacity="512"/>
  </architecture>
  <data>
    <!-- A refinement patch: extents arrive with every write; one block
         never exceeds max_size bytes (65536 / 8 = 8192 f64 cells). -->
    <layout name="patch" type="f64" dimensions="dynamic" max_size="65536"/>
    <variable name="density" layout="patch"/>
    <variable name="energy" layout="patch"/>
  </data>
</simulation>"#;

/// Deterministic per-rank refinement level: a few smooth cycles so block
/// sizes grow and shrink like a patch being refined and coarsened.
fn cells_this_step(rank: usize, iteration: u64) -> usize {
    let level = (iteration as usize + rank) % 4; // refinement level 0..3
    let base = 64 << (2 * level); // 64, 256, 1024, 4096 cells
    base + 17 * rank + iteration as usize % 13 // never a round number
}

fn main() {
    let cfg = Configuration::from_str(CONFIG).expect("valid configuration");
    let iterations = 50u64;

    let report = Damaris::launch(cfg, "amr_mode", &[], |h, _| {
        let rank = h.id();
        for it in 0..iterations {
            // Copy path: the density patch of this step's size.
            let cells = cells_this_step(rank, it);
            let density: Vec<f64> = (0..cells).map(|c| (c + rank) as f64 * 0.5).collect();
            h.write("density", it, &density).expect("write density");

            // Zero-copy path: compute energy straight into shared memory
            // (a different size again — refinement is per-variable too).
            let cells = cells_this_step(rank, it.wrapping_add(2));
            let mut w = h
                .alloc_sized("energy", it, cells * 8)
                .expect("alloc energy");
            for (c, cell) in w.as_mut_slice().chunks_exact_mut(8).enumerate() {
                cell.copy_from_slice(&((c * rank) as f64).to_le_bytes());
            }
            h.commit(w).expect("commit energy");

            h.end_iteration(it).expect("end iteration");
        }
        h.finalize().expect("finalize");
        let s = h.stats();
        let mut out = s.writes.to_le_bytes().to_vec();
        out.extend(s.bytes_written.to_le_bytes());
        out.extend(s.p50_write_seconds().to_le_bytes());
        out
    })
    .expect("amr session");

    println!(
        "amr_mode: {} iterations, {} blocks ({} bytes) consumed by the dedicated core",
        report.iterations_completed, report.blocks_received, report.bytes_received
    );
    for (rank, out) in report.outputs.iter().enumerate() {
        let writes = u64::from_le_bytes(out[..8].try_into().expect("writes"));
        let bytes = u64::from_le_bytes(out[8..16].try_into().expect("bytes"));
        let p50 = f64::from_le_bytes(out[16..24].try_into().expect("p50"));
        println!(
            "rank {rank}: {writes} variable-size writes, {bytes} bytes, p50 {:.2} µs",
            p50 * 1e6
        );
    }
    assert_eq!(report.iterations_completed, iterations);
    assert_eq!(report.blocks_received, iterations * 4 * 2);
    println!("every block size differed per (rank, iteration) — no fixed layout anywhere");
}
