//! Multi-host rendezvous and failure survival, end to end:
//!
//! 1. The process world bootstraps from a **seed list** over TCP instead
//!    of Unix sockets — `<world seeds="host:port,…"/>` names where the
//!    launching parent binds its registry; every rank dials it, registers
//!    its own mesh address, and receives the full peer table back.
//!    `"127.0.0.1:0"` below picks a free port, which the parent hands its
//!    ranks; on a real cluster the list names the head node.
//! 2. Every mesh link is **reliable**: it exchanges PING/PONG, sequenced
//!    frames are retained until acked and retransmitted after a
//!    reconnect, and a silent peer is declared dead after
//!    `heartbeat_timeout_ms`. Death is relayed to every survivor, so all
//!    members converge on the same view of who died.
//! 3. One client **crash-stops mid-run** (plain `std::process::exit` —
//!    no goodbye). The dedicated core closes the dead rank's staged
//!    iterations, the survivors keep writing, and the final [`SimReport`]
//!    comes back `degraded` with the dead world rank named.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example multihost_failover
//! ```

use damaris::core::prelude::*;

const XML: &str = r#"
  <simulation name="multihost-failover-example">
    <architecture>
      <dedicated cores="1"/>
      <clients count="3"/>
      <buffer size="8388608"/>
      <queue capacity="256"/>
      <world kind="processes" seeds="127.0.0.1:0" heartbeat_timeout_ms="1000"/>
    </architecture>
    <data>
      <parameter name="n" value="4096"/>
      <layout name="field" type="f64" dimensions="n"/>
      <variable name="pressure" layout="field"/>
    </data>
  </simulation>"#;

const ITERATIONS: u64 = 12;
/// 0-based client id that crash-stops (world rank VICTIM + 1).
const VICTIM: usize = 1;
/// The victim dies right before this iteration.
const DEATH_ITERATION: u64 = 4;

/// Written once against the facade; knows nothing about worlds — except
/// that one unlucky client pulls the plug on itself.
fn simulate<H: SimHandle>(h: &mut H) -> Vec<u8> {
    let n = 4096;
    let pressure_id = h.var_id("pressure").expect("declared variable");
    for it in 0..ITERATIONS {
        if h.id() == VICTIM && it == DEATH_ITERATION {
            println!("[client {}] crash-stopping before iteration {it}", h.id());
            std::process::exit(1);
        }
        let base = h.id() as f64 + it as f64 / 100.0;
        let pressure: Vec<f64> = (0..n).map(|i| base + (i as f64).sin()).collect();
        h.write_id(pressure_id, it, &pressure).expect("write");
        h.end_iteration(it).expect("end iteration");
    }
    h.finalize().expect("finalize");
    let stats = h.stats();
    println!(
        "[client {}] survived: {} writes, {:.1} MiB through shared memory",
        h.id(),
        stats.writes,
        stats.bytes_written as f64 / (1024.0 * 1024.0),
    );
    stats.writes.to_le_bytes().to_vec()
}

fn main() {
    let cfg = Configuration::from_str(XML).expect("embedded config is valid");
    let report = Damaris::launch(cfg, "multihost-failover-example", &[], |h, _| simulate(h))
        .expect("a client death must not fail the launch");
    println!(
        "[dedicated] {} iterations, {} blocks; degraded = {}, dead world ranks = {:?}",
        report.iterations_completed, report.blocks_received, report.degraded, report.dead_ranks,
    );
    assert_eq!(report.iterations_completed, ITERATIONS);
    assert!(report.degraded, "the run must be flagged degraded");
    assert_eq!(report.dead_ranks, vec![VICTIM + 1]);
    assert!(
        report.outputs[VICTIM].is_empty(),
        "the victim left no result"
    );
    for (id, out) in report.outputs.iter().enumerate() {
        if id != VICTIM {
            let writes = u64::from_le_bytes(out[..8].try_into().unwrap());
            assert_eq!(writes, ITERATIONS);
        }
    }
    println!(
        "multi-host node survived a client crash: {} of {} clients finished all \
         {} iterations, membership converged on rank {} dead",
        report.outputs.len() - 1,
        report.outputs.len(),
        ITERATIONS,
        VICTIM + 1,
    );
}
