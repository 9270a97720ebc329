//! mini-mpi transport shoot-out: in-process thread world vs the
//! multi-process Unix-domain-socket world.
//!
//! Measures, over a 2-rank world with 64-byte payloads:
//!
//! * **post latency** — mean nanoseconds a rank spends inside `send`
//!   (the *sim-visible* cost: for the socket world this is the envelope
//!   hand-off to the rank's mesh thread, not wire time);
//! * **roundtrip latency** — mean nanoseconds for send + matched receive
//!   of the reply (the full delivery path: mesh-thread wakeup, framing,
//!   socket, demux, mailbox wakeup).
//!
//! Prints a table and records `BENCH_mpi_transport.json` at the workspace
//! root. Cross-world multipliers are recorded with an `_x` suffix — informational, never
//! gated: the socket-vs-memory gap is a property of the kernel and
//! scheduler, too machine-dependent for a fixed threshold. Absolute `_ns` metrics gate only under
//! `check_bench_regression.py --strict` (same-machine baselines).
//!
//! This binary re-executes itself for the socket world: the `run_spawned`
//! call is the first thing `main` does, so spawned children never reach
//! the thread-world measurement below it.

use mini_mpi::{Comm, Source, World};

use damaris_bench::print_table;

/// Eager posts per post-latency measurement.
const POSTS: usize = 20_000;
/// Ping-pong pairs per roundtrip measurement.
const ROUNDTRIPS: usize = 2_000;
/// Payload, in u64 words (64 bytes — a descriptor-sized message).
const PAYLOAD_WORDS: usize = 8;

/// The measured rank program: rank 0 reports `(post_ns, roundtrip_ns)`.
fn transport_probe(comm: &mut Comm) -> Vec<u8> {
    let payload = [7u64; PAYLOAD_WORDS];
    let (post_ns, roundtrip_ns);
    if comm.rank() == 0 {
        // Post latency: eager sends, receiver drains concurrently.
        let t0 = std::time::Instant::now();
        for _ in 0..POSTS {
            comm.send(1, 0, &payload);
        }
        post_ns = t0.elapsed().as_nanos() as f64 / POSTS as f64;
        // Barrier-ish handshake so the drain doesn't overlap the pings.
        let _: Vec<u64> = comm.recv(Source::Rank(1), 2);
        let t0 = std::time::Instant::now();
        for _ in 0..ROUNDTRIPS {
            comm.send(1, 1, &payload);
            let _: Vec<u64> = comm.recv(Source::Rank(1), 1);
        }
        roundtrip_ns = t0.elapsed().as_nanos() as f64 / ROUNDTRIPS as f64;
    } else {
        for _ in 0..POSTS {
            let _: Vec<u64> = comm.recv(Source::Rank(0), 0);
        }
        comm.send(0, 2, &payload);
        for _ in 0..ROUNDTRIPS {
            let _: Vec<u64> = comm.recv(Source::Rank(0), 1);
            comm.send(0, 1, &payload);
        }
        post_ns = 0.0;
        roundtrip_ns = 0.0;
    }
    post_ns
        .to_le_bytes()
        .into_iter()
        .chain(roundtrip_ns.to_le_bytes())
        .collect()
}

fn decode(bytes: &[u8]) -> (f64, f64) {
    (
        f64::from_le_bytes(bytes[..8].try_into().unwrap()),
        f64::from_le_bytes(bytes[8..16].try_into().unwrap()),
    )
}

fn main() {
    // Socket world FIRST: in a spawned child this call never returns.
    let socket_out = World::run_spawned(2, "mpi-transport-bench", &[], |comm, _| {
        transport_probe(comm)
    })
    .expect("socket world must run");
    let (uds_post, uds_rtt) = decode(&socket_out[0]);

    // Thread world, same probe.
    let thread_out = World::run(2, transport_probe);
    let (thr_post, thr_rtt) = decode(&thread_out[0]);

    let rows = vec![
        vec![
            "threads".to_string(),
            format!("{thr_post:.0} ns"),
            format!("{thr_rtt:.0} ns"),
        ],
        vec![
            "processes (UDS)".to_string(),
            format!("{uds_post:.0} ns"),
            format!("{uds_rtt:.0} ns"),
        ],
        vec![
            "processes / threads".to_string(),
            format!("{:.1}x", uds_post / thr_post.max(1.0)),
            format!("{:.1}x", uds_rtt / thr_rtt.max(1.0)),
        ],
    ];
    print_table(
        "mini-mpi transport: post / roundtrip latency (2 ranks, 64 B)",
        &["world", "post", "roundtrip"],
        &rows,
    );

    let json = format!(
        "{{\n  \"benchmark\": \"mpi_transport\",\n  \"posts\": {POSTS},\n  \"roundtrips\": {ROUNDTRIPS},\n  \"payload_bytes\": {},\n  \"samples\": [\n    {{\"world\": \"threads\", \"post_ns\": {thr_post:.1}, \"roundtrip_ns\": {thr_rtt:.1}}},\n    {{\"world\": \"processes\", \"post_ns\": {uds_post:.1}, \"roundtrip_ns\": {uds_rtt:.1}}},\n    {{\"world\": \"processes-vs-threads\", \"post_x\": {:.2}, \"roundtrip_x\": {:.2}}}\n  ]\n}}\n",
        PAYLOAD_WORDS * 8,
        uds_post / thr_post.max(1.0),
        uds_rtt / thr_rtt.max(1.0),
    );
    let out = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_mpi_transport.json"
    );
    match std::fs::write(out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => eprintln!("could not write {out}: {e}"),
    }
}
