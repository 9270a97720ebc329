//! End-to-end process mode: clients and the dedicated core as separate OS
//! processes, events over Unix-domain sockets, block payloads through a
//! file-backed shared-memory segment.

use std::sync::{Arc, Mutex};

use damaris_core::plugins::SignalCtx;
use damaris_core::prelude::*;
use damaris_core::process::{segment_path, ProcessClient, ProcessServer, DEDICATED_RANK};
use damaris_core::SimWriter;
use mini_mpi::World;

const XML: &str = r#"
  <simulation name="process-mode">
    <architecture>
      <dedicated cores="1"/>
      <buffer size="262144"/>
      <queue capacity="64"/>
    </architecture>
    <data>
      <layout name="row" type="f64" dimensions="64"/>
      <variable name="u" layout="row"/>
      <variable name="v" layout="row"/>
    </data>
  </simulation>"#;

const ITERATIONS: u64 = 8;

fn le_u64s(values: &[u64]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn from_le_u64s(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

#[test]
fn clients_and_dedicated_core_as_processes() {
    // 1 dedicated core + 2 clients, each a real OS process. Each client's
    // slice holds two iterations (4 blocks of 512 bytes), so from the third
    // on a write waits for an acknowledgement and reuses a released range.
    let out = World::run_spawned_test(
        3,
        "clients_and_dedicated_core_as_processes",
        &[],
        |comm, _| {
            let cfg = Configuration::from_str(&XML.replace("262144", "4096")).unwrap();
            let dir = World::spawn_dir().expect("rank runs inside a spawned world");
            if comm.rank() == DEDICATED_RANK {
                // The thread world's statistics plugin, unmodified.
                let server = ProcessServer::new(comm, cfg, &dir).unwrap();
                let stats = Arc::new(StatsPlugin::new());
                server.register_plugin(stats.clone());
                let report = server.serve(comm).unwrap();
                assert!(report.plugin_errors.is_empty(), "{report:?}");
                // Verify data integrity on the server side: iteration 3,
                // variable "u" = 2 clients × 64 values of (client_rank + 3).
                let s = stats.summary(3, "u").unwrap();
                assert_eq!(s.count, 2 * 64);
                assert_eq!(s.min, 1.0 + 3.0);
                assert_eq!(s.max, 2.0 + 3.0);
                assert_eq!(s.mean, (4.0 + 5.0) / 2.0);
                assert_eq!(stats.iterations_seen(), ITERATIONS);
                le_u64s(&[
                    report.iterations_completed,
                    report.blocks_received,
                    report.bytes_received,
                ])
            } else {
                let mut client = ProcessClient::new(comm, cfg, &dir).unwrap();
                for it in 0..ITERATIONS {
                    let data = vec![comm.rank() as f64 + it as f64; 64];
                    assert_eq!(client.write("u", it, &data).unwrap(), WriteStatus::Written);
                    // "v" takes the zero-copy path: allocate in the shared
                    // mapping, fill in place, commit a descriptor.
                    let mut w = client.alloc("v", it).unwrap();
                    assert!(!SimWriter::is_skipped(&w));
                    SimWriter::fill_pod(&mut w, &data);
                    assert_eq!(client.commit(w).unwrap(), WriteStatus::Written);
                    client.end_iteration(it).unwrap();
                }
                // Bad writes fail fast without wedging the protocol.
                assert!(matches!(
                    client.write("ghost", 0, &[0.0f64; 64]),
                    Err(DamarisError::UnknownVariable(_))
                ));
                assert!(matches!(
                    client.write("u", 0, &[0.0f64; 3]),
                    Err(DamarisError::LayoutMismatch { .. })
                ));
                let stats = client.slice_stats();
                let occupancy_zero = client.slice_occupancy();
                // Process mode records the same lock-free client stats as
                // thread mode: every copy write and zero-copy commit
                // counted with its latency and bytes.
                let cstats = client.stats();
                client.finalize().unwrap();
                le_u64s(&[
                    stats.allocations,
                    stats.class_hits,
                    (occupancy_zero >= 0.0) as u64,
                    cstats.writes,
                    cstats.skipped_writes,
                    cstats.bytes_written,
                    (cstats.max_write_seconds > 0.0) as u64,
                ])
            }
        },
    )
    .expect("process node must succeed");

    let server = from_le_u64s(&out[DEDICATED_RANK]);
    assert_eq!(server[0], ITERATIONS, "iterations completed");
    assert_eq!(server[1], ITERATIONS * 2 * 2, "2 vars × 2 clients per iter");
    assert_eq!(server[2], ITERATIONS * 2 * 2 * 512, "512 bytes per block");
    for (rank, bytes) in out.iter().enumerate().skip(1) {
        let client = from_le_u64s(bytes);
        assert_eq!(client[0], ITERATIONS * 2, "one allocation per write");
        // The slice holds four blocks, so at most four allocations carve
        // the first-fit list; every other write pops its size class.
        assert!(
            client[0] - client[1] <= 4,
            "recycled iterations must come from the class queues (rank {rank})"
        );
        assert_eq!(client[3], ITERATIONS * 2, "stats count every write");
        assert_eq!(client[4], 0, "nothing skipped");
        assert_eq!(client[5], ITERATIONS * 2 * 512, "bytes recorded");
        assert_eq!(client[6], 1, "latencies recorded (rank {rank})");
    }
}

#[test]
fn oversized_iteration_fails_fast_not_timeout() {
    // A slice that fits exactly one block cannot hold a two-block
    // iteration: no acknowledgement can ever retire the *current*
    // iteration (its END is not sent yet), so the second write must fail
    // immediately with a sizing error — not ride a 60 s allocator
    // timeout, and not deadlock on the segment condvar that nothing in
    // this process could ever signal.
    const TIGHT: &str = r#"
      <simulation name="tight">
        <architecture>
          <dedicated cores="1"/>
          <buffer size="576"/>
          <queue capacity="8"/>
        </architecture>
        <data>
          <layout name="row" type="f64" dimensions="64"/>
          <variable name="u" layout="row"/>
        </data>
      </simulation>"#;
    let out = World::run_spawned_test(2, "oversized_iteration_fails_fast_not_timeout", &[], {
        |comm, _| {
            let cfg = Configuration::from_str(TIGHT).unwrap();
            let dir = World::spawn_dir().unwrap();
            if comm.rank() == DEDICATED_RANK {
                let server = ProcessServer::new(comm, cfg, &dir).unwrap();
                let report = server.serve(comm).unwrap();
                le_u64s(&[report.blocks_received])
            } else {
                let mut client = ProcessClient::new(comm, cfg, &dir).unwrap();
                let data = vec![1.0f64; 64];
                client.write("u", 0, &data).unwrap();
                let t0 = std::time::Instant::now();
                let err = client.write("u", 0, &data).unwrap_err();
                assert!(
                    t0.elapsed() < std::time::Duration::from_secs(5),
                    "sizing error must be immediate"
                );
                assert!(
                    matches!(err, DamarisError::InvalidState(_)),
                    "expected a sizing error, got {err}"
                );
                // The session stays usable: finish the iteration with the
                // one block that did fit.
                client.end_iteration(0).unwrap();
                client.finalize().unwrap();
                le_u64s(&[1])
            }
        }
    })
    .expect("world must succeed");
    assert_eq!(from_le_u64s(&out[0]), vec![1], "server saw the one block");
}

#[test]
fn drop_policy_skips_oversized_iterations_instead_of_erroring() {
    // Same slice-too-small shape as the fail-fast test below, but under
    // <skip mode="drop-iteration"/>: the paper's §V.C.1 choice is to lose
    // data rather than stall (or error), so the second write of each
    // iteration must report Skipped, the client must keep running, and
    // the server must see the iterations as (partially) skipped.
    const TIGHT_DROP: &str = r#"
      <simulation name="tight-drop">
        <architecture>
          <dedicated cores="1"/>
          <buffer size="576"/>
          <queue capacity="8"/>
          <skip mode="drop-iteration" high-watermark="1.0"/>
        </architecture>
        <data>
          <layout name="row" type="f64" dimensions="64"/>
          <variable name="u" layout="row"/>
        </data>
      </simulation>"#;
    const ITERS: u64 = 3;
    let out = World::run_spawned_test(
        2,
        "drop_policy_skips_oversized_iterations_instead_of_erroring",
        &[],
        |comm, _| {
            let cfg = Configuration::from_str(TIGHT_DROP).unwrap();
            let dir = World::spawn_dir().unwrap();
            if comm.rank() == DEDICATED_RANK {
                let server = ProcessServer::new(comm, cfg, &dir).unwrap();
                let report = server.serve(comm).unwrap();
                le_u64s(&[
                    report.iterations_completed,
                    report.blocks_received,
                    report.skipped_client_iterations,
                ])
            } else {
                let mut client = ProcessClient::new(comm, cfg, &dir).unwrap();
                let data = vec![1.0f64; 64];
                // Iteration 0 is fully deterministic: the slice starts
                // empty, fits exactly one block (occupancy 512/576 < 1.0
                // never rejects up front), and exhaustion is hit on the
                // second write — which must *drop*, never block or error.
                assert_eq!(
                    client.write("u", 0, &data).unwrap(),
                    WriteStatus::Written,
                    "first block of iteration 0 fits"
                );
                assert_eq!(
                    client.write("u", 0, &data).unwrap(),
                    WriteStatus::Skipped,
                    "exhaustion drops the rest of iteration 0"
                );
                assert_eq!(
                    client.write("u", 0, &data).unwrap(),
                    WriteStatus::Skipped,
                    "the drop decision sticks for iteration 0"
                );
                client.end_iteration(0).unwrap();
                // Later iterations stay live but are timing-dependent:
                // drop mode never *waits* for the previous iteration's
                // ack, so the first write lands only if the ack already
                // arrived. Assert consistency, not exact statuses.
                for it in 1..ITERS {
                    for _ in 0..3 {
                        client.write("u", it, &data).unwrap();
                    }
                    client.end_iteration(it).unwrap();
                }
                let stats = client.stats();
                let skipped = client.skipped_iterations();
                client.finalize().unwrap();
                le_u64s(&[stats.writes, stats.skipped_writes, skipped])
            }
        },
    )
    .expect("drop-policy world must succeed");
    let server = from_le_u64s(&out[0]);
    let client = from_le_u64s(&out[1]);
    let (writes, skipped_writes, skipped_iters) = (client[0], client[1], client[2]);
    assert_eq!(server[0], ITERS, "every iteration still completes");
    assert_eq!(server[1], writes, "server consumed exactly what landed");
    assert_eq!(server[2], ITERS, "each iteration announced as skipped");
    assert!(
        (1..=ITERS).contains(&writes),
        "at most one block per iteration fits, iteration 0's always does ({writes})"
    );
    assert_eq!(writes + skipped_writes, ITERS * 3, "every call accounted");
    assert_eq!(skipped_iters, ITERS, "every iteration partially dropped");
}

/// Records every signal it is fired for: `(name, source, iteration)`.
struct SignalLog(Mutex<Vec<(String, usize, u64)>>);

impl Plugin for SignalLog {
    fn name(&self) -> &str {
        "viz"
    }
    fn on_signal(&self, ctx: &SignalCtx<'_>) -> Result<(), String> {
        let mut log = self.0.lock().unwrap();
        log.push((ctx.name.to_string(), ctx.source, ctx.iteration));
        Ok(())
    }
}

#[test]
fn signals_reach_the_dedicated_core_plugins() {
    const WITH_ACTION: &str = r#"
      <simulation name="signals">
        <architecture>
          <dedicated cores="1"/>
          <buffer size="262144"/>
          <queue capacity="64"/>
        </architecture>
        <data>
          <layout name="row" type="f64" dimensions="64"/>
          <variable name="u" layout="row"/>
        </data>
        <actions>
          <action name="snap" plugin="viz" event="take-snapshot"/>
        </actions>
      </simulation>"#;
    let out = World::run_spawned_test(
        2,
        "signals_reach_the_dedicated_core_plugins",
        &[],
        |comm, _| {
            let cfg = Configuration::from_str(WITH_ACTION).unwrap();
            let dir = World::spawn_dir().unwrap();
            if comm.rank() == DEDICATED_RANK {
                let server = ProcessServer::new(comm, cfg, &dir).unwrap();
                let log = Arc::new(SignalLog(Mutex::new(Vec::new())));
                server.register_plugin(log.clone());
                let report = server.serve(comm).unwrap();
                assert_eq!(
                    *log.0.lock().unwrap(),
                    vec![("take-snapshot".to_string(), 0, 2)],
                    "the declared event, from client 0 (rank 1), at iteration 2"
                );
                le_u64s(&[report.signals_delivered])
            } else {
                let mut client = ProcessClient::new(comm, cfg, &dir).unwrap();
                client.write("u", 2, &vec![4.0f64; 64]).unwrap();
                client.signal("take-snapshot", 2).unwrap();
                // Undeclared names are filtered at the client edge, exactly
                // like thread mode.
                client.signal("nobody-listens", 2).unwrap();
                client.end_iteration(2).unwrap();
                client.finalize().unwrap();
                le_u64s(&[])
            }
        },
    )
    .expect("signal world must succeed");
    assert_eq!(from_le_u64s(&out[0]), vec![1], "one declared signal only");
}

#[test]
fn segment_file_cleaned_up() {
    // The server owns the segment file and must unlink it on drop; the
    // rendezvous dir disappears with the world.
    let out = World::run_spawned_test(2, "segment_file_cleaned_up", &[], |comm, _| {
        let cfg = Configuration::from_str(XML).unwrap();
        let dir = World::spawn_dir().unwrap();
        let path = segment_path(&dir);
        if comm.rank() == DEDICATED_RANK {
            let server = ProcessServer::new(comm, cfg, &dir).unwrap();
            server.serve(comm).unwrap();
            let existed = path.exists();
            drop(server);
            le_u64s(&[u64::from(existed), u64::from(path.exists())])
        } else {
            let mut client = ProcessClient::new(comm, cfg, &dir).unwrap();
            client.write("u", 0, &vec![1.0f64; 64]).unwrap();
            client.end_iteration(0).unwrap();
            client.finalize().unwrap();
            le_u64s(&[])
        }
    })
    .expect("world must succeed");
    assert_eq!(
        from_le_u64s(&out[0]),
        vec![1, 0],
        "segment file exists while serving, unlinked after drop"
    );
}

#[test]
fn launch_input_of_256_kib_reaches_every_client() {
    // The configuration and the input travel in the registry's reply to
    // each rank; one environment string would cap them near 64 KiB.
    let xml = XML.replace(
        r#"<queue capacity="64"/>"#,
        r#"<queue capacity="64"/><clients count="2"/><world kind="processes"/>"#,
    );
    let cfg = Configuration::from_str(&xml).unwrap();
    let input: Vec<u8> = (0..256u32 << 10).map(|i| (i % 253) as u8).collect();
    let program = "launch_input_of_256_kib_reaches_every_client";
    let report = Damaris::launch_test(cfg, program, &input, |h, input| {
        h.write("u", 0, &[input.len() as f64; 64]).unwrap();
        h.end_iteration(0).unwrap();
        h.finalize().unwrap();
        input.to_vec()
    })
    .expect("a 256 KiB input must launch");
    assert_eq!(report.iterations_completed, 1);
    assert_eq!(report.outputs.len(), 2);
    for (client, out) in report.outputs.iter().enumerate() {
        assert!(out == &input, "client {client} got another input");
    }
}

// ---------------------------------------------------------------------------
// Leases: a view outlives its iteration, its range does not get reused
// ---------------------------------------------------------------------------

/// Hands clones of iteration 0's blocks to a side thread, which keeps them
/// long after the iteration completed.
struct Holder(std::sync::mpsc::Sender<Vec<damaris_shm::BlockRef>>);

impl Plugin for Holder {
    fn name(&self) -> &str {
        "holder"
    }
    fn on_iteration(&self, ctx: &damaris_core::plugins::IterationCtx<'_>) -> Result<(), String> {
        if ctx.iteration == 0 {
            let clones = ctx.blocks.iter().map(|b| b.data.clone()).collect();
            self.0.send(clones).map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

fn pattern(iteration: u64) -> Vec<f64> {
    (0..64)
        .map(|i| iteration as f64 * 100.0 + i as f64)
        .collect()
}

/// A plugin keeps iteration 0's block on a side thread while the client
/// goes round the rest of its four-block slice several times. The ranks
/// are threads of this process (`World::run`), so the test can see both
/// sides: the client is never handed the held range again — it waits
/// (`block`) or drops (`drop-iteration`) instead — the held bytes stay
/// what was written, and the range comes back only after the clones were
/// dropped, which is when iteration 0 is acknowledged.
fn held_view_is_never_overwritten(mode: &'static str) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;

    const LATER: u64 = 12;
    let xml = format!(
        r#"<simulation name="lease">
             <architecture>
               <dedicated cores="1"/>
               <buffer size="2048"/>
               <skip mode="{mode}" high-watermark="1.0"/>
             </architecture>
             <data>
               <layout name="row" type="f64" dimensions="64"/>
               <variable name="u" layout="row"/>
             </data>
           </simulation>"#
    );
    let dir = std::env::temp_dir().join(format!("damaris-lease-{mode}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let (held_tx, held_rx) = mpsc::channel::<Vec<damaris_shm::BlockRef>>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let released = Arc::new(AtomicBool::new(false));
    let side = {
        let released = released.clone();
        std::thread::spawn(move || {
            let held = held_rx.recv().expect("iteration 0 completes");
            release_rx.recv().expect("the client says when");
            assert_eq!(held.len(), 1);
            assert_eq!(
                held[0].as_pod::<f64>(),
                pattern(0),
                "the held bytes are still iteration 0's"
            );
            released.store(true, Ordering::SeqCst);
            drop(held);
        })
    };

    let rank_dir = dir.clone();
    World::run(2, move |comm| {
        let cfg = Configuration::from_str(&xml).unwrap();
        if comm.rank() == DEDICATED_RANK {
            let server = ProcessServer::new(comm, cfg, &rank_dir).unwrap();
            server.register_plugin(Arc::new(Holder(held_tx.clone())));
            let report = server.serve(comm).unwrap();
            assert!(report.plugin_errors.is_empty(), "{report:?}");
            return;
        }
        let mut client = ProcessClient::new(comm, cfg, &rank_dir).unwrap();
        // One iteration through the zero-copy path, so the block's address
        // in this mapping is known. `None` when the iteration was dropped.
        let dump = |client: &mut ProcessClient, it: u64| -> Option<usize> {
            let mut w = client.alloc("u", it).unwrap();
            let at = (!SimWriter::is_skipped(&w)).then(|| w.as_mut_slice().as_ptr() as usize);
            SimWriter::fill_pod(&mut w, &pattern(it));
            client.commit(w).unwrap();
            client.end_iteration(it).unwrap();
            at
        };
        let held_at = dump(&mut client, 0).expect("an empty slice takes iteration 0");
        let mut written = 0;
        for it in 1..=LATER {
            if let Some(at) = dump(&mut client, it) {
                assert_ne!(at, held_at, "iteration {it} was handed the held range");
                written += 1;
            } else {
                // Dropped for want of space: give an acknowledgement time.
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        assert!(!released.load(Ordering::SeqCst));
        if mode == "block" {
            assert_eq!(written, LATER, "block mode waits, it does not drop");
        } else {
            assert!(written >= 3, "three blocks fit beside the held one");
        }
        release_tx.send(()).unwrap();
        // From here on the range may come back, and only from here on.
        let mut it = LATER;
        let reused = loop {
            it += 1;
            assert!(it < LATER + 2000, "iteration 0 was never acknowledged");
            match dump(&mut client, it) {
                Some(at) if at == held_at => break released.load(Ordering::SeqCst),
                _ => std::thread::sleep(std::time::Duration::from_millis(1)),
            }
        };
        assert!(
            reused,
            "the held range was reused before its clones dropped"
        );
        client.finalize().unwrap();
        assert_eq!(client.slice_occupancy(), 0.0, "everything acknowledged");
    });
    side.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn held_view_is_never_overwritten_in_block_mode() {
    held_view_is_never_overwritten("block");
}

#[test]
fn held_view_is_never_overwritten_in_drop_mode() {
    held_view_is_never_overwritten("drop-iteration");
}

// ---------------------------------------------------------------------------
// Untrusted descriptors
// ---------------------------------------------------------------------------

/// A hand-rolled client rank speaking the wire protocol of `process.rs`
/// badly: every malformed message is rejected with an error naming the rank
/// (and, for a descriptor, the descriptor), nothing of it takes effect, and
/// the server keeps serving — it neither panics nor reads outside the
/// sender's slice.
#[test]
fn malformed_envelopes_are_rejected_by_name() {
    const TAG_MSG: u32 = 1;
    const XML: &str = r#"
      <simulation name="hostile">
        <architecture><dedicated cores="1"/><buffer size="4096"/></architecture>
        <data>
          <layout name="row" type="f64" dimensions="64"/>
          <variable name="u" layout="row"/>
        </data>
        <actions><action name="snap" plugin="viz" event="take-snapshot"/></actions>
      </simulation>"#;
    // Two clients, so rank 1 owns [0, 2048) and rank 2 [2048, 4096) of the
    // mapping. `(message, what its rejection must mention)`.
    fn malformed() -> Vec<(Vec<u64>, &'static str)> {
        let batch = |descs: &[u64]| {
            let mut m = vec![5, 0, descs.len() as u64 / 3, 0];
            m.extend_from_slice(descs);
            m
        };
        vec![
            (vec![1, 0, 0, 0, 512], "unknown message"), // retired: one write
            (vec![2, 0, 1, 0], "unknown message"),      // retired: end of iteration
            (vec![9], "unknown message"),
            (vec![], "unknown message"),
            (vec![5, 0], "unknown message"),
            (vec![5, 0, 1, 0], "unknown message"), // announces a write, carries none
            (vec![5, 0, 1, 0, 0, 0], "unknown message"), // half a descriptor
            (vec![5, 0, u64::MAX, 0, 0, 0, 512], "unknown message"),
            (batch(&[0, 4096, 512]), "offset 4096"), // outside the mapping
            (batch(&[0, 2048, 512]), "offset 2048"), // the other client's slice
            (batch(&[0, 1600, 512]), "offset 1600"), // straddles the slice's end
            (batch(&[0, u64::MAX - 8, 512]), "leaves the sender's slice"), // overflows
            (batch(&[7, 0, 512]), "variable 7"),
            (batch(&[u64::MAX, 0, 512]), "no declared variable"),
            (batch(&[0, 8, 512]), "offset 8"), // unaligned
            (batch(&[0, 0, 24]), "length 24"), // not the layout's size
            (batch(&[0, 0, 512, 0, 0, 512]), "still alive"), // one range twice
            (batch(&[0, 512, 512, 0, 4096, 512]), "offset 4096"), // good, then bad
            (vec![4, 3, 0], "unknown message"), // no such event
            (vec![4, 0], "unknown message"),
            (vec![3, 1], "unknown message"),
        ]
    }
    let dir = std::env::temp_dir().join(format!("damaris-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let rank_dir = dir.clone();
    World::run(3, move |comm| {
        if comm.rank() != DEDICATED_RANK {
            comm.barrier(); // `ProcessClient::new`'s half of the rendezvous
            if comm.rank() == 1 {
                for (message, _) in malformed() {
                    comm.send(DEDICATED_RANK, TAG_MSG, &message);
                }
                // Well-formed after all that: one block, then a signal.
                comm.send(DEDICATED_RANK, TAG_MSG, &[5u64, 0, 1, 0, 0, 512, 512]);
                comm.send(DEDICATED_RANK, TAG_MSG, &[4u64, 0, 0]);
            }
            comm.send(DEDICATED_RANK, TAG_MSG, &[3u64]);
            return;
        }
        let cfg = Configuration::from_str(XML).unwrap();
        let server = ProcessServer::new(comm, cfg, &rank_dir).unwrap();
        let mut rejections = Vec::new();
        let report = loop {
            match server.serve(comm) {
                Ok(report) => break report,
                Err(DamarisError::InvalidState(message)) => rejections.push(message),
                Err(other) => panic!("unexpected error: {other}"),
            }
        };
        let expected = malformed();
        assert_eq!(rejections.len(), expected.len(), "{rejections:#?}");
        for (rejection, (message, mention)) in rejections.iter().zip(&expected) {
            assert!(
                rejection.contains("rank 1") && rejection.contains(mention),
                "{message:?} was rejected with {rejection:?}"
            );
        }
        // Only the well-formed messages took effect.
        assert_eq!(report.blocks_received, 1);
        assert_eq!(report.bytes_received, 512);
        assert_eq!(report.signals_delivered, 1);
        assert_eq!(report.iterations_completed, 0, "rank 2 never ended it");
        assert!(report.plugin_errors.is_empty(), "{report:?}");
    });
    std::fs::remove_dir_all(&dir).ok();
}
