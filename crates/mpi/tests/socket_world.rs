//! Multi-process socket-world integration tests.
//!
//! Every test here re-executes this test binary once per rank
//! ([`World::run_spawned_test`]): the spawned child runs the *same* test
//! function, whose `run_spawned_test` call recognises the rank environment
//! and becomes that rank. The `program` string must therefore equal the
//! test function's name.

use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mini_mpi::{Comm, Source, SpawnError, SpawnOptions, World};
use proptest::prelude::*;

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
fn ring_over_sockets() {
    let out = World::run_spawned_test(3, "ring_over_sockets", &[], |comm, _| {
        assert!(World::is_spawned_child(), "rank must see the child env");
        assert!(
            World::spawn_dir().is_some_and(|d| d.is_dir()),
            "rendezvous dir must exist in the child"
        );
        let next = (comm.rank() + 1) % comm.size();
        let prev = (comm.rank() + comm.size() - 1) % comm.size();
        comm.send(next, 7, &[comm.rank() as u64]);
        let got = comm.recv::<u64>(Source::Rank(prev), 7)[0];
        le_u64s(&[got])
    })
    .expect("spawned ring must succeed");
    assert_eq!(out.len(), 3);
    assert_eq!(from_le_u64s(&out[0]), vec![2]);
    assert_eq!(from_le_u64s(&out[1]), vec![0]);
    assert_eq!(from_le_u64s(&out[2]), vec![1]);
}

#[test]
fn collectives_and_split_over_sockets() {
    let out = World::run_spawned_test(4, "collectives_and_split_over_sockets", &[], |comm, _| {
        // The Damaris pattern: split the world into clients vs dedicated
        // cores, then exercise collectives in both the parent and child
        // communicators.
        let sum = comm.allreduce(&[comm.rank() as u64 + 1], |a, b| *a += b)[0];
        let root_data = comm.bcast(2, &[comm.rank() as u64 * 10]);
        let sub = comm
            .split(Some((comm.rank() % 2) as u64), 0)
            .expect("all ranks participate");
        let sub_sum = sub.allreduce(&[comm.rank() as u64], |a, b| *a += b)[0];
        let dup = comm.dup();
        if comm.rank() == 0 {
            dup.send(1, 3, &[99u64]);
            comm.send(1, 3, &[11u64]);
        }
        let dup_probe = if comm.rank() == 1 {
            // Context isolation across processes: the dup message must not
            // satisfy a receive on the parent communicator.
            let parent = comm.recv::<u64>(Source::Rank(0), 3)[0];
            let dupped = dup.recv::<u64>(Source::Rank(0), 3)[0];
            parent * 1000 + dupped
        } else {
            0
        };
        le_u64s(&[sum, root_data[0], sub.size() as u64, sub_sum, dup_probe])
    })
    .expect("spawned collectives must succeed");
    for (rank, bytes) in out.iter().enumerate() {
        let vals = from_le_u64s(bytes);
        assert_eq!(vals[0], 10, "allreduce sum");
        assert_eq!(vals[1], 20, "bcast from rank 2");
        assert_eq!(vals[2], 2, "even/odd split halves a 4-rank world");
        let expected_sub = if rank % 2 == 0 { 2 } else { 4 };
        assert_eq!(vals[3], expected_sub, "split-communicator allreduce");
        if rank == 1 {
            assert_eq!(vals[4], 11 * 1000 + 99, "dup context isolation");
        }
    }
}

/// The launch input travels in the registry's reply, not in the
/// environment, where Linux caps each string at 128 KiB.
#[test]
fn mebibyte_input_round_trips() {
    let input: Vec<u8> = (0..1u32 << 20).map(|i| (i % 251) as u8).collect();
    let out = World::run_spawned_test(2, "mebibyte_input_round_trips", &input, |_, input| {
        input.to_vec()
    })
    .expect("a 1 MiB input must launch");
    assert_eq!(out.len(), 2);
    for (rank, echoed) in out.iter().enumerate() {
        assert!(echoed == &input, "rank {rank} got another input back");
    }
}

/// The `mini-mpi*` threads listed under `task_dir`. Thread-world rank
/// threads (`mini-mpi-rank-*`) are left out: other tests in this binary
/// run thread worlds in the same parent process meanwhile.
fn mini_mpi_threads(task_dir: &str) -> u64 {
    let mut threads = 0;
    for task in std::fs::read_dir(task_dir).expect("procfs") {
        let comm_path = task.expect("task entry").path().join("comm");
        // A thread that exits while we look has no comm to read.
        let name = std::fs::read_to_string(comm_path).unwrap_or_default();
        threads += u64::from(name.starts_with("mini-mpi") && !name.starts_with("mini-mpi-rank-"));
    }
    threads
}

/// Each rank runs exactly one mesh thread, whatever the world size: it
/// owns every peer link, so no rank pays a reader and a writer per peer.
/// The launching parent supervises from its calling thread and starts
/// none.
#[test]
fn one_mesh_thread_per_rank() {
    let out = World::run_spawned_test(4, "one_mesh_thread_per_rank", &[], |comm, _| {
        // Once every link has carried a frame, the mesh is up.
        comm.barrier();
        let mesh_threads = mini_mpi_threads("/proc/self/task");
        let parent = std::os::unix::process::parent_id();
        let parent_threads = mini_mpi_threads(&format!("/proc/{parent}/task"));
        comm.barrier();
        le_u64s(&[mesh_threads, parent_threads])
    })
    .expect("spawned world must succeed");
    for (rank, bytes) in out.iter().enumerate() {
        let [mesh, parent] = from_le_u64s(bytes)[..] else {
            panic!("rank {rank} reported {bytes:?}");
        };
        assert_eq!(mesh, 1, "rank {rank}'s mini-mpi threads");
        assert_eq!(
            parent, 0,
            "the parent's mini-mpi threads, seen by rank {rank}"
        );
    }
}

/// A rank that dies before the peer table went out fails the launch at
/// once: the parent kills the others instead of leaving them to wait for
/// a peer that will never register.
#[test]
fn rank_exit_before_rendezvous_fails_the_launch_at_once() {
    let kill_rank_1: Arc<dyn Fn(usize, u32) + Send + Sync> = Arc::new(|rank, pid| {
        if rank == 1 {
            // Delivered before rank 2 is even spawned.
            let pid = pid.to_string();
            let killed = Command::new("kill").args(["-s", "KILL", &pid]).status();
            assert!(killed.is_ok_and(|s| s.success()), "kill rank 1");
        }
    });
    let opts = SpawnOptions {
        harness_args: true,
        timeout: Duration::from_secs(60),
        on_spawn: Some(kill_rank_1),
        ..SpawnOptions::default()
    };
    let started = Instant::now();
    let outcome = World::run_spawned_outcome(
        3,
        "rank_exit_before_rendezvous_fails_the_launch_at_once",
        &[],
        opts,
        |comm, _| {
            comm.barrier();
            le_u64s(&[comm.rank() as u64])
        },
    )
    .expect("a failed launch is an outcome, not an orchestration error");
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(5),
        "the launch failed after {took:?}"
    );
    assert_eq!(
        outcome.failed_ranks(),
        vec![0, 1, 2],
        "{:?}",
        outcome.failures
    );
    assert!(
        outcome.failures[0].contains("rank 1 exited before the rendezvous"),
        "{:?}",
        outcome.failures
    );
}

/// The deterministic rank program used by the transport-equivalence
/// property test: a mix of p2p (in-order and out-of-order tags),
/// collectives, split and dup, all parameterized by the input bytes.
/// Returns the observed values plus the rank's full traffic counters.
fn equivalence_program(comm: &mut Comm, input: &[u8]) -> Vec<u8> {
    let rank = comm.rank();
    let size = comm.size();
    let mut acc: Vec<u64> = Vec::new();

    // Phase 1: ring exchange with an input-derived tag.
    let tag = u32::from(*input.first().unwrap_or(&0));
    let next = (rank + 1) % size;
    let prev = (rank + size - 1) % size;
    comm.send(
        next,
        tag,
        &[(rank as u64) << 8 | u64::from(input.len() as u8)],
    );
    acc.extend(comm.recv::<u64>(Source::Rank(prev), tag));

    // Phase 2: out-of-order tags — everyone (rank 0 included) sends rank 0
    // two messages; rank 0 drains the higher tag first. Sends are eager,
    // so posting before receiving cannot deadlock.
    comm.send(0, 1_000_000, &[rank as u64 + 7]);
    comm.send(0, 1_000_001, &[rank as u64 + 70]);
    if rank == 0 {
        let mut any_batch = Vec::new();
        for _ in 0..size {
            any_batch.extend(comm.recv::<u64>(Source::Any, 1_000_001));
        }
        any_batch.sort_unstable(); // any-source arrival order is scheduling-dependent
        acc.extend(any_batch);
        for r in 0..size {
            acc.extend(comm.recv::<u64>(Source::Rank(r), 1_000_000));
        }
    }

    // Phase 3: input-wide allreduce.
    let contrib: Vec<u64> = input.iter().map(|&b| u64::from(b) + rank as u64).collect();
    acc.extend(comm.allreduce(&contrib, |a, b| *a += b));

    // Phase 4: split by input parity, reduce within the sub-communicator.
    let color = input.iter().map(|&b| u64::from(b)).sum::<u64>() % 2;
    if let Some(sub) = comm.split(Some(color + rank as u64 % 2), rank as i64) {
        acc.push(sub.size() as u64);
        acc.extend(sub.allreduce(&[rank as u64 + 1], |a, b| *a += b));
    }

    // Phase 5: bcast from an input-selected root through a dup.
    let dup = comm.dup();
    let root = input.get(1).map_or(0, |&b| b as usize % size);
    acc.extend(dup.bcast(
        root,
        &[root as u64 * 1000 + u64::from(input.first().copied().unwrap_or(0))],
    ));

    let t = comm.traffic();
    acc.extend([
        t.bytes_sent,
        t.bytes_received,
        t.messages_sent,
        t.messages_received,
    ]);
    le_u64s(&acc)
}

proptest! {
    // Property: the same rank program produces byte-identical results —
    // including Traffic counters — on the in-process and socket worlds,
    // for arbitrary world sizes and input payloads. (Spawning real
    // processes is expensive, so the case count is deliberately small;
    // every case still covers p2p, out-of-order tags, collectives, split
    // and dup.)
    #![proptest_config(ProptestConfig::with_cases(5))]
    #[test]
    fn equivalence_threads_vs_sockets(
        size in 1usize..=3,
        input in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        // Socket world FIRST: a spawned child becomes its rank inside this
        // call and exits, so it never wastes work re-running the thread
        // world for proptest cases that precede its own.
        let sockets = World::run_spawned_test(
            size,
            "equivalence_threads_vs_sockets",
            &input,
            equivalence_program,
        )
        .unwrap_or_else(|e| panic!("socket world failed for size {size}, input {input:?}: {e}"));
        let thread_input = input.clone();
        let threads: Vec<Vec<u8>> = World::run(size, move |comm| {
            equivalence_program(comm, &thread_input)
        });
        prop_assert_eq!(
            threads, sockets,
            "transports diverged for size {}, input {:?}", size, input
        );
    }
}

#[test]
fn rank_death_fails_survivors_without_deadlock() {
    let started = std::time::Instant::now();
    let opts = SpawnOptions {
        harness_args: true,
        timeout: std::time::Duration::from_secs(60),
        ..SpawnOptions::default()
    };
    let err = World::run_spawned_with(
        3,
        "rank_death_fails_survivors_without_deadlock",
        &[],
        opts,
        |comm, _| {
            if comm.rank() == 1 {
                // Die abruptly: no result, no goodbye. The mesh is already
                // established (rendezvous happens before the rank program),
                // so the survivors see an EOF without goodbye and, when
                // no reconnect follows, declare rank 1 dead.
                std::process::exit(7);
            }
            // Survivors wait for a message the dead rank can never send.
            // This must fail with a "rank 1 died" error, not deadlock.
            let _ = comm.recv::<u64>(Source::Rank(1), 0);
            le_u64s(&[comm.rank() as u64])
        },
    )
    .expect_err("a dead rank must fail the world");
    assert!(
        started.elapsed() < std::time::Duration::from_secs(60),
        "rank death must not run into the timeout (deadlock symptom)"
    );
    match err {
        SpawnError::RanksFailed(lines) => {
            let all = lines.join("; ");
            assert!(all.contains("rank 1"), "must name the dead rank: {all}");
            assert_eq!(lines.len(), 3, "survivors abort instead of hanging: {all}");
        }
        other => panic!("expected RanksFailed, got {other}"),
    }
}
