//! Failure-injection tests for the multi-host socket world: seed-list
//! rendezvous, heartbeat failure detection, membership convergence, and
//! reconnect-after-transient-failure — all driven deterministically by
//! the in-process [`mini_mpi::testutil::FaultProxy`] and the
//! `(rank, pid)` spawn hook.
//!
//! Every test re-executes this binary once per rank (the
//! `run_spawned_test` pattern: the `program` string equals the test
//! function name, and child behaviour derives only from the input
//! bytes).

use std::sync::{Arc, Mutex as StdMutex};
use std::time::{Duration, Instant};

use mini_mpi::testutil::{FaultAction, FaultProxy, LinkFault, PidMap};
use mini_mpi::{Comm, Source, SpawnOptions, World};
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

/// Poll the communicator's membership view until it equals `expected`
/// (world ranks, ascending) or the deadline passes; returns the elapsed
/// time on success.
fn wait_dead_view(comm: &Comm, expected: &[usize], deadline: Duration) -> Duration {
    let started = Instant::now();
    loop {
        let view = comm.dead_ranks();
        if view == expected {
            return started.elapsed();
        }
        assert!(
            started.elapsed() < deadline,
            "rank {}: membership never converged: have {view:?}, want {expected:?}",
            comm.rank()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Seed-list rendezvous bootstraps a working TCP mesh, and produces the
/// same results as the default rendezvous over Unix sockets.
#[test]
fn seed_list_rendezvous_matches_default_rendezvous() {
    let ring = |comm: &mut Comm, _input: &[u8]| {
        let next = (comm.rank() + 1) % comm.size();
        let prev = (comm.rank() + comm.size() - 1) % comm.size();
        comm.send(next, 7, &[comm.rank() as u64 * 3 + 1]);
        let got = comm.recv::<u64>(Source::Rank(prev), 7)[0];
        let sum = comm.allreduce(&[comm.rank() as u64], |a, b| *a += b)[0];
        le_u64s(&[got, sum])
    };
    let seeded = SpawnOptions {
        harness_args: true,
        seeds: Some("127.0.0.1:0".into()),
        ..SpawnOptions::default()
    };
    let via_seeds = World::run_spawned_with(
        3,
        "seed_list_rendezvous_matches_default_rendezvous",
        &[],
        seeded,
        ring,
    )
    .expect("seed-list world must succeed");
    let default = SpawnOptions {
        harness_args: true,
        ..SpawnOptions::default()
    };
    let via_default = World::run_spawned_with(
        3,
        "seed_list_rendezvous_matches_default_rendezvous",
        &[],
        default,
        ring,
    )
    .expect("default-rendezvous world must succeed");
    assert_eq!(
        via_seeds, via_default,
        "rendezvous paths must be equivalent"
    );
    assert_eq!(from_le_u64s(&via_seeds[0]), vec![7, 3]);
}

/// With the proxy fronting the seed, every mesh link flows through it:
/// a no-fault run works and the proxy has observed data frames.
#[test]
fn fault_proxy_observes_every_link() {
    let proxy = FaultProxy::new(vec![]).expect("proxy must bind");
    let opts = SpawnOptions {
        harness_args: true,
        seeds: Some(proxy.seeds()),
        registry_bind: Some(proxy.registry_bind()),
        heartbeat_timeout_ms: 5_000,
        ..SpawnOptions::default()
    };
    let out = World::run_spawned_with(
        3,
        "fault_proxy_observes_every_link",
        &[],
        opts,
        |comm, _| {
            // Full exchange: every pair sends in both directions, so every
            // proxied link carries dialer-to-listener data frames.
            for peer in 0..comm.size() {
                if peer != comm.rank() {
                    comm.send(peer, 1, &[comm.rank() as u64]);
                }
            }
            let mut sum = 0;
            for peer in 0..comm.size() {
                if peer != comm.rank() {
                    sum += comm.recv::<u64>(Source::Rank(peer), 1)[0];
                }
            }
            assert!(comm.dead_ranks().is_empty(), "no faults, no deaths");
            le_u64s(&[sum])
        },
    )
    .expect("proxied world must succeed");
    for (rank, bytes) in out.iter().enumerate() {
        assert_eq!(
            from_le_u64s(bytes)[0],
            3 - rank as u64,
            "0 + 1 + 2 minus own rank"
        );
    }
    // Dialer-to-listener data frames on every link (high dials low).
    for (low, high) in [(0, 1), (0, 2), (1, 2)] {
        assert!(
            proxy.data_frames_seen(low, high) >= 1,
            "link ({low},{high}) must flow through the proxy"
        );
    }
}

/// A transient link drop: the dialer reconnects with
/// backoff and the sequence-numbered frames resume with nothing lost or
/// duplicated, in both directions.
#[test]
fn transient_drop_is_lossless_after_reconnect() {
    const MSGS: u64 = 50;
    let proxy = FaultProxy::new(vec![LinkFault {
        low: 0,
        high: 1,
        after_data: 3,
        action: FaultAction::Drop,
    }])
    .expect("proxy must bind");
    let opts = SpawnOptions {
        harness_args: true,
        seeds: Some(proxy.seeds()),
        registry_bind: Some(proxy.registry_bind()),
        heartbeat_timeout_ms: 10_000,
        timeout: Duration::from_secs(60),
        ..SpawnOptions::default()
    };
    let out = World::run_spawned_with(
        2,
        "transient_drop_is_lossless_after_reconnect",
        &[],
        opts,
        |comm, _| {
            let other = 1 - comm.rank();
            // Both directions cross the dropped connection: rank 1 is the
            // dialer (the redialing side), rank 0 the acceptor.
            for i in 0..MSGS {
                comm.send(other, 4, &[comm.rank() as u64 * 1000 + i]);
            }
            let mut got = Vec::new();
            for _ in 0..MSGS {
                got.extend(comm.recv::<u64>(Source::Rank(other), 4));
            }
            // Exactly-once, in-order delivery despite the mid-stream drop.
            let want: Vec<u64> = (0..MSGS).map(|i| other as u64 * 1000 + i).collect();
            assert_eq!(got, want, "rank {} lost or reordered frames", comm.rank());
            assert!(comm.dead_ranks().is_empty(), "transient drop is not death");
            le_u64s(&[got.len() as u64])
        },
    )
    .expect("world must survive a transient drop");
    assert_eq!(out.len(), 2);
    // The drop fired mid-stream and the retransmitted suffix also flowed
    // through the proxy (a fresh forwarder connection).
    assert!(
        proxy.data_frames_seen(0, 1) >= MSGS as usize,
        "retransmissions must route back through the proxy"
    );
}

/// A delayed link slows frames down but still delivers every one, in
/// order.
#[test]
fn delayed_link_still_delivers_in_order() {
    const MSGS: u64 = 10;
    let proxy = FaultProxy::new(vec![LinkFault {
        low: 0,
        high: 1,
        after_data: 0,
        action: FaultAction::Delay(Duration::from_millis(25)),
    }])
    .expect("proxy must bind");
    let opts = SpawnOptions {
        harness_args: true,
        seeds: Some(proxy.seeds()),
        registry_bind: Some(proxy.registry_bind()),
        heartbeat_timeout_ms: 10_000,
        ..SpawnOptions::default()
    };
    let out = World::run_spawned_with(
        2,
        "delayed_link_still_delivers_in_order",
        &[],
        opts,
        |comm, _| {
            if comm.rank() == 1 {
                for i in 0..MSGS {
                    comm.send(0, 2, &[i]);
                }
                le_u64s(&[])
            } else {
                let mut got = Vec::new();
                for _ in 0..MSGS {
                    got.extend(comm.recv::<u64>(Source::Rank(1), 2));
                }
                assert_eq!(got, (0..MSGS).collect::<Vec<_>>());
                le_u64s(&got)
            }
        },
    )
    .expect("delay must not break delivery");
    assert_eq!(from_le_u64s(&out[0]), (0..MSGS).collect::<Vec<_>>());
    assert_eq!(proxy.data_frames_seen(0, 1), MSGS as usize);
}

/// Black-holing every link of one rank (a network partition: connections
/// stay open, frames vanish) gets the victim declared dead by heartbeat
/// timeout within 2x the configured timeout, survivors converge on the
/// identical membership view, and the world completes in degraded mode.
#[test]
fn black_hole_partition_converges_membership() {
    const HB_TIMEOUT_MS: u64 = 1_500;
    const VICTIM: usize = 2;
    // after_data = 1: the victim's first data frame per link (the phase-1
    // exchange) passes; its second (the tag-9 trigger) fires the fault.
    let proxy = FaultProxy::new(
        [0usize, 1]
            .iter()
            .map(|&low| LinkFault {
                low,
                high: VICTIM,
                after_data: 1,
                action: FaultAction::BlackHole,
            })
            .collect(),
    )
    .expect("proxy must bind");
    let opts = SpawnOptions {
        harness_args: true,
        seeds: Some(proxy.seeds()),
        registry_bind: Some(proxy.registry_bind()),
        heartbeat_timeout_ms: HB_TIMEOUT_MS,
        timeout: Duration::from_secs(60),
        ..SpawnOptions::default()
    };
    let outcome = World::run_spawned_outcome(
        3,
        "black_hole_partition_converges_membership",
        &[],
        opts,
        |comm, _| {
            // Phase 1: every pair exchanges one message (all links warm).
            for peer in 0..comm.size() {
                if peer != comm.rank() {
                    comm.send(peer, 1, &[comm.rank() as u64]);
                }
            }
            for peer in 0..comm.size() {
                if peer != comm.rank() {
                    let _ = comm.recv::<u64>(Source::Rank(peer), 1);
                }
            }
            if comm.rank() == VICTIM {
                // Trigger the black hole on both of the victim's links,
                // then wait to observe the partition from the minority
                // side (everyone else appears dead) and die quietly.
                comm.send(0, 9, &[1]);
                comm.send(1, 9, &[1]);
                wait_dead_view(comm, &[0, 1], Duration::from_secs(30));
                std::process::exit(3);
            }
            let detection = wait_dead_view(
                comm,
                &[VICTIM],
                Duration::from_millis(2 * HB_TIMEOUT_MS + 1_000),
            );
            assert!(
                detection < Duration::from_millis(2 * HB_TIMEOUT_MS),
                "rank {}: detection took {detection:?}, budget is 2x timeout",
                comm.rank()
            );
            // Degraded mode: traffic among survivors keeps flowing.
            let other = 1 - comm.rank();
            comm.send(other, 5, &[comm.rank() as u64 + 100]);
            let got = comm.recv::<u64>(Source::Rank(other), 5)[0];
            assert_eq!(got, other as u64 + 100);
            le_u64s(
                &comm
                    .dead_ranks()
                    .iter()
                    .map(|&r| r as u64)
                    .collect::<Vec<_>>(),
            )
        },
    )
    .expect("partition must not wedge the spawn");
    assert_eq!(
        outcome.failed_ranks(),
        vec![VICTIM],
        "only the victim fails"
    );
    let views: Vec<_> = [0, 1]
        .iter()
        .map(|&r| outcome.results[r].clone().expect("survivor result"))
        .collect();
    assert_eq!(views[0], views[1], "survivors must agree byte-for-byte");
    assert_eq!(from_le_u64s(&views[0]), vec![VICTIM as u64]);
}

/// A SIGKILLed rank is declared dead within 2x the heartbeat timeout and
/// the survivors finish in degraded mode; a rank that is merely stalled
/// (SIGSTOP shorter than the timeout) is NOT declared dead and the world
/// completes cleanly. Both use the `(rank, pid)` spawn hook.
#[test]
fn killed_rank_declared_dead_within_twice_timeout() {
    const HB_TIMEOUT_MS: u64 = 1_500;
    const VICTIM: usize = 1;
    let pids = PidMap::new();
    // Kill the victim shortly after it spawns. (In a spawned child this
    // helper sees no pids and gives up harmlessly.)
    {
        let pids = pids.clone();
        std::thread::spawn(move || {
            if pids.wait_pid(VICTIM, Duration::from_secs(20)).is_some() {
                std::thread::sleep(Duration::from_millis(700));
                pids.kill(VICTIM);
            }
        });
    }
    let opts = SpawnOptions {
        harness_args: true,
        seeds: Some("127.0.0.1:0".into()),
        heartbeat_timeout_ms: HB_TIMEOUT_MS,
        timeout: Duration::from_secs(60),
        on_spawn: Some(pids.hook()),
        ..SpawnOptions::default()
    };
    let outcome = World::run_spawned_outcome(
        3,
        "killed_rank_declared_dead_within_twice_timeout",
        &[],
        opts,
        |comm, _| {
            for peer in 0..comm.size() {
                if peer != comm.rank() {
                    comm.send(peer, 1, &[comm.rank() as u64]);
                }
            }
            for peer in 0..comm.size() {
                if peer != comm.rank() {
                    let _ = comm.recv::<u64>(Source::Rank(peer), 1);
                }
            }
            if comm.rank() == VICTIM {
                // Wait for SIGKILL: abrupt crash-stop, no goodbye.
                std::thread::sleep(Duration::from_secs(30));
                unreachable!("the harness kills this rank");
            }
            let detection = wait_dead_view(comm, &[VICTIM], Duration::from_secs(30));
            // The kill lands ~700ms in; detection is bounded by 2x the
            // heartbeat timeout from there.
            assert!(
                detection < Duration::from_millis(700 + 2 * HB_TIMEOUT_MS),
                "rank {}: detection took {detection:?}",
                comm.rank()
            );
            let other = if comm.rank() == 0 { 2 } else { 0 };
            comm.send(other, 5, &[comm.rank() as u64]);
            assert_eq!(comm.recv::<u64>(Source::Rank(other), 5)[0], other as u64);
            le_u64s(
                &comm
                    .dead_ranks()
                    .iter()
                    .map(|&r| r as u64)
                    .collect::<Vec<_>>(),
            )
        },
    )
    .expect("kill must not wedge the spawn");
    assert_eq!(outcome.failed_ranks(), vec![VICTIM]);
    let v0 = outcome.results[0].clone().expect("rank 0 result");
    let v2 = outcome.results[2].clone().expect("rank 2 result");
    assert_eq!(v0, v2, "survivors must agree byte-for-byte");
    assert_eq!(from_le_u64s(&v0), vec![VICTIM as u64]);
}

#[test]
fn stalled_rank_is_not_declared_dead() {
    const VICTIM: usize = 1;
    let pids = PidMap::new();
    // Stall the victim for 600ms — well under the 2.5s heartbeat timeout.
    {
        let pids = pids.clone();
        std::thread::spawn(move || {
            if pids.wait_pid(VICTIM, Duration::from_secs(20)).is_some() {
                std::thread::sleep(Duration::from_millis(400));
                if pids.signal(VICTIM, "STOP") {
                    std::thread::sleep(Duration::from_millis(600));
                    pids.signal(VICTIM, "CONT");
                }
            }
        });
    }
    let opts = SpawnOptions {
        harness_args: true,
        seeds: Some("127.0.0.1:0".into()),
        heartbeat_timeout_ms: 2_500,
        timeout: Duration::from_secs(60),
        on_spawn: Some(pids.hook()),
        ..SpawnOptions::default()
    };
    let out = World::run_spawned_with(
        3,
        "stalled_rank_is_not_declared_dead",
        &[],
        opts,
        |comm, _| {
            for round in 0..2u64 {
                for peer in 0..comm.size() {
                    if peer != comm.rank() {
                        comm.send(peer, round as u32, &[comm.rank() as u64]);
                    }
                }
                for peer in 0..comm.size() {
                    if peer != comm.rank() {
                        let _ = comm.recv::<u64>(Source::Rank(peer), round as u32);
                    }
                }
                if round == 0 {
                    // Sit inside the victim's stall window before round 2.
                    std::thread::sleep(Duration::from_millis(1_500));
                }
            }
            assert!(
                comm.dead_ranks().is_empty(),
                "rank {}: a stalled-but-alive peer must not be declared dead: {:?}",
                comm.rank(),
                comm.dead_ranks()
            );
            le_u64s(&[comm.rank() as u64])
        },
    )
    .expect("a short stall must not fail the world");
    assert_eq!(out.len(), 3);
}

/// Ranks finishing far apart — skew of several heartbeat timeouts — must
/// not poison the survivors: the finished rank parks in its teardown
/// barrier and keeps heartbeat-monitoring every link whose goodbye it
/// has not yet received, so the still-working ranks must keep answering
/// its pings after seeing *its* goodbye. Regression test: the link used
/// to stop reading on an inbound Goodbye, going silent on that link;
/// the finished rank then falsely declared every still-working peer dead
/// at the heartbeat timeout and abandoned its teardown barrier ~450 ms
/// before the workers were done (observable as rank 0's process exiting
/// long before ranks 1/2) instead of holding the barrier until their
/// goodbyes arrived.
#[test]
fn skewed_finish_times_are_not_deaths() {
    let pids = PidMap::new();
    // Per-rank process-exit instants, recorded by watcher threads
    // polling /proc/<pid> (the parent reaps children every few ms, so
    // the entry disappears promptly on exit).
    let exits: Arc<StdMutex<[Option<Instant>; 3]>> = Arc::new(StdMutex::new([None; 3]));
    let watchers: Vec<_> = (0..3)
        .map(|rank| {
            let pids = pids.clone();
            let exits = exits.clone();
            std::thread::spawn(move || {
                let Some(pid) = pids.wait_pid(rank, Duration::from_secs(20)) else {
                    return;
                };
                let proc_path = format!("/proc/{pid}");
                while std::path::Path::new(&proc_path).exists() {
                    std::thread::sleep(Duration::from_millis(5));
                }
                exits.lock().unwrap()[rank] = Some(Instant::now());
            })
        })
        .collect();
    let opts = SpawnOptions {
        harness_args: true,
        seeds: Some("127.0.0.1:0".into()),
        heartbeat_timeout_ms: 150,
        timeout: Duration::from_secs(30),
        on_spawn: Some(pids.hook()),
        ..SpawnOptions::default()
    };
    let out = World::run_spawned_with(
        3,
        "skewed_finish_times_are_not_deaths",
        &[],
        opts,
        |comm, _| {
            // Warm-up exchange so every link carries traffic once.
            for peer in 0..comm.size() {
                if peer != comm.rank() {
                    comm.send(peer, 1, &[comm.rank() as u64]);
                }
            }
            for peer in 0..comm.size() {
                if peer != comm.rank() {
                    let _ = comm.recv::<u64>(Source::Rank(peer), 1);
                }
            }
            if comm.rank() == 0 {
                // Finish immediately: goodbye goes out while the others
                // keep working for ~4x the heartbeat timeout.
                return le_u64s(&[0]);
            }
            let other = 3 - comm.rank();
            for round in 0..12u64 {
                comm.send(other, 2, &[round]);
                assert_eq!(comm.recv::<u64>(Source::Rank(other), 2)[0], round);
                std::thread::sleep(Duration::from_millis(50));
            }
            assert!(
                comm.dead_ranks().is_empty(),
                "rank {}: an early-finished rank must not get anyone declared dead: {:?}",
                comm.rank(),
                comm.dead_ranks()
            );
            le_u64s(&[comm.rank() as u64])
        },
    )
    .expect("skewed finish times must stay a clean run");
    assert_eq!(from_le_u64s(&out[1]), vec![1]);
    assert_eq!(from_le_u64s(&out[2]), vec![2]);
    for w in watchers {
        w.join().unwrap();
    }
    let exits = exits.lock().unwrap();
    let rank0 = exits[0].expect("rank 0 exit must be recorded");
    let last = exits
        .iter()
        .map(|e| e.expect("every exit must be recorded"))
        .max()
        .unwrap();
    // Rank 0 holds the teardown barrier until ranks 1/2 say goodbye
    // (~600 ms after its own finish), so all three processes exit close
    // together. Pre-fix, rank 0 bailed out ~450 ms early.
    let gap = last.duration_since(rank0);
    assert!(
        gap < Duration::from_millis(300),
        "rank 0 left the teardown barrier {gap:?} before the workers \
         finished — it must wait for their goodbyes, not declare them dead"
    );
}

proptest! {
    // Property: for a random kill schedule (any non-empty proper subset
    // of ranks crash-stops after the warm-up exchange), every survivor
    // converges on the byte-identical membership view, the outcome names
    // exactly the victims, and the world finishes in bounded time.
    // (Process spawns are expensive: few cases, small worlds.)
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn membership_agreement_under_random_kill_schedules(
        size in 3usize..=4,
        mask_seed in 1u32..1_000_000,
    ) {
        let full = (1u32 << size) - 1;
        let mask = {
            // Any non-empty proper subset of ranks.
            let m = mask_seed % full;
            if m == 0 { 1 } else { m }
        };
        let victims: Vec<usize> = (0..size).filter(|r| mask & (1 << r) != 0).collect();
        let input: Vec<u8> = std::iter::once(mask as u8).collect();
        let started = Instant::now();
        let opts = SpawnOptions {
            harness_args: true,
            seeds: Some("127.0.0.1:0".into()),
            heartbeat_timeout_ms: 1_000,
            timeout: Duration::from_secs(60),
            ..SpawnOptions::default()
        };
        let outcome = World::run_spawned_outcome(
            size,
            "membership_agreement_under_random_kill_schedules",
            &input,
            opts,
            |comm, input| {
                let mask = u32::from(input[0]);
                let victims: Vec<usize> =
                    (0..comm.size()).filter(|r| mask & (1 << r) != 0).collect();
                // Warm-up: every rank posts to every peer over the
                // established mesh, but only survivor↔survivor
                // deliveries are awaited — a victim's crash-stop races
                // its mesh thread's flush, so nothing may depend on a
                // victim's frames arriving.
                for peer in 0..comm.size() {
                    if peer != comm.rank() {
                        comm.send(peer, 1, &[comm.rank() as u64]);
                    }
                }
                if victims.contains(&comm.rank()) {
                    // Crash-stop: no result, no goodbye.
                    std::process::exit(9);
                }
                for peer in 0..comm.size() {
                    if peer != comm.rank() && !victims.contains(&peer) {
                        let _ = comm.recv::<u64>(Source::Rank(peer), 1);
                    }
                }
                wait_dead_view(comm, &victims, Duration::from_secs(30));
                le_u64s(&comm.dead_ranks().iter().map(|&r| r as u64).collect::<Vec<_>>())
            },
        )
        .expect("kills must not wedge the spawn");
        prop_assert!(
            started.elapsed() < Duration::from_secs(60),
            "bounded time: took {:?}", started.elapsed()
        );
        prop_assert_eq!(outcome.failed_ranks(), victims.clone(), "exactly the victims fail");
        let survivor_views: Vec<Vec<u8>> = (0..size)
            .filter(|r| !victims.contains(r))
            .map(|r| outcome.results[r].clone().expect("survivor result"))
            .collect();
        for view in &survivor_views {
            prop_assert_eq!(
                view.clone(),
                survivor_views[0].clone(),
                "survivors diverged on membership"
            );
            prop_assert_eq!(
                from_le_u64s(view),
                victims.iter().map(|&v| v as u64).collect::<Vec<_>>(),
                "membership view must name exactly the victims"
            );
        }
    }
}
