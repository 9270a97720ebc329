//! End-to-end integration: a full Damaris session on real threads and a
//! real file system, verified by reading the output back; plus content
//! equivalence between Damaris node files and both synchronous baselines.
//! The dedicated core's one writer is the `<store>` engine: one file per
//! node per run, datasets at `it{iteration:06}/{variable}/rank{client}`.

use damaris::core::baseline;
use damaris::core::prelude::*;
use damaris::h5::FileReader;
use damaris::mpi::World;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("damaris-it-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("temp dir");
    d
}

fn config(n: usize) -> String {
    format!(
        r#"<simulation name="e2e">
             <architecture>
               <dedicated cores="1"/>
               <buffer size="8388608"/>
               <queue capacity="128"/>
               <store/>
             </architecture>
             <data>
               <layout name="row" type="f64" dimensions="{n}"/>
               <variable name="u" layout="row" unit="m/s"/>
               <variable name="theta" layout="row" unit="K"/>
             </data>
           </simulation>"#
    )
}

/// The deterministic per-rank data every path writes.
fn rank_data(rank: usize, it: u64, n: usize) -> (Vec<f64>, Vec<f64>) {
    let u: Vec<f64> = (0..n)
        .map(|i| (rank * 1000 + i) as f64 + it as f64 * 0.5)
        .collect();
    let theta: Vec<f64> = (0..n).map(|i| 300.0 + (rank + i) as f64 * 0.25).collect();
    (u, theta)
}

#[test]
fn damaris_session_files_verified_by_reader() {
    const N: usize = 256;
    const CLIENTS: usize = 4;
    const ITERATIONS: u64 = 3;
    let dir = tmpdir("session");
    let node = DamarisNode::builder()
        .config_str(&config(N))
        .expect("config")
        .clients(CLIENTS)
        .node_id(7)
        .output_dir(&dir)
        .build()
        .expect("node");

    let handles: Vec<_> = node
        .clients()
        .map(|client| {
            std::thread::spawn(move || {
                for it in 0..ITERATIONS {
                    let (u, theta) = rank_data(client.id(), it, N);
                    assert_eq!(client.write("u", it, &u).expect("u"), WriteStatus::Written);
                    assert_eq!(
                        client.write("theta", it, &theta).expect("theta"),
                        WriteStatus::Written
                    );
                    client.end_iteration(it).expect("end");
                }
                client.finalize().expect("finalize");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let report = node.shutdown().expect("shutdown");
    assert_eq!(report.iterations_completed, ITERATIONS);
    assert!(
        report.plugin_errors.is_empty(),
        "{:?}",
        report.plugin_errors
    );

    // One file for the node, one group per iteration, each holding every
    // client's blocks.
    let mut reader = FileReader::open(dir.join("e2e_node7.dh5")).expect("file readable");
    assert_eq!(reader.attr("", "node").and_then(|a| a.as_i64()), Some(7));
    assert_eq!(
        reader.list("").len(),
        ITERATIONS as usize,
        "one group per iteration"
    );
    for it in 0..ITERATIONS {
        for rank in 0..CLIENTS {
            let (u, theta) = rank_data(rank, it, N);
            let u_path = format!("it{it:06}/u/rank{rank}");
            let theta_path = format!("it{it:06}/theta/rank{rank}");
            assert_eq!(reader.read_pod::<f64>(&u_path).expect("u"), u);
            assert_eq!(reader.read_pod::<f64>(&theta_path).expect("theta"), theta);
            assert_eq!(
                reader.attr(&u_path, "unit").and_then(|a| a.as_str()),
                Some("m/s")
            );
            assert_eq!(
                reader.attr(&theta_path, "unit").and_then(|a| a.as_str()),
                Some("K")
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn all_three_paths_persist_identical_values() {
    const N: usize = 128;
    const RANKS: usize = 4;
    let dir = tmpdir("equivalence");

    // Damaris path.
    {
        let node = DamarisNode::builder()
            .config_str(&config(N))
            .expect("config")
            .clients(RANKS)
            .output_dir(dir.join("damaris"))
            .build()
            .expect("node");
        let handles: Vec<_> = node
            .clients()
            .map(|client| {
                std::thread::spawn(move || {
                    let (u, theta) = rank_data(client.id(), 0, N);
                    client.write("u", 0, &u).expect("u");
                    client.write("theta", 0, &theta).expect("theta");
                    client.end_iteration(0).expect("end");
                    client.finalize().expect("finalize");
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client");
        }
        node.shutdown().expect("shutdown");
    }

    // Baselines over mini-mpi.
    let d2 = dir.clone();
    World::run(RANKS, move |comm| {
        let (u, theta) = rank_data(comm.rank(), 0, N);
        let vars: Vec<(&str, &[f64])> = vec![("u", &u), ("theta", &theta)];
        baseline::file_per_process(comm, &d2.join("fpp"), "e2e", 0, &vars).expect("fpp");
        baseline::collective(comm, &d2.join("coll"), "e2e", 0, &vars, 2).expect("collective");
    });

    // Compare all three representations value for value.
    let mut damaris = FileReader::open(dir.join("damaris/e2e_node0.dh5")).expect("damaris file");
    let mut shared =
        FileReader::open(dir.join("coll/e2e_shared_it000000.dh5")).expect("shared file");
    for rank in 0..RANKS {
        let mut own = FileReader::open(dir.join(format!("fpp/e2e_rank{rank:05}_it000000.dh5")))
            .expect("fpp file");
        for var in ["u", "theta"] {
            let from_fpp = own.read_pod::<f64>(var).expect("fpp data");
            let from_damaris = damaris
                .read_pod::<f64>(&format!("it000000/{var}/rank{rank}"))
                .expect("damaris data");
            let from_shared = shared
                .read_pod::<f64>(&format!("{var}/rank{rank}"))
                .expect("shared data");
            assert_eq!(
                from_fpp, from_damaris,
                "{var} rank {rank}: damaris diverged"
            );
            assert_eq!(
                from_fpp, from_shared,
                "{var} rank {rank}: collective diverged"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn two_nodes_write_disjoint_files() {
    const N: usize = 64;
    let dir = tmpdir("multinode");
    let mut nodes = Vec::new();
    for node_id in 0..2 {
        let node = DamarisNode::builder()
            .config_str(&config(N))
            .expect("config")
            .clients(2)
            .node_id(node_id)
            .output_dir(&dir)
            .build()
            .expect("node");
        nodes.push(node);
    }
    let mut handles = Vec::new();
    for node in &nodes {
        for client in node.clients() {
            handles.push(std::thread::spawn(move || {
                let (u, theta) = rank_data(client.id(), 0, N);
                client.write("u", 0, &u).expect("u");
                client.write("theta", 0, &theta).expect("theta");
                client.end_iteration(0).expect("end");
                client.finalize().expect("finalize");
            }));
        }
    }
    for h in handles {
        h.join().expect("client");
    }
    for node in &nodes {
        node.shutdown().expect("shutdown");
    }
    // One file per node — "the output of dedicated cores can be easily
    // post-processed" (a handful of node files, not one per rank).
    for node_id in 0..2 {
        let path = dir.join(format!("e2e_node{node_id}.dh5"));
        let reader = FileReader::open(&path).expect("node file exists");
        assert_eq!(
            reader.list("it000000"),
            vec![("theta".to_string(), false), ("u".to_string(), false)]
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn zero_copy_path_equals_copy_path() {
    const N: usize = 128;
    let dir = tmpdir("zerocopy");
    let node = DamarisNode::builder()
        .config_str(&config(N))
        .expect("config")
        .clients(2)
        .output_dir(&dir)
        .build()
        .expect("node");
    let handles: Vec<_> = node
        .clients()
        .map(|client| {
            std::thread::spawn(move || {
                let (u, theta) = rank_data(client.id(), 0, N);
                if client.id() == 0 {
                    // Copy path.
                    client.write("u", 0, &u).expect("u");
                    client.write("theta", 0, &theta).expect("theta");
                } else {
                    // Zero-copy path: fill shared memory in place.
                    let mut w = client.alloc("u", 0).expect("alloc u");
                    w.fill_pod(&u);
                    w.commit().expect("commit u");
                    let mut w = client.alloc("theta", 0).expect("alloc theta");
                    w.fill_pod(&theta);
                    w.commit().expect("commit theta");
                }
                client.end_iteration(0).expect("end");
                client.finalize().expect("finalize");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client");
    }
    node.shutdown().expect("shutdown");
    let mut reader = FileReader::open(dir.join("e2e_node0.dh5")).expect("file");
    for rank in 0..2 {
        let (u, _) = rank_data(rank, 0, N);
        assert_eq!(
            reader
                .read_pod::<f64>(&format!("it000000/u/rank{rank}"))
                .expect("u"),
            u
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
