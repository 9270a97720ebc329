//! The four workloads, the host they are sized for, and the XML each one
//! hands to `Configuration::from_str`.
//!
//! Workload names are fixed: later issues cite them.

use std::path::{Path, PathBuf};

use crate::client::{App, RunInput};

/// `program` of the one process-world `Damaris::launch` call site.
pub const LAUNCH_PROGRAM: &str = "damaris-e2e-launch";

/// Codec pipeline on every stored CM1 variable (the paper's §IV.D
/// compression, which the dedicated core is claimed to absorb for free).
pub const CM1_CODEC: &str = "xor-delta8,shuffle8,rle";

/// Seconds one trial is sized to on the 2-core reference host; a run of
/// `--seconds S` makes `S / TRIAL_NOMINAL_S` trials (at least one, at
/// most [`MAX_TRIALS`]).
pub const TRIAL_NOMINAL_S: u64 = 6;
pub const MAX_TRIALS: u64 = 5;

/// Where a workload's ranks live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum World {
    Threads,
    Processes,
}

/// One workload: a proxy, a world, a compute/dump ratio and the consumers
/// switched on. Iteration counts are fixed, not time-based, so byte counts
/// repeat exactly from run to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    pub name: &'static str,
    /// One line on why the workload exists (printed, and mirrored in
    /// `BENCHMARK.json`).
    pub why: &'static str,
    pub app: App,
    pub world: World,
    pub steps_per_dump: u64,
    /// `<store type="h5lite">` plus [`CM1_CODEC`] on every variable.
    pub store: bool,
    /// `<serve>` on, subscribers reading every frame.
    pub serve: bool,
    /// Time a `FileReader` read-back of the sampled iterations.
    pub timed_readback: bool,
    /// Iterations of one trial.
    pub iterations: u64,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "cm1_overlap_threads",
        why: "CM1, 8 steps per dump, thread world, store+codec: the dedicated side has slack, so clients pay only alloc+memcpy+post",
        app: App::Cm1,
        world: World::Threads,
        steps_per_dump: 8,
        store: true,
        serve: false,
        timed_readback: false,
        iterations: 150,
    },
    Spec {
        name: "cm1_overlap_procs",
        why: "same data and ratio in the process world: /dev/shm slices, descriptor batches over the socket mesh, mini_mpi on the path",
        app: App::Cm1,
        world: World::Processes,
        steps_per_dump: 8,
        store: true,
        serve: false,
        timed_readback: false,
        iterations: 150,
    },
    Spec {
        name: "cm1_burst_store",
        why: "CM1, 1 step per dump, thread world: zero slack, so encode, append, fsync and the hand-off back-pressure the clients",
        app: App::Cm1,
        world: World::Threads,
        steps_per_dump: 1,
        store: true,
        serve: false,
        timed_readback: true,
        iterations: 300,
    },
    Spec {
        name: "nek_stream_procs",
        why: "Nek, process world, serve on and no store: publish, queue and socket to live subscribers do the work, storage and codec none",
        app: App::Nek,
        world: World::Processes,
        steps_per_dump: 4,
        store: false,
        serve: true,
        timed_readback: false,
        iterations: 200,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The host-dependent shape of a run and where it may write.
#[derive(Debug, Clone)]
pub struct Env {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Simulation clients: `clamp(nproc − 1, 1, 3)`, plus one dedicated core.
    pub clients: usize,
    /// Stream subscribers of `nek_stream_procs`: `max(1, nproc − clients)`.
    pub subscribers: usize,
    /// `benchmark/out`: everything the benchmark writes lands below it.
    pub out_dir: PathBuf,
}

impl Env {
    pub fn detect() -> Env {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Env::for_nproc(nproc, Path::new(env!("CARGO_MANIFEST_DIR")).join("out"))
    }

    pub fn for_nproc(nproc: usize, out_dir: PathBuf) -> Env {
        let clients = nproc.saturating_sub(1).clamp(1, 3);
        Env {
            nproc,
            clients,
            subscribers: nproc.saturating_sub(clients).max(1),
            out_dir,
        }
    }
}

impl Spec {
    /// Trials a run of `seconds` makes.
    pub fn trials_for(seconds: u64) -> u64 {
        (seconds / TRIAL_NOMINAL_S).clamp(1, MAX_TRIALS)
    }

    /// The three dumps whose blocks are hashed at write time and compared
    /// with what came out the other end: first, middle, last.
    pub fn samples(iterations: u64) -> Vec<u64> {
        let mut s = vec![0, iterations / 2, iterations.saturating_sub(1)];
        s.dedup();
        s
    }

    /// Payload bytes one client publishes per iteration.
    pub fn bytes_per_client_iteration(&self) -> u64 {
        (self.app.variables().len() * self.app.block_bytes()) as u64
    }

    /// Directory of one trial's files (`.dh5`, serve address, go-file).
    pub fn trial_dir(&self, env: &Env, trial: &str) -> PathBuf {
        env.out_dir.join(self.name).join(trial)
    }

    /// `<simulation name>`: the proxy's, not the workload's, so the two
    /// overlap workloads write byte-identical files (the name is stored
    /// in the file).
    pub fn simulation_name(&self) -> &'static str {
        match self.app {
            App::Cm1 => "cm1",
            App::Nek => "nek",
        }
    }

    /// The `.dh5` file the storage engine writes for node 0 under `dir`.
    pub fn dh5_path(&self, dir: &Path) -> PathBuf {
        dir.join(format!("{}_node0.dh5", self.simulation_name()))
    }

    pub fn addr_file(dir: &Path) -> PathBuf {
        dir.join("serve.addr")
    }

    pub fn go_file(dir: &Path) -> PathBuf {
        dir.join("go")
    }

    /// The launch input for a trial of `iterations` dumps; with `go_file`
    /// the clients hold their loop until that file exists.
    pub fn input(
        &self,
        env: &Env,
        seed: u64,
        iterations: u64,
        traced: bool,
        go_file: Option<&Path>,
    ) -> RunInput {
        RunInput {
            app: self.app,
            seed,
            iterations,
            steps_per_dump: self.steps_per_dump,
            clients: env.clients as u64,
            traced,
            samples: Spec::samples(iterations),
            go_file: go_file.map(|p| p.to_string_lossy().into_owned()),
        }
    }

    /// The workload's configuration. Only sizes, paths and the consumers
    /// are stated; every tuning knob (queue kind, allocator, store
    /// workers, chunk rows, skip mode) is left at its default, so the
    /// benchmark measures what a user gets without tuning. `consumers`
    /// off gives the bare reference run (no `<store>`, no `<serve>`).
    pub fn xml(&self, env: &Env, dir: &Path, consumers: bool) -> String {
        let mut arch = format!(
            "<dedicated cores=\"1\"/><clients count=\"{}\"/><buffer size=\"{}\"/>",
            env.clients,
            env.clients * (32 << 20),
        );
        if self.world == World::Processes {
            arch.push_str("<world kind=\"processes\"/>");
        }
        let dir_attr = xml_attr(&dir.to_string_lossy());
        if consumers && self.store {
            arch.push_str(&format!("<store type=\"h5lite\" path=\"{dir_attr}\"/>"));
        }
        if consumers && self.serve {
            arch.push_str(&format!(
                "<serve listen=\"127.0.0.1:0\" addr_file=\"{}\"/>",
                xml_attr(&Spec::addr_file(dir).to_string_lossy())
            ));
        }
        let codec = if consumers && self.store {
            format!(" codec=\"{CM1_CODEC}\"")
        } else {
            String::new()
        };
        let mut data = String::new();
        for (name, dims) in self.app.variables() {
            data.push_str(&format!(
                "<layout name=\"{name}_l\" type=\"f64\" dimensions=\"{dims}\"/>\
                 <variable name=\"{name}\" layout=\"{name}_l\"{codec}/>"
            ));
        }
        format!(
            "<simulation name=\"{}\"><architecture>{arch}</architecture><data>{data}</data></simulation>",
            self.simulation_name()
        )
    }
}

fn xml_attr(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('"', "&quot;")
        .replace('<', "&lt;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use damaris_xml::schema::{Configuration, QueueKind, WorldKind};

    fn env() -> Env {
        Env::for_nproc(2, PathBuf::from("/tmp/bench out"))
    }

    #[test]
    fn host_shape_follows_the_core_count() {
        let shape = |n| {
            let e = Env::for_nproc(n, PathBuf::new());
            (e.clients, e.subscribers)
        };
        assert_eq!(shape(1), (1, 1));
        assert_eq!(shape(2), (1, 1));
        assert_eq!(shape(4), (3, 1));
        assert_eq!(shape(16), (3, 13));
    }

    #[test]
    fn trials_scale_with_seconds() {
        assert_eq!(Spec::trials_for(1), 1);
        assert_eq!(Spec::trials_for(20), 3);
        assert_eq!(Spec::trials_for(60), 5);
    }

    #[test]
    fn samples_are_first_middle_last() {
        assert_eq!(Spec::samples(150), vec![0, 75, 149]);
        assert_eq!(Spec::samples(3), vec![0, 1, 2]);
        assert_eq!(Spec::samples(1), vec![0]);
    }

    #[test]
    fn every_workload_xml_parses_with_default_knobs() {
        let env = env();
        for w in &WORKLOADS {
            let dir = w.trial_dir(&env, "t0");
            let cfg = Configuration::from_str(&w.xml(&env, &dir, true)).unwrap();
            assert_eq!(cfg.name, w.simulation_name());
            assert_eq!(cfg.architecture.clients, 1);
            assert_eq!(cfg.architecture.queue_kind, QueueKind::default());
            assert_eq!(
                cfg.architecture.world == WorldKind::Processes,
                w.world == World::Processes
            );
            assert_eq!(cfg.architecture.store.is_some(), w.store);
            assert_eq!(cfg.architecture.serve.is_some(), w.serve);
            if let Some(store) = &cfg.architecture.store {
                assert_eq!(store.path.as_deref(), dir.to_str());
                assert_eq!(store.workers, None);
            }
            assert_eq!(
                cfg.bytes_per_iteration() as u64,
                w.bytes_per_client_iteration()
            );
            for v in &cfg.variables {
                assert_eq!(v.codec.is_some(), w.store);
            }
            // The bare reference drops the consumers and nothing else.
            let bare = Configuration::from_str(&w.xml(&env, &dir, false)).unwrap();
            assert!(bare.architecture.store.is_none() && bare.architecture.serve.is_none());
            assert!(bare.variables.iter().all(|v| v.codec.is_none()));
        }
    }

    #[test]
    fn input_carries_the_shape_and_the_go_file() {
        let nek = find("nek_stream_procs").unwrap();
        let go = Spec::go_file(Path::new("/tmp/t0"));
        let input = nek.input(&env(), 9, 10, true, Some(&go));
        assert_eq!(
            (
                input.seed,
                input.iterations,
                input.steps_per_dump,
                input.clients
            ),
            (9, 10, 4, 1)
        );
        assert_eq!(input.samples, vec![0, 5, 9]);
        assert_eq!(input.go_file.as_deref(), Some("/tmp/t0/go"));
        assert!(nek.input(&env(), 9, 10, false, None).go_file.is_none());
        assert!(find("nope").is_none());
    }
}
