//! The three I/O strategies and the dedicated-core scheduling/placement
//! options.

use pfs_sim::FileSpec;

pub use damaris_xml::schema::WorldKind;

/// How the dedicated cores time and place their node-file writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// Write as soon as the node's data is staged (the Damaris default
    /// that reaches ~10 GB/s in §IV.C).
    Greedy,
    /// Stagger nodes into waves (`groups`) — no coordination at run time.
    Staggered {
        /// Number of waves.
        groups: usize,
    },
    /// Global admission control: at most `concurrent` node writes at once.
    TokenBucket {
        /// Maximum simultaneous writers.
        concurrent: usize,
    },
    /// Placement-aware scheduling: balance bytes across storage targets by
    /// splitting the excess node files (those that would make some OST
    /// serve one more full file than the rest) over two OSTs. This is the
    /// "more elaborate scheduling" that lifts throughput to ≈ 12.7 GB/s
    /// (§IV.D).
    Balanced,
}

impl Scheduler {
    /// Name for benchmark tables.
    pub fn name(&self) -> &'static str {
        match self {
            Scheduler::Greedy => "greedy",
            Scheduler::Staggered { .. } => "staggered",
            Scheduler::TokenBucket { .. } => "token-bucket",
            Scheduler::Balanced => "balanced",
        }
    }

    /// Plan write start times given per-node readiness and an estimated
    /// single-file write duration (see [`crate::sched`]).
    pub fn plan_starts(&self, ready: &[f64], est_write_s: f64) -> Vec<f64> {
        use crate::sched::{Greedy, IoScheduler, Staggered, TokenBucket};
        match self {
            Scheduler::Greedy | Scheduler::Balanced => Greedy.plan_starts(ready, est_write_s),
            Scheduler::Staggered { groups } => {
                Staggered { groups: *groups }.plan_starts(ready, est_write_s)
            }
            Scheduler::TokenBucket { concurrent } => TokenBucket {
                concurrent: *concurrent,
            }
            .plan_starts(ready, est_write_s),
        }
    }

    /// Decide file specs for one dump of `nodes` node files over `n_osts`
    /// targets. `dump` rotates placement so multi-dump runs spread load.
    pub fn place_files(&self, nodes: usize, n_osts: usize, dump: u64) -> Vec<FileSpec> {
        match self {
            Scheduler::Balanced => balanced_placement(nodes, n_osts, dump),
            _ => (0..nodes)
                .map(|node| FileSpec {
                    // Rotate the starting OST each dump so the integer
                    // imbalance (e.g. 768 files on 336 OSTs) moves around.
                    id: (node as u64) + dump * nodes as u64,
                    shared: false,
                    stripe_count: 1,
                    needs_create: true,
                })
                .collect(),
        }
    }
}

/// Byte-balancing placement: with `nodes = q·n_osts + r`, the first
/// `q·n_osts` files go one-per-OST round-robin (stripe 1); the `r` excess
/// files are striped over 2 OSTs each, aimed at the least-loaded targets,
/// so no OST serves a whole extra file.
fn balanced_placement(nodes: usize, n_osts: usize, dump: u64) -> Vec<FileSpec> {
    let q = nodes / n_osts;
    let bulk = q * n_osts;
    let rotation = (dump as usize * 97) % n_osts.max(1);
    let mut specs: Vec<FileSpec> = (0..bulk)
        .map(|node| FileSpec {
            id: ((node + rotation) % n_osts + (node / n_osts) * n_osts) as u64,
            shared: false,
            stripe_count: 1,
            needs_create: true,
        })
        .collect();
    // Excess files: stripe 2, spread across OST pairs that only hold the
    // bulk load. Choose starting OSTs spaced evenly around the ring.
    let excess = nodes - bulk;
    for e in 0..excess {
        let start = if excess == 0 {
            0
        } else {
            (e * 2 * n_osts / (excess * 2).max(1)) % n_osts
        };
        let ost = (start + rotation) % n_osts;
        specs.push(FileSpec {
            // id ≡ ost (mod n_osts) places the first stripe there; keep
            // ids unique by adding a multiple of n_osts above the bulk.
            id: (ost + (q + 1 + e / n_osts.max(1)) * n_osts) as u64,
            shared: false,
            stripe_count: 2,
            needs_create: true,
        });
    }
    specs
}

/// Options of the Damaris strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DamarisOptions {
    /// Cores per node handed to data management. A model parameter only:
    /// the middleware runs one dedicated core per node, which is the
    /// default and what [`DamarisOptions::from_config`] yields.
    pub dedicated_cores: usize,
    /// Write scheduling/placement.
    pub scheduler: Scheduler,
    /// How many staged dumps the shared segment can hold before
    /// backpressure (buffer size ÷ node dump bytes).
    pub buffer_dumps: usize,
    /// Drop iterations instead of blocking when the buffer is full
    /// (§V.C.1's choice).
    pub skip_when_full: bool,
    /// Bytes shrink factor applied by in-spare-time compression before
    /// writing (1.0 = off) — the §IV.D compression experiment.
    pub compression_ratio: f64,
    /// Dedicated-core seconds of plugin work per dump (e.g. in-situ
    /// analysis); 0 for pure I/O.
    pub plugin_seconds_per_dump: f64,
    /// Rank realization: `Threads` posts events through in-memory queues;
    /// `Processes` crosses a Unix-domain socket per event (mirrors
    /// `mini_mpi::World::run_spawned` + `damaris_core::process`, at an
    /// assumed post cost; see `UDS_POST_SECONDS` in `run.rs`).
    pub world: WorldKind,
}

impl Default for DamarisOptions {
    fn default() -> Self {
        DamarisOptions {
            dedicated_cores: 1,
            scheduler: Scheduler::Greedy,
            buffer_dumps: 2,
            skip_when_full: true,
            compression_ratio: 1.0,
            plugin_seconds_per_dump: 0.0,
            world: WorldKind::Threads,
        }
    }
}

impl DamarisOptions {
    /// Derive simulator options from a real middleware configuration, so
    /// one XML file drives both the node runtime and the cluster model.
    pub fn from_config(cfg: &damaris_xml::schema::Configuration) -> Self {
        let arch = &cfg.architecture;
        let bytes = cfg.bytes_per_iteration();
        DamarisOptions {
            buffer_dumps: arch
                .buffer_size
                .checked_div(bytes)
                .map_or(2, |dumps| dumps.max(1)),
            skip_when_full: arch.skip.mode == damaris_xml::schema::SkipMode::DropIteration,
            world: arch.world,
            ..Default::default()
        }
    }
}

/// The I/O approach under test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// One file per rank per dump, written synchronously.
    FilePerProcess,
    /// Two-phase collective I/O into one shared file per dump.
    Collective,
    /// Dedicated-core asynchronous I/O.
    Damaris(DamarisOptions),
    /// Synchronous in-situ analysis (VisIt-libsim style): every rank stops
    /// for `analysis_seconds` (jittered straggler max) each dump; no file
    /// I/O. The §V.C.1 baseline.
    SyncInSitu {
        /// Mean per-rank analysis+render time per dump.
        analysis_seconds: f64,
    },
}

impl Strategy {
    /// Damaris with default options (greedy scheduling).
    pub fn damaris_greedy() -> Self {
        Strategy::Damaris(DamarisOptions::default())
    }

    /// Damaris with balanced-placement scheduling (the 12.7 GB/s setup).
    pub fn damaris_balanced() -> Self {
        Strategy::Damaris(DamarisOptions {
            scheduler: Scheduler::Balanced,
            ..Default::default()
        })
    }

    /// Damaris with every rank its own OS process: events cross Unix
    /// sockets instead of in-memory queues.
    pub fn damaris_processes() -> Self {
        Strategy::Damaris(DamarisOptions {
            world: WorldKind::Processes,
            ..Default::default()
        })
    }

    /// Name for tables.
    pub fn name(&self) -> String {
        match self {
            Strategy::FilePerProcess => "file-per-process".into(),
            Strategy::Collective => "collective".into(),
            Strategy::Damaris(o) => format!("damaris/{}", o.scheduler.name()),
            Strategy::SyncInSitu { .. } => "sync-insitu".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(Strategy::FilePerProcess.name(), "file-per-process");
        assert_eq!(Strategy::damaris_greedy().name(), "damaris/greedy");
        assert_eq!(Strategy::damaris_balanced().name(), "damaris/balanced");
    }

    #[test]
    fn default_placement_rotates_per_dump() {
        let s = Scheduler::Greedy;
        let d0 = s.place_files(10, 4, 0);
        let d1 = s.place_files(10, 4, 1);
        assert_eq!(d0.len(), 10);
        assert_ne!(d0[0].id % 4, d1[0].id % 4, "rotation moves the imbalance");
        assert!(d0.iter().all(|f| f.stripe_count == 1 && !f.shared));
    }

    #[test]
    fn balanced_placement_splits_excess() {
        // 768 files over 336 OSTs: 672 bulk (stripe 1) + 96 excess (stripe 2).
        let specs = balanced_placement(768, 336, 0);
        assert_eq!(specs.len(), 768);
        let bulk = specs.iter().filter(|f| f.stripe_count == 1).count();
        let split = specs.iter().filter(|f| f.stripe_count == 2).count();
        assert_eq!(bulk, 672);
        assert_eq!(split, 96);
        // Byte-load per OST: bulk gives exactly 2 per OST; excess halves
        // add ≤ 1 half-file per OST.
        let mut load = vec![0.0f64; 336];
        for f in &specs {
            let base = (f.id as usize) % 336;
            match f.stripe_count {
                1 => load[base] += 1.0,
                2 => {
                    load[base] += 0.5;
                    load[(base + 1) % 336] += 0.5;
                }
                _ => unreachable!(),
            }
        }
        let max = load.iter().cloned().fold(0.0, f64::max);
        let min = load.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            max - min <= 1.0,
            "balanced placement must equalize byte load: {min}..{max}"
        );
        assert!(max < 3.0, "no OST serves a full extra file, max = {max}");
    }

    #[test]
    fn balanced_ids_unique() {
        let specs = balanced_placement(768, 336, 3);
        let mut ids: Vec<u64> = specs.iter().map(|f| f.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 768, "file ids must be unique");
    }

    #[test]
    fn plan_starts_delegates() {
        let ready = vec![0.0, 0.0, 0.0, 0.0];
        assert_eq!(Scheduler::Greedy.plan_starts(&ready, 5.0), ready);
        let tb = Scheduler::TokenBucket { concurrent: 1 }.plan_starts(&ready, 5.0);
        let mut sorted = tb.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(sorted, vec![0.0, 5.0, 10.0, 15.0]);
    }
}
