//! The two state-of-the-art I/O approaches Damaris is evaluated against
//! (paper §II), implemented over `mini-mpi` + `h5lite` so laptop-scale
//! comparisons run for real.
//!
//! * **File-per-process** — every rank writes its own file. No
//!   synchronization, but one file per rank per dump ("a huge amount of
//!   files that are simply impossible to post-process") and one metadata
//!   operation per rank hammering the MDS.
//! * **Collective (two-phase) I/O** — ranks exchange data so that a small
//!   set of aggregators writes large contiguous regions of one shared file
//!   (Thakur et al.'s two-phase scheme, as in ROMIO/pHDF5). Costs heavy
//!   inter-process communication; produces one convenient shared file.

use std::path::Path;

use h5lite::{Dtype, FileWriter};
use mini_mpi::{Comm, Source};

use crate::error::{DamarisError, DamarisResult};

/// One variable to dump: `(name, values)` — `f64` grids, as CM1 produces.
pub type VarSlice<'a> = (&'a str, &'a [f64]);

/// Outcome of a baseline dump on one rank.
#[derive(Debug, Clone, Default)]
pub struct DumpReport {
    /// Seconds this rank spent blocked in the dump call.
    pub seconds: f64,
    /// Bytes of simulation data this rank contributed.
    pub payload_bytes: u64,
    /// Bytes this rank moved over the network for aggregation.
    pub comm_bytes: u64,
    /// Files this rank created.
    pub files_created: usize,
}

/// File-per-process dump: rank `r` writes
/// `{dir}/{sim}_rank{r:05}_it{iteration:06}.dh5` containing its variables.
pub fn file_per_process(
    comm: &Comm,
    dir: &Path,
    sim: &str,
    iteration: u64,
    vars: &[VarSlice<'_>],
) -> DamarisResult<DumpReport> {
    let t0 = std::time::Instant::now();
    std::fs::create_dir_all(dir).map_err(h5lite::H5Error::from)?;
    let path = dir.join(format!("{sim}_rank{:05}_it{iteration:06}.dh5", comm.rank()));
    let mut w = FileWriter::create(&path)?;
    let mut payload = 0u64;
    for (name, values) in vars {
        w.dataset(name, Dtype::F64, &[values.len() as u64])?
            .write_pod(values)?;
        payload += (values.len() * 8) as u64;
    }
    w.set_attr("", "iteration", iteration as i64)?;
    w.set_attr("", "rank", comm.rank() as i64)?;
    w.finish()?;
    Ok(DumpReport {
        seconds: t0.elapsed().as_secs_f64(),
        payload_bytes: payload,
        comm_bytes: 0,
        files_created: 1,
    })
}

/// Collective two-phase dump into one shared file per iteration.
///
/// Phase 1: every rank ships its variables to its aggregator (ranks
/// `0, A, 2A, …` where `A = size / aggregators`). Phase 2: aggregators
/// forward their aggregated region to rank 0, which writes the single
/// shared file `{dir}/{sim}_shared_it{iteration:06}.dh5` with one dataset
/// per (variable, rank).
///
/// The communication volume matches real two-phase I/O (every byte moves
/// at least once); the final single-writer step stands in for the
/// shared-file extent writes that `h5lite`'s write-once format cannot
/// express. This function provides bit-exact output for correctness
/// comparisons, not the performance of concurrent shared-file writes.
pub fn collective(
    comm: &Comm,
    dir: &Path,
    sim: &str,
    iteration: u64,
    vars: &[VarSlice<'_>],
    aggregators: usize,
) -> DamarisResult<DumpReport> {
    let t0 = std::time::Instant::now();
    let size = comm.size();
    let aggregators = aggregators.clamp(1, size);
    let group = size.div_ceil(aggregators);
    let my_aggregator = (comm.rank() / group) * group;
    let payload: u64 = vars.iter().map(|(_, v)| (v.len() * 8) as u64).sum();

    const TAG_DATA: u32 = 0xD0;
    const TAG_META: u32 = 0xD1;

    // ---- Phase 1: ship data to the aggregator ----
    let flat: Vec<f64> = vars.iter().flat_map(|(_, v)| v.iter().copied()).collect();
    let lens: Vec<u64> = vars.iter().map(|(_, v)| v.len() as u64).collect();
    let mut comm_bytes = 0u64;
    let mut files_created = 0usize;

    if comm.rank() != my_aggregator {
        comm.send(my_aggregator, TAG_META, &lens);
        comm.send(my_aggregator, TAG_DATA, &flat);
        comm_bytes += (flat.len() * 8) as u64;
        // Wait for the completion broadcast below.
    }

    // Aggregators collect their group's data (rank order within group).
    let mut group_data: Vec<(usize, Vec<u64>, Vec<f64>)> = Vec::new();
    if comm.rank() == my_aggregator {
        group_data.push((comm.rank(), lens.clone(), flat.clone()));
        let group_end = (my_aggregator + group).min(size);
        for r in (my_aggregator + 1)..group_end {
            let l: Vec<u64> = comm.recv(Source::Rank(r), TAG_META);
            let d: Vec<f64> = comm.recv(Source::Rank(r), TAG_DATA);
            group_data.push((r, l, d));
        }
        // ---- Phase 2: forward to the writer (rank 0) ----
        if comm.rank() != 0 {
            for (r, l, d) in &group_data {
                comm.send(0, TAG_META, &[*r as u64]);
                comm.send(0, TAG_META, l);
                comm.send(0, TAG_DATA, d);
                comm_bytes += (d.len() * 8) as u64;
            }
            comm.send(0, TAG_META, &[u64::MAX]); // end-of-group marker
        }
    }

    if comm.rank() == 0 {
        std::fs::create_dir_all(dir).map_err(h5lite::H5Error::from)?;
        let path = dir.join(format!("{sim}_shared_it{iteration:06}.dh5"));
        let mut w = FileWriter::create(&path)?;
        let write_rank =
            |rank: usize, lens: &[u64], data: &[f64], w: &mut FileWriter<_>| -> DamarisResult<()> {
                let mut offset = 0usize;
                for ((name, _), &len) in vars.iter().zip(lens) {
                    let len = len as usize;
                    w.dataset(&format!("{name}/rank{rank}"), Dtype::F64, &[len as u64])?
                        .write_pod(&data[offset..offset + len])?;
                    offset += len;
                }
                Ok(())
            };
        // Own group first.
        for (r, l, d) in &group_data {
            write_rank(*r, l, d, &mut w)?;
        }
        // Then every other aggregator's group.
        let n_other_aggregators = (0..size).step_by(group).filter(|&a| a != 0).count();
        for _ in 0..n_other_aggregators {
            loop {
                let head: Vec<u64> = comm.recv(Source::Any, TAG_META);
                if head[0] == u64::MAX {
                    break;
                }
                let rank = head[0] as usize;
                let l: Vec<u64> = comm.recv(Source::Rank(aggregator_of(rank, group)), TAG_META);
                let d: Vec<f64> = comm.recv(Source::Rank(aggregator_of(rank, group)), TAG_DATA);
                write_rank(rank, &l, &d, &mut w)?;
            }
        }
        w.set_attr("", "iteration", iteration as i64)?;
        w.finish()?;
        files_created = 1;
    }

    // Everyone leaves together, as MPI_File_write_all would enforce.
    comm.barrier();
    Ok(DumpReport {
        seconds: t0.elapsed().as_secs_f64(),
        payload_bytes: payload,
        comm_bytes,
        files_created,
    })
}

fn aggregator_of(rank: usize, group: usize) -> usize {
    (rank / group) * group
}

/// Map a `DamarisError` from baseline helpers (exists so callers can use
/// `?` uniformly).
impl From<std::convert::Infallible> for DamarisError {
    fn from(x: std::convert::Infallible) -> Self {
        match x {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mini_mpi::World;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("damaris-base-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn file_per_process_writes_one_file_each() {
        let dir = tmpdir("fpp");
        let d2 = dir.clone();
        let reports = World::run(4, move |comm| {
            let data: Vec<f64> = (0..32).map(|i| (comm.rank() * 100 + i) as f64).collect();
            file_per_process(comm, &d2, "t", 3, &[("u", &data)]).unwrap()
        });
        assert!(reports.iter().all(|r| r.files_created == 1));
        assert!(reports.iter().all(|r| r.comm_bytes == 0));
        // Verify the files exist and hold the right data.
        for rank in 0..4 {
            let path = dir.join(format!("t_rank{rank:05}_it000003.dh5"));
            let mut r = h5lite::FileReader::open(&path).unwrap();
            let u = r.read_pod::<f64>("u").unwrap();
            assert_eq!(u[0], (rank * 100) as f64);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn collective_produces_single_shared_file() {
        let dir = tmpdir("coll");
        let d2 = dir.clone();
        let reports = World::run(6, move |comm| {
            let data: Vec<f64> = vec![comm.rank() as f64; 16];
            collective(comm, &d2, "t", 0, &[("u", &data)], 3).unwrap()
        });
        assert_eq!(reports.iter().map(|r| r.files_created).sum::<usize>(), 1);
        // Non-root ranks moved their data at least once.
        assert!(reports[1].comm_bytes >= 16 * 8);
        let path = dir.join("t_shared_it000000.dh5");
        let mut r = h5lite::FileReader::open(&path).unwrap();
        for rank in 0..6 {
            let u = r.read_pod::<f64>(&format!("u/rank{rank}")).unwrap();
            assert_eq!(u, vec![rank as f64; 16], "rank {rank} data intact");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn collective_matches_fpp_content() {
        // The two baselines must persist identical values.
        let dir = tmpdir("match");
        let d2 = dir.clone();
        World::run(4, move |comm| {
            let data: Vec<f64> = (0..8)
                .map(|i| (comm.rank() as f64) * 1.5 + i as f64)
                .collect();
            file_per_process(comm, &d2.join("fpp"), "t", 0, &[("u", &data)]).unwrap();
            collective(comm, &d2.join("coll"), "t", 0, &[("u", &data)], 2).unwrap();
        });
        let mut shared = h5lite::FileReader::open(dir.join("coll/t_shared_it000000.dh5")).unwrap();
        for rank in 0..4 {
            let mut own =
                h5lite::FileReader::open(dir.join(format!("fpp/t_rank{rank:05}_it000000.dh5")))
                    .unwrap();
            assert_eq!(
                own.read_pod::<f64>("u").unwrap(),
                shared.read_pod::<f64>(&format!("u/rank{rank}")).unwrap()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_rank_collective_degenerates() {
        let dir = tmpdir("single");
        let d2 = dir.clone();
        let reports = World::run(1, move |comm| {
            let data = vec![7.0f64; 4];
            collective(comm, &d2, "t", 1, &[("u", &data)], 4).unwrap()
        });
        assert_eq!(reports[0].files_created, 1);
        assert_eq!(reports[0].comm_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multiple_variables_roundtrip() {
        let dir = tmpdir("vars");
        let d2 = dir.clone();
        World::run(2, move |comm| {
            let u = vec![comm.rank() as f64; 4];
            let v = vec![comm.rank() as f64 + 10.0; 6];
            collective(comm, &d2, "t", 0, &[("u", &u), ("v", &v)], 1).unwrap();
        });
        let mut r = h5lite::FileReader::open(dir.join("t_shared_it000000.dh5")).unwrap();
        assert_eq!(r.read_pod::<f64>("v/rank1").unwrap(), vec![11.0; 6]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
