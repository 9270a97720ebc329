//! The block index on the dedicated-core side.
//!
//! Paper §III.B: "All data blocks are indexed in a metadata structure that
//! helps searching for particular blocks from data management services."
//!
//! The index is one ordered map keyed by `(iteration, variable, source,
//! seq)`: an iteration's blocks are one range scan that comes back already
//! ordered by variable and writer rank (no filter + sort per query), and
//! they can be split off wholesale when the iteration leaves the retain
//! window.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

use damaris_shm::BlockRef;
use damaris_xml::VarId;

/// One indexed block: who wrote which variable at which step.
#[derive(Debug, Clone)]
pub struct StoredBlock {
    /// Interned variable id.
    pub variable: VarId,
    /// Writing client id (rank within the node).
    pub source: usize,
    /// Simulation time step.
    pub iteration: u64,
    /// Zero-copy handle into the shared segment.
    pub data: BlockRef,
}

/// `(iteration, variable, source, seq)` — `seq` distinguishes repeated
/// writes of the same variable by the same client within one iteration.
type BlockKey = (u64, u32, usize, u32);

/// Index of live blocks, ordered by `(iteration, variable, source)`.
///
/// Blocks hold [`BlockRef`]s, so removing an iteration releases its shared
/// memory once plugins drop their own references — this is the garbage
/// collection that keeps the segment from filling under steady state.
#[derive(Debug, Default)]
pub struct VariableStore {
    by_key: BTreeMap<BlockKey, StoredBlock>,
    /// Blocks per iteration (kept incrementally so completion checks are
    /// O(log iterations)).
    counts: BTreeMap<u64, usize>,
    /// Iterations marked complete and still held for snapshot catch-up
    /// (the serving tier's late joiners read these); bounded by the
    /// retain window passed to [`VariableStore::gc_completed`].
    completed: BTreeSet<u64>,
}

fn iter_range(iteration: u64) -> (Bound<BlockKey>, Bound<BlockKey>) {
    (
        Bound::Included((iteration, 0, 0, 0)),
        Bound::Included((iteration, u32::MAX, usize::MAX, u32::MAX)),
    )
}

impl VariableStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index a block.
    pub fn insert(&mut self, block: StoredBlock) {
        let lo = (block.iteration, block.variable.raw(), block.source, 0);
        let hi = (
            block.iteration,
            block.variable.raw(),
            block.source,
            u32::MAX,
        );
        // Repeated writes of the same (iteration, variable, source) get
        // increasing seq numbers so none is silently replaced.
        let seq = self
            .by_key
            .range((Bound::Included(lo), Bound::Included(hi)))
            .next_back()
            .map(|(&(_, _, _, s), _)| s + 1)
            .unwrap_or(0);
        *self.counts.entry(block.iteration).or_insert(0) += 1;
        self.by_key.insert(
            (block.iteration, block.variable.raw(), block.source, seq),
            block,
        );
    }

    /// All blocks of an iteration (any variable, any source), ordered by
    /// `(variable, source)`.
    pub fn iteration_blocks(&self, iteration: u64) -> impl Iterator<Item = &StoredBlock> {
        self.by_key.range(iter_range(iteration)).map(|(_, b)| b)
    }

    /// Number of blocks held for an iteration — O(log iterations).
    pub fn count(&self, iteration: u64) -> usize {
        self.counts.get(&iteration).copied().unwrap_or(0)
    }

    /// Mark an iteration complete (every expected block indexed). The
    /// blocks stay in the store until [`VariableStore::gc_completed`]
    /// rotates them out of the retain window.
    pub fn mark_complete(&mut self, iteration: u64) {
        self.completed.insert(iteration);
    }

    /// Snapshot of one iteration: cloned blocks ordered by `(variable,
    /// source)` — one range scan of the ordered index. Clones hold
    /// [`BlockRef`]s, so the snapshot stays readable even if the store
    /// GCs the iteration afterwards.
    pub fn snapshot(&self, iteration: u64) -> Vec<StoredBlock> {
        self.iteration_blocks(iteration).cloned().collect()
    }

    /// Garbage-collect completed iterations beyond the retain window:
    /// keep the newest `retain` completed iterations, drop the rest.
    /// Returns the dropped blocks so callers can release them outside
    /// any lock. `retain == 0` reclaims every completed iteration
    /// immediately (the no-serving default).
    pub fn gc_completed(&mut self, retain: usize) -> Vec<StoredBlock> {
        let mut dropped = Vec::new();
        while self.completed.len() > retain {
            // `completed` is ordered, so the first entry is the oldest.
            let oldest = *self.completed.iter().next().expect("len checked");
            self.completed.remove(&oldest);
            dropped.extend(self.remove_iteration(oldest));
        }
        dropped
    }

    /// Drop an iteration's blocks, releasing their shared memory.
    /// Returns the removed blocks ordered by `(variable, source)`;
    /// callers may still hold clones.
    fn remove_iteration(&mut self, iteration: u64) -> Vec<StoredBlock> {
        if self.counts.remove(&iteration).is_none() {
            return Vec::new();
        }
        // Split the map at the iteration's bounds: everything below stays,
        // the iteration itself is returned, everything above is re-attached.
        let mut upper = self.by_key.split_off(&(iteration, 0, 0, 0));
        if let Some(next) = iteration.checked_add(1) {
            let mut rest = upper.split_off(&(next, 0, 0, 0));
            self.by_key.append(&mut rest);
        }
        upper.into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use damaris_shm::SharedSegment;

    fn var(raw: u32) -> VarId {
        VarId::from_raw(raw)
    }

    fn block(seg: &SharedSegment, v: VarId, it: u64, src: usize, val: f64) -> StoredBlock {
        let mut b = seg.allocate(8).unwrap();
        b.write_pod(&[val]);
        StoredBlock {
            variable: v,
            source: src,
            iteration: it,
            data: b.freeze(),
        }
    }

    /// `(variable, source, value)` of an iteration's blocks, in index order.
    fn keys(store: &VariableStore, it: u64) -> Vec<(VarId, usize, f64)> {
        store
            .iteration_blocks(it)
            .map(|b| (b.variable, b.source, b.data.as_pod::<f64>()[0]))
            .collect()
    }

    #[test]
    fn iteration_blocks_come_back_ordered_by_variable_then_source() {
        let seg = SharedSegment::new(4096).unwrap();
        let mut store = VariableStore::new();
        let (u, v) = (var(0), var(1));
        store.insert(block(&seg, v, 0, 0, 3.0));
        store.insert(block(&seg, u, 0, 1, 1.0));
        store.insert(block(&seg, u, 0, 0, 2.0));
        store.insert(block(&seg, u, 1, 0, 4.0));

        assert_eq!(store.count(0), 3);
        assert_eq!(store.count(1), 1);
        assert_eq!(keys(&store, 0), vec![(u, 0, 2.0), (u, 1, 1.0), (v, 0, 3.0)]);
        assert_eq!(keys(&store, 1), vec![(u, 0, 4.0)]);
    }

    #[test]
    fn repeated_writes_of_same_block_are_all_kept() {
        let seg = SharedSegment::new(4096).unwrap();
        let mut store = VariableStore::new();
        let u = var(0);
        store.insert(block(&seg, u, 0, 0, 1.0));
        store.insert(block(&seg, u, 0, 0, 2.0));
        assert_eq!(store.count(0), 2, "seq keeps duplicates distinct");
        assert_eq!(
            keys(&store, 0),
            vec![(u, 0, 1.0), (u, 0, 2.0)],
            "in write order"
        );
    }

    #[test]
    fn gc_releases_memory_and_leaves_other_iterations_alone() {
        let seg = SharedSegment::new(4096).unwrap();
        let mut store = VariableStore::new();
        let u = var(0);
        store.insert(block(&seg, u, 0, 0, 1.0));
        store.insert(block(&seg, u, 0, 1, 2.0));
        store.insert(block(&seg, u, 1, 0, 3.0));
        store.mark_complete(0);
        let dropped = store.gc_completed(0);
        assert_eq!(dropped.len(), 2);
        drop(dropped);
        assert_eq!(store.count(0), 0);
        assert_eq!(keys(&store, 1), vec![(u, 0, 3.0)], "iteration 1 untouched");
        store.mark_complete(1);
        drop(store.gc_completed(0));
        assert_eq!(seg.used_bytes(), 0, "blocks freed after store GC");
        assert!(store.gc_completed(0).is_empty(), "nothing left to collect");
    }

    #[test]
    fn last_iteration_boundary_is_safe() {
        let seg = SharedSegment::new(4096).unwrap();
        let mut store = VariableStore::new();
        store.insert(block(&seg, var(0), u64::MAX, 0, 1.0));
        store.insert(block(&seg, var(0), u64::MAX - 1, 0, 2.0));
        assert_eq!(store.count(u64::MAX), 1);
        store.mark_complete(u64::MAX);
        assert_eq!(store.gc_completed(0).len(), 1);
        assert_eq!(store.count(u64::MAX), 0);
        assert_eq!(store.count(u64::MAX - 1), 1, "the step below stays");
    }

    #[test]
    fn snapshot_survives_gc() {
        let seg = SharedSegment::new(4096).unwrap();
        let mut store = VariableStore::new();
        let (u, v) = (var(0), var(1));
        store.insert(block(&seg, v, 3, 1, 4.0));
        store.insert(block(&seg, u, 3, 0, 3.0));
        store.mark_complete(3);

        let snap = store.snapshot(3);
        assert_eq!(snap.len(), 2);
        assert_eq!(
            (snap[0].variable, snap[0].source),
            (u, 0),
            "range scan comes back (variable, source)-ordered"
        );
        assert_eq!((snap[1].variable, snap[1].source), (v, 1));

        // GC with retain=0 empties the store, but the snapshot's clones
        // keep the shared memory alive until the last reader drops them.
        let dropped = store.gc_completed(0);
        assert_eq!(dropped.len(), 2);
        drop(dropped);
        assert_eq!(store.count(3), 0);
        assert!(seg.used_bytes() > 0, "snapshot clones pin the bytes");
        assert_eq!(snap[1].data.as_pod::<f64>()[0], 4.0);
        drop(snap);
        assert_eq!(seg.used_bytes(), 0);
    }

    #[test]
    fn gc_respects_retain_window() {
        let seg = SharedSegment::new(1 << 16).unwrap();
        let mut store = VariableStore::new();
        for it in 0..5 {
            store.insert(block(&seg, var(0), it, 0, it as f64));
            store.mark_complete(it);
            drop(store.gc_completed(2));
        }
        // The two newest completed iterations survive for catch-up.
        let held = |store: &VariableStore| -> Vec<u64> {
            (0..8).filter(|&it| store.count(it) > 0).collect()
        };
        assert_eq!(held(&store), vec![3, 4]);
        assert!(!store.snapshot(4).is_empty());
        // Widening the window later never resurrects dropped iterations.
        assert!(store.gc_completed(3).is_empty());
        assert_eq!(held(&store), vec![3, 4]);
        // An incomplete iteration is never GCed, whatever the window.
        store.insert(block(&seg, var(0), 7, 0, 7.0));
        let dropped = store.gc_completed(0);
        assert_eq!(dropped.len(), 2, "only the completed pair went");
        drop(dropped);
        assert_eq!(held(&store), vec![7]);
    }

    #[test]
    fn empty_queries_are_safe() {
        let mut store = VariableStore::new();
        assert_eq!(store.count(9), 0);
        assert_eq!(store.iteration_blocks(3).count(), 0);
        assert!(store.snapshot(3).is_empty());
        assert!(store.gc_completed(0).is_empty());
        // Completing an iteration that holds no blocks is harmless too.
        store.mark_complete(9);
        assert!(store.gc_completed(0).is_empty());
    }
}
