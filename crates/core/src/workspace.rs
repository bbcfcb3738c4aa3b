//! Reusable per-run scratch for the multi-phase reduction loop.
//!
//! Every phase of the Theorem 1.1 reduction runs the oracle on the
//! phase's conflict graph and commits. [`PhaseWorkspace`] owns the
//! oracle-side scratch once per *run*: the trusting and resilient
//! drivers thread it through the dense oracle dispatch
//! ([`MaxIsOracle::independent_set_dense`] gets the [`BitsetScratch`])
//! and the optional fingerprint-keyed oracle memo (`OracleCache`), so
//! later phases and later runs reuse those buffers instead of hitting
//! the allocator. It holds no graph: the `G_k` kernel builds each
//! phase graph, restriction included.
//!
//! A workspace carries **no semantic state**: running two reductions
//! back-to-back through one workspace yields byte-identical outcomes
//! to two fresh-allocation runs (the workspace-reuse tests pin this).
//! The one deliberate exception is the oracle memo, which only ever
//! returns a set the oracle itself produced for a graph with the same
//! fingerprint — and is consulted only when
//! [`ReductionConfig::oracle_cache`] is explicitly enabled.
//!
//! [`MaxIsOracle::independent_set_dense`]: pslocal_maxis::MaxIsOracle::independent_set_dense
//! [`ReductionConfig::oracle_cache`]: crate::ReductionConfig::oracle_cache

use crate::conflict_graph::ConflictGraph;
use pslocal_graph::{BitsetScratch, IndependentSet, NodeId};

/// Default number of memoized phase answers `OracleCache` retains.
/// Phases see a shrinking chain of restrictions, so a repeat — the
/// memo's whole reason to exist — is almost always recent.
const CACHE_CAPACITY: usize = 16;

/// Per-run scratch buffers for the phase loop — see the module docs.
///
/// Construct once ([`PhaseWorkspace::new`] or `Default`), lend to any
/// number of reduction runs via
/// [`reduce_cf_to_maxis_with_workspace`](crate::reduction::reduce_cf_to_maxis_with_workspace).
#[derive(Debug, Default)]
pub struct PhaseWorkspace {
    /// Word-parallel scratch for the dense oracle kernels.
    pub(crate) scratch: BitsetScratch,
    /// Fingerprint-keyed memo of whole-phase oracle answers.
    pub(crate) cache: OracleCache,
}

impl PhaseWorkspace {
    /// An empty workspace; buffers grow to steady-state size during the
    /// first run and are reused from then on.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A small LRU memo of whole-phase oracle answers, keyed by the
/// conflict graph's structural fingerprint.
///
/// A hit is only trusted after re-verifying independence on the
/// *current* graph (`ConflictGraph::verify_independent`) — the 64-bit
/// fingerprint makes a collision astronomically unlikely, and the
/// verification keeps even that case from corrupting a run. A stored
/// set that fails verification is a [`CacheLookup::Reject`]: the
/// colliding entry is **evicted** (it answers for a graph that no
/// longer hashes to this slot's meaning) and the caller falls through
/// to the oracle, counting an `OracleCacheRejects`.
#[derive(Debug, Default)]
pub(crate) struct OracleCache {
    /// `(fingerprint, oracle answer)`, least-recently-used first.
    entries: Vec<(u64, Vec<NodeId>)>,
}

/// Outcome of a verified cache lookup — see
/// [`OracleCache::get_verified`].
#[derive(Debug)]
pub(crate) enum CacheLookup {
    /// The stored set verified against the current graph.
    Hit(IndependentSet),
    /// Fingerprint matched but the stored set is not independent in the
    /// current graph (a collision); the entry has been evicted.
    Reject,
    /// No entry for this fingerprint.
    Miss,
}

impl OracleCache {
    /// Looks up `fingerprint` and re-verifies the stored set against
    /// `cg`. A verified hit refreshes the entry's LRU position; a
    /// failed verification evicts the colliding entry and reports
    /// [`CacheLookup::Reject`] so the caller can fall through to the
    /// oracle.
    pub(crate) fn get_verified(&mut self, fingerprint: u64, cg: &ConflictGraph) -> CacheLookup {
        let Some(pos) = self.entries.iter().position(|(fp, _)| *fp == fingerprint) else {
            return CacheLookup::Miss;
        };
        if let Some(set) = cg.verified_set(self.entries[pos].1.clone()) {
            let entry = self.entries.remove(pos);
            self.entries.push(entry);
            CacheLookup::Hit(set)
        } else {
            self.entries.remove(pos);
            CacheLookup::Reject
        }
    }

    /// Raw unverified lookup, refreshing the LRU position on a hit
    /// (tests only — drivers go through
    /// [`get_verified`](Self::get_verified)).
    #[cfg(test)]
    pub(crate) fn get(&mut self, fingerprint: u64) -> Option<Vec<NodeId>> {
        let pos = self.entries.iter().position(|(fp, _)| *fp == fingerprint)?;
        let entry = self.entries.remove(pos);
        let set = entry.1.clone();
        self.entries.push(entry);
        Some(set)
    }

    /// Records `set` as the oracle's answer for `fingerprint`, evicting
    /// the least-recently-used entry beyond capacity.
    pub(crate) fn insert(&mut self, fingerprint: u64, set: Vec<NodeId>) {
        if let Some(pos) = self.entries.iter().position(|(fp, _)| *fp == fingerprint) {
            self.entries.remove(pos);
        }
        self.entries.push((fingerprint, set));
        if self.entries.len() > CACHE_CAPACITY {
            self.entries.remove(0);
        }
    }

    /// Number of memoized answers (tests).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pslocal_graph::Hypergraph;

    fn set_of(vs: &[usize]) -> Vec<NodeId> {
        vs.iter().copied().map(NodeId::new).collect()
    }

    #[test]
    fn verified_lookup_evicts_colliding_entry() {
        // A conflict graph whose block 0 is a clique: nodes 0 and 1 are
        // adjacent, so a cached "answer" containing both cannot be
        // independent — exactly what a fingerprint collision would
        // smuggle in.
        let h = Hypergraph::from_edges(3, [vec![0, 1, 2]]).unwrap();
        let cg = ConflictGraph::build(&h, 2);
        let fp = cg.fingerprint();
        let mut c = OracleCache::default();
        c.insert(fp, set_of(&[0, 1]));
        match c.get_verified(fp, &cg) {
            CacheLookup::Reject => {}
            other => panic!("colliding entry must be rejected, got {other:?}"),
        }
        // The poisoned entry is gone: the next lookup is a clean miss,
        // not a repeat rejection.
        assert!(matches!(c.get_verified(fp, &cg), CacheLookup::Miss));
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn verified_lookup_returns_and_retains_good_entry() {
        let h = Hypergraph::from_edges(3, [vec![0, 1, 2]]).unwrap();
        let cg = ConflictGraph::build(&h, 2);
        let fp = cg.fingerprint();
        let mut c = OracleCache::default();
        c.insert(fp, set_of(&[0]));
        match c.get_verified(fp, &cg) {
            CacheLookup::Hit(set) => assert_eq!(set.vertices(), set_of(&[0]).as_slice()),
            other => panic!("verified entry must hit, got {other:?}"),
        }
        assert_eq!(c.len(), 1, "a verified hit stays cached");
    }

    #[test]
    fn cache_round_trips_and_misses() {
        let mut c = OracleCache::default();
        assert_eq!(c.get(1), None);
        c.insert(1, set_of(&[0, 2]));
        assert_eq!(c.get(1), Some(set_of(&[0, 2])));
        assert_eq!(c.get(2), None);
        // Re-inserting the same key replaces, not duplicates.
        c.insert(1, set_of(&[5]));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(1), Some(set_of(&[5])));
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let mut c = OracleCache::default();
        for fp in 0..CACHE_CAPACITY as u64 {
            c.insert(fp, set_of(&[fp as usize]));
        }
        assert_eq!(c.len(), CACHE_CAPACITY);
        // Touch key 0 so key 1 becomes the LRU victim.
        assert!(c.get(0).is_some());
        c.insert(999, set_of(&[7]));
        assert_eq!(c.len(), CACHE_CAPACITY);
        assert!(c.get(0).is_some(), "recently-touched entry survives");
        assert_eq!(c.get(1), None, "LRU entry was evicted");
        assert!(c.get(999).is_some());
    }
}
