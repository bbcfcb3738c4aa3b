//! Structural fingerprints (order-sensitive FNV-1a).
//!
//! One shared 64-bit FNV-1a stream underlies every fingerprint in the
//! workspace: the crash-recovery journal pins conflict graphs and
//! instances with them, the oracle memoization cache keys phase graphs
//! with them, and the Luby oracle derives its per-component RNG stream
//! from them (so component-parallel and serial runs draw identical
//! randomness). The byte layout is therefore **frozen**: changing it
//! silently invalidates on-disk journals.

use crate::{bitset::BitsetGraph, Graph, Hypergraph};

/// FNV-1a 64-bit running hash over `u64` words, one byte at a time in
/// little-endian order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    pub(crate) fn word(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

impl Graph {
    /// Order-sensitive FNV-1a fingerprint of the CSR structure: vertex
    /// count, edge count, and every adjacency row in order.
    ///
    /// Identical to the fingerprint the crash-recovery journal stores
    /// per phase record (`pslocal-core`'s `ConflictGraph::fingerprint`
    /// delegates here), so the value is stable across releases.
    pub fn fingerprint(&self) -> u64 {
        let mut f = Fnv1a::new();
        f.word(self.node_count() as u64);
        f.word(self.edge_count() as u64);
        for v in self.nodes() {
            let row = self.neighbors(v);
            f.word(row.len() as u64);
            for &u in row {
                f.word(u.index() as u64);
            }
        }
        f.finish()
    }
}

impl Hypergraph {
    /// Order-sensitive FNV-1a fingerprint of the instance: vertex
    /// count, edge count, and every hyperedge's members in order.
    ///
    /// Identical to the instance fingerprint in the crash-recovery
    /// journal header (`pslocal-core`'s `fingerprint_hypergraph`
    /// delegates here).
    pub fn fingerprint(&self) -> u64 {
        let mut f = Fnv1a::new();
        f.word(self.node_count() as u64);
        f.word(self.edge_count() as u64);
        for e in self.edge_ids() {
            let members = self.edge(e);
            f.word(members.len() as u64);
            for &v in members {
                f.word(v.index() as u64);
            }
        }
        f.finish()
    }
}

impl BitsetGraph {
    /// Fingerprint of the dense representation, **equal to**
    /// [`Graph::fingerprint`] of the CSR graph it mirrors: the bit rows
    /// are walked in ascending vertex order, reproducing the adjacency
    /// rows without materializing them.
    pub fn fingerprint(&self) -> u64 {
        let mut f = Fnv1a::new();
        f.word(self.node_count() as u64);
        f.word(self.edge_count() as u64);
        for v in 0..self.node_count() {
            f.word(self.degree(crate::NodeId::new(v)) as u64);
            for (wi, &w) in self.row(crate::NodeId::new(v)).iter().enumerate() {
                let mut m = w;
                while m != 0 {
                    f.word((wi * 64) as u64 + m.trailing_zeros() as u64);
                    m &= m - 1;
                }
            }
        }
        f.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::classic::cycle;
    use crate::generators::random::gnp;
    use rand::SeedableRng;

    #[test]
    fn graph_fingerprint_is_structure_sensitive() {
        let a = cycle(8).fingerprint();
        let b = cycle(9).fingerprint();
        assert_ne!(a, b);
        assert_eq!(a, cycle(8).fingerprint());
    }

    #[test]
    fn bitset_fingerprint_matches_csr_fingerprint() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for _ in 0..10 {
            let g = gnp(&mut rng, 90, 0.15);
            assert_eq!(g.fingerprint(), g.to_bitset().fingerprint());
        }
        let g = Graph::empty(0);
        assert_eq!(g.fingerprint(), g.to_bitset().fingerprint());
    }

    #[test]
    fn hypergraph_fingerprint_distinguishes_instances() {
        let h1 = Hypergraph::from_edges(3, [vec![0, 1], vec![1, 2]]).unwrap();
        let h2 = Hypergraph::from_edges(3, [vec![0, 1], vec![0, 2]]).unwrap();
        assert_ne!(h1.fingerprint(), h2.fingerprint());
        assert_eq!(h1.fingerprint(), h1.clone().fingerprint());
    }
}
