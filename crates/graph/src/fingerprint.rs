//! Structural fingerprints (order-sensitive FNV-1a).
//!
//! One shared 64-bit FNV-1a stream underlies every fingerprint in the
//! workspace: the crash-recovery journal pins conflict graphs and
//! instances with them, the oracle memoization cache keys phase graphs
//! with them, and the Luby oracle derives its per-component RNG stream
//! from a component's degree sequence ([`degree_fingerprint`]), so
//! component-parallel and serial runs draw identical randomness. The
//! byte layout is therefore **frozen**: changing it silently
//! invalidates on-disk journals and changes Luby's sets.
//!
//! The stream is defined byte by byte: each `u64` word feeds its eight
//! little-endian bytes through `h = (h ^ byte) · PRIME`. `Fnv1a::word`
//! computes exactly that value with fewer dependent multiplies. XOR
//! with a zero byte is the identity, so the bytes above a word's
//! highest nonzero byte fold into one multiply by `PRIME^z`: a vertex
//! id below 2^16 costs 2 multiplies instead of 8. The stream, and so
//! every stored fingerprint, is unchanged; the tests pin the fold to
//! the byte-at-a-time definition.
//!
//! A [`Graph`] is immutable, so it computes its fingerprint once and
//! memoizes it ([`Graph::fingerprint`]). Only the journal's per-phase
//! pin and the oracle cache read a graph's fingerprint; Luby's seed
//! reads degrees, in `O(n)`, not the `O(|E|)` adjacency hash.
//! [`BitsetGraph`] and [`Hypergraph`] fingerprints are not memoized.

use crate::{bitset::BitsetGraph, Graph, Hypergraph};

/// FNV-1a 64-bit running hash over `u64` words, one byte at a time in
/// little-endian order (computed with the zero-byte fold, see the
/// module docs).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    /// `PRIME^z`: the multiplies of a word's last hashed byte and of
    /// the `z - 1` zero bytes above it, folded into one.
    const PRIME_6: u64 = Self::PRIME.wrapping_pow(6);
    const PRIME_7: u64 = Self::PRIME.wrapping_pow(7);
    const PRIME_8: u64 = Self::PRIME.wrapping_pow(8);

    pub(crate) fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Feeds `v`'s eight little-endian bytes. A word below 2^8, 2^16 or
    /// 2^24 XORs in only its low one, two or three bytes: XOR with the
    /// zero bytes above is the identity, so their multiplies fold into
    /// the last byte's. Wider words take the byte loop.
    pub(crate) fn word(&mut self, v: u64) {
        let h = self.0;
        self.0 = if v < 1 << 8 {
            (h ^ v).wrapping_mul(Self::PRIME_8)
        } else if v < 1 << 16 {
            let h = (h ^ (v & 0xff)).wrapping_mul(Self::PRIME);
            (h ^ (v >> 8)).wrapping_mul(Self::PRIME_7)
        } else if v < 1 << 24 {
            let h = (h ^ (v & 0xff)).wrapping_mul(Self::PRIME);
            let h = (h ^ ((v >> 8) & 0xff)).wrapping_mul(Self::PRIME);
            (h ^ (v >> 16)).wrapping_mul(Self::PRIME_6)
        } else {
            let bytes = v.to_le_bytes();
            bytes.iter().fold(h, |h, &byte| (h ^ byte as u64).wrapping_mul(Self::PRIME))
        };
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a fold of a degree sequence: its length, then every degree in
/// order, as one word each.
///
/// The Luby oracle seeds each connected component's RNG stream with
/// this fold of the component's members' degrees in ascending id order.
/// A component is closed under adjacency, so those are its induced
/// degrees, and the value is the same whether the component is read in
/// place or as a renumbered copy. It costs `O(n)`, where
/// [`Graph::fingerprint`] hashes every adjacency entry.
///
/// # Examples
///
/// ```
/// use pslocal_graph::fingerprint::degree_fingerprint;
///
/// assert_eq!(degree_fingerprint([2, 2, 2].into_iter()), degree_fingerprint(vec![2; 3].into_iter()));
/// assert_ne!(degree_fingerprint([1, 1].into_iter()), degree_fingerprint([1, 1, 0].into_iter()));
/// ```
pub fn degree_fingerprint(degrees: impl ExactSizeIterator<Item = usize>) -> u64 {
    let mut f = Fnv1a::new();
    f.word(degrees.len() as u64);
    for d in degrees {
        f.word(d as u64);
    }
    f.finish()
}

impl Graph {
    /// Order-sensitive FNV-1a fingerprint of the CSR structure: vertex
    /// count, edge count, and every adjacency row in order.
    ///
    /// Identical to the fingerprint the crash-recovery journal stores
    /// per phase record (`pslocal-core`'s `ConflictGraph::fingerprint`
    /// delegates here), so the value is stable across releases.
    ///
    /// The first call hashes every adjacency entry; the graph is
    /// immutable, so later calls, on it or on its clones, return the
    /// memoized value.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint_memo().get_or_init(|| {
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
        })
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
        let mut buf = Vec::new();
        for v in 0..self.node_count() {
            f.word(self.degree(crate::NodeId::new(v)) as u64);
            for (wi, &w) in self.row(crate::NodeId::new(v), &mut buf).iter().enumerate() {
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
    use crate::generators::hyper::{planted_cf_instance, PlantedCfParams};
    use crate::generators::random::{gnm, gnp};
    use rand::{Rng, SeedableRng};

    /// FNV-1a by its definition, from state `h`: every little-endian
    /// byte of every word, one dependent multiply each.
    fn bytewise(mut h: u64, words: &[u64]) -> u64 {
        for w in words {
            for byte in w.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(Fnv1a::PRIME);
            }
        }
        h
    }

    /// The word stream of [`Graph::fingerprint`], spelled out.
    fn graph_words(g: &Graph) -> Vec<u64> {
        let mut words = vec![g.node_count() as u64, g.edge_count() as u64];
        for v in g.nodes() {
            words.push(g.degree(v) as u64);
            words.extend(g.neighbors(v).iter().map(|u| u.index() as u64));
        }
        words
    }

    #[test]
    fn word_fold_matches_the_bytewise_definition() {
        let boundaries =
            [0, 0xff, 0x100, 0xffff, 0x1_0000, 0xff_ffff, 0x100_0000, u32::MAX as u64, u64::MAX];
        for w in boundaries {
            let mut f = Fnv1a::new();
            f.word(w);
            assert_eq!(f.finish(), bytewise(Fnv1a::OFFSET, &[w]), "word {w:#x}");
        }
        // Seeded words of every bit width, each from a seeded state.
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        for _ in 0..4096 {
            let state: u64 = rng.gen();
            let w = rng.gen::<u64>() >> rng.gen_range(0..64);
            let mut f = Fnv1a(state);
            f.word(w);
            assert_eq!(f.finish(), bytewise(state, &[w]), "word {w:#x} from {state:#x}");
        }
    }

    #[test]
    fn structure_fingerprints_match_the_bytewise_definition() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        // Vertex ids below 2^8, below 2^16, and (n = 70 000) below 2^24.
        for g in [gnp(&mut rng, 200, 0.1), gnp(&mut rng, 400, 0.05), gnm(&mut rng, 70_000, 3000)] {
            let expected = bytewise(Fnv1a::OFFSET, &graph_words(&g));
            assert_eq!(g.fingerprint(), expected);
            if g.node_count() <= 400 {
                assert_eq!(g.to_bitset().fingerprint(), expected);
            }
        }
        for n in [300, 70_000] {
            let h = planted_cf_instance(&mut rng, PlantedCfParams::new(n, 40, 4)).hypergraph;
            let mut words = vec![h.node_count() as u64, h.edge_count() as u64];
            for e in h.edge_ids() {
                words.push(h.edge(e).len() as u64);
                words.extend(h.edge(e).iter().map(|v| v.index() as u64));
            }
            assert_eq!(h.fingerprint(), bytewise(Fnv1a::OFFSET, &words));
        }
    }

    #[test]
    fn degree_fingerprint_matches_the_bytewise_definition() {
        let degrees = [0usize, 3, 255, 256, 70_000, 1 << 30];
        let mut words = vec![degrees.len() as u64];
        words.extend(degrees.iter().map(|&d| d as u64));
        assert_eq!(degree_fingerprint(degrees.into_iter()), bytewise(Fnv1a::OFFSET, &words));
        assert_eq!(degree_fingerprint(std::iter::empty()), bytewise(Fnv1a::OFFSET, &[0]));
    }

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
