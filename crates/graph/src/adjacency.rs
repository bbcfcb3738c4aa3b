//! One read interface over the two adjacency forms.
//!
//! A graph is held either as CSR rows ([`Graph`]) or as bit rows
//! ([`BitsetGraph`]). Code that serves both forms — the verified-set
//! constructor [`IndependentSet::new`](crate::IndependentSet::new), the
//! oracles' λ guarantees, and the oracles that run one kernel on either
//! form — reads a graph through [`Adjacency`], whose two impls call the
//! kernel each form already has. Callers take `&impl Adjacency`, so each
//! form's calls are monomorphized: reading through the trait costs
//! nothing over calling the kernels directly.

use crate::algo::traversal::{component_vertex_sets, component_vertex_sets_dense};
use crate::{BitsetGraph, Graph, NodeId, NotIndependentError};

/// What code that serves CSR and bit rows alike reads of a graph.
///
/// Both impls answer every method identically on the same graph;
/// `bitset::tests::independence_check_matches_csr` checks it for
/// [`first_conflict`](Self::first_conflict).
pub trait Adjacency {
    /// Number of vertices.
    fn node_count(&self) -> usize;

    /// Degree of `v`.
    fn degree(&self, v: NodeId) -> usize;

    /// Maximum degree Δ (0 for the empty graph).
    fn max_degree(&self) -> usize;

    /// Whether `f` holds for some neighbor of `v`, visiting the
    /// neighbors in some order until it does.
    fn any_neighbor(&self, v: NodeId, f: impl FnMut(NodeId) -> bool) -> bool;

    /// Why `vs` is not an independent set, or `None` when it is: the
    /// first vertex of `vs` out of range if there is one, else the first
    /// `v` of `vs` with a neighbor in `vs`, paired with its least such
    /// neighbor.
    fn first_conflict(&self, vs: &[NodeId]) -> Option<NotIndependentError>;

    /// The connected components, ordered by smallest member, each in
    /// ascending vertex order.
    fn components(&self) -> Vec<Vec<NodeId>>;
}

/// The first vertex of `vs` outside `0..n`, as an error.
fn out_of_range(vs: &[NodeId], n: usize) -> Option<NotIndependentError> {
    let v = *vs.iter().find(|v| v.index() >= n)?;
    Some(NotIndependentError { conflicting_pair: None, out_of_range: Some(v) })
}

/// CSR rows, whose neighbor lists are sorted.
impl Adjacency for Graph {
    fn node_count(&self) -> usize {
        Graph::node_count(self)
    }

    fn degree(&self, v: NodeId) -> usize {
        Graph::degree(self, v)
    }

    fn max_degree(&self) -> usize {
        Graph::max_degree(self)
    }

    fn any_neighbor(&self, v: NodeId, f: impl FnMut(NodeId) -> bool) -> bool {
        self.neighbors(v).iter().copied().any(f)
    }

    /// A membership array, then each member's neighbor list scanned for
    /// a member, in `O(n + Σ_{v ∈ vs} deg(v))`.
    fn first_conflict(&self, vs: &[NodeId]) -> Option<NotIndependentError> {
        if let Some(err) = out_of_range(vs, self.node_count()) {
            return Some(err);
        }
        let mut member = vec![false; self.node_count()];
        for &v in vs {
            member[v.index()] = true;
        }
        vs.iter().find_map(|&v| {
            let u = *self.neighbors(v).iter().find(|u| member[u.index()])?;
            Some(NotIndependentError { conflicting_pair: Some((v, u)), out_of_range: None })
        })
    }

    fn components(&self) -> Vec<Vec<NodeId>> {
        component_vertex_sets(self)
    }
}

/// Bit rows: a neighbor visit reads the row's group list and ranges,
/// and the independence check is word-parallel.
impl Adjacency for BitsetGraph {
    fn node_count(&self) -> usize {
        BitsetGraph::node_count(self)
    }

    fn degree(&self, v: NodeId) -> usize {
        BitsetGraph::degree(self, v)
    }

    fn max_degree(&self) -> usize {
        BitsetGraph::max_degree(self)
    }

    fn any_neighbor(&self, v: NodeId, f: impl FnMut(NodeId) -> bool) -> bool {
        BitsetGraph::any_neighbor(self, v, f)
    }

    /// A membership mask, then each member's row ANDed with it word by
    /// word, in `O(|vs|·words)`.
    fn first_conflict(&self, vs: &[NodeId]) -> Option<NotIndependentError> {
        if let Some(err) = out_of_range(vs, self.node_count()) {
            return Some(err);
        }
        let mut member = vec![0u64; self.words()];
        for &v in vs {
            member[v.index() / 64] |= 1u64 << (v.index() % 64);
        }
        let mut buf = Vec::new();
        vs.iter().find_map(|&v| {
            let row = self.row(v, &mut buf).iter().zip(&member);
            let (wi, hit) = row.map(|(&r, &m)| r & m).enumerate().find(|&(_, hit)| hit != 0)?;
            let u = NodeId::new(wi * 64 + hit.trailing_zeros() as usize);
            Some(NotIndependentError { conflicting_pair: Some((v, u)), out_of_range: None })
        })
    }

    fn components(&self) -> Vec<Vec<NodeId>> {
        component_vertex_sets_dense(self)
    }
}
