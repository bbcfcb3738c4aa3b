//! Verified independent sets.
//!
//! Every MaxIS oracle in the workspace returns an [`IndependentSet`]
//! rather than a bare vertex list: the constructor verifies independence
//! against the host graph, in either adjacency form, so downstream code
//! (in particular the Theorem 1.1 reduction, whose correctness argument
//! leans on Lemma 2.1 applying to *actual* independent sets) never has
//! to re-check.

use crate::{Adjacency, Graph, NodeId};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Error returned when a claimed independent set is not independent (or
/// refers to vertices outside the graph).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotIndependentError {
    /// An offending adjacent pair, if independence failed; `None` when a
    /// vertex was out of range instead.
    pub conflicting_pair: Option<(NodeId, NodeId)>,
    /// An out-of-range vertex, if any.
    pub out_of_range: Option<NodeId>,
}

impl fmt::Display for NotIndependentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(v) = self.out_of_range {
            write!(f, "vertex {v} is outside the graph")
        } else if let Some((u, v)) = self.conflicting_pair {
            write!(f, "vertices {u} and {v} are adjacent")
        } else {
            write!(f, "set is not independent")
        }
    }
}

impl Error for NotIndependentError {}

/// An independent set of some graph, verified at construction on its
/// CSR or its bit rows.
///
/// The vertex list is sorted and duplicate free. The set remembers only
/// the vertices, not the graph; pair it with the graph it was built
/// from.
///
/// # Examples
///
/// ```
/// use pslocal_graph::{Graph, IndependentSet, NodeId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
/// let is = IndependentSet::new(&g, vec![NodeId::new(0), NodeId::new(2)])?;
/// assert_eq!(is.len(), 2);
/// assert!(is.contains(NodeId::new(0)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndependentSet {
    vertices: Vec<NodeId>,
}

impl IndependentSet {
    /// Verifies `vertices` against `graph` and wraps them.
    ///
    /// Duplicates are merged; the stored list is sorted.
    ///
    /// # Errors
    ///
    /// Returns [`NotIndependentError`] if a member is out of range (the
    /// least such), or else if two members are adjacent (the least
    /// member with a member neighbor, and its least one): the
    /// [`Adjacency::first_conflict`] of the sorted list, which is the
    /// same on both forms of a graph.
    pub fn new(
        graph: &impl Adjacency,
        mut vertices: Vec<NodeId>,
    ) -> Result<Self, NotIndependentError> {
        vertices.sort_unstable();
        vertices.dedup();
        match graph.first_conflict(&vertices) {
            Some(err) => Err(err),
            None => Ok(IndependentSet { vertices }),
        }
    }

    /// The empty independent set.
    pub fn empty() -> Self {
        IndependentSet { vertices: Vec::new() }
    }

    /// Wraps `vertices` **without** verifying independence or range.
    ///
    /// This is for fault injection alone: chaos testing must be able to
    /// hand downstream consumers a *claimed* independent set that is
    /// actually broken, so that their own re-validation (e.g. the
    /// resilient reduction driver's per-phase independence check) can
    /// be exercised. The list is still sorted and deduplicated so
    /// accessor invariants ([`contains`](Self::contains) binary search,
    /// ordered iteration) keep holding.
    ///
    /// Everywhere else, use [`IndependentSet::new`], which reads either
    /// adjacency form.
    pub fn new_unchecked(mut vertices: Vec<NodeId>) -> Self {
        vertices.sort_unstable();
        vertices.dedup();
        IndependentSet { vertices }
    }

    /// Number of vertices in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Sorted member vertices.
    #[inline]
    pub fn vertices(&self) -> &[NodeId] {
        &self.vertices
    }

    /// Membership test in `O(log |I|)`.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.vertices.binary_search(&v).is_ok()
    }

    /// Iterator over the members in increasing order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.vertices.iter().copied()
    }

    /// Consumes the set, returning the sorted vertex list.
    pub fn into_vertices(self) -> Vec<NodeId> {
        self.vertices
    }

    /// Whether the set is maximal in `graph` (no vertex can be added).
    pub fn is_maximal(&self, graph: &Graph) -> bool {
        graph.is_maximal_independent_set(&self.vertices)
    }
}

impl<'a> IntoIterator for &'a IndependentSet {
    type Item = NodeId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, NodeId>>;

    fn into_iter(self) -> Self::IntoIter {
        self.vertices.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn accepts_independent_vertices() {
        let g = path4();
        let is = IndependentSet::new(&g, vec![NodeId::new(3), NodeId::new(0)]).unwrap();
        assert_eq!(is.vertices(), &[NodeId::new(0), NodeId::new(3)]);
        assert!(is.contains(NodeId::new(3)));
        assert!(!is.contains(NodeId::new(1)));
    }

    #[test]
    fn rejects_adjacent_vertices() {
        let g = path4();
        let err = IndependentSet::new(&g, vec![NodeId::new(1), NodeId::new(2)]).unwrap_err();
        assert!(err.conflicting_pair.is_some());
        assert!(err.to_string().contains("adjacent"));
    }

    #[test]
    fn rejects_out_of_range() {
        let g = path4();
        let err = IndependentSet::new(&g, vec![NodeId::new(9)]).unwrap_err();
        assert_eq!(err.out_of_range, Some(NodeId::new(9)));
        assert!(err.to_string().contains("outside"));
    }

    #[test]
    fn duplicates_are_merged() {
        let g = path4();
        let is = IndependentSet::new(&g, vec![NodeId::new(0), NodeId::new(0)]).unwrap();
        assert_eq!(is.len(), 1);
    }

    #[test]
    fn empty_set_is_valid_but_not_maximal_on_nonempty_graph() {
        let g = path4();
        let is = IndependentSet::empty();
        assert!(is.is_empty());
        assert!(!is.is_maximal(&g));
        let maximal = IndependentSet::new(&g, vec![NodeId::new(0), NodeId::new(2)]).unwrap();
        assert!(maximal.is_maximal(&g));
    }

    #[test]
    fn new_unchecked_skips_validation_but_normalizes() {
        let g = path4();
        // An adjacent pair the checked constructor would reject.
        let bad =
            IndependentSet::new_unchecked(vec![NodeId::new(2), NodeId::new(1), NodeId::new(2)]);
        assert_eq!(bad.vertices(), &[NodeId::new(1), NodeId::new(2)]);
        assert!(!g.is_independent_set(bad.vertices()));
        assert!(bad.contains(NodeId::new(2)));
    }

    #[test]
    fn iteration_and_into_vertices() {
        let g = path4();
        let is = IndependentSet::new(&g, vec![NodeId::new(2), NodeId::new(0)]).unwrap();
        let via_iter: Vec<_> = is.iter().collect();
        let via_ref: Vec<_> = (&is).into_iter().collect();
        assert_eq!(via_iter, via_ref);
        assert_eq!(is.into_vertices(), vec![NodeId::new(0), NodeId::new(2)]);
    }
}
