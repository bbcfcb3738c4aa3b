//! Hypergraph generators, most importantly the **planted conflict-free
//! instance** family.
//!
//! The hardness proof of Theorem 1.1 reduces from conflict-free
//! multicoloring on hypergraphs that "admit a conflict-free k-coloring
//! where each node only has a single color and k = polylog n". The
//! paper never constructs such hypergraphs (it inherits them from
//! \[GKM17\]); experiments need concrete ones with a *known* k, so
//! [`planted_cf_instance`] plants a hidden coloring `f : V → {0..k-1}`
//! and only emits hyperedges that `f` makes happy. Because `f` is
//! conflict-free for the whole edge set, it is conflict-free for every
//! residual subset `E_i` the reduction produces — exactly the property
//! the proof of Theorem 1.1 uses ("as H and also H_i ⊆ H admit a
//! conflictfree k-coloring").

use crate::palette::Palette;
use crate::{Color, Hypergraph, HypergraphBuilder, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;

/// A hypergraph with a planted (hidden) conflict-free `k`-coloring.
#[derive(Debug, Clone)]
pub struct PlantedCfInstance {
    /// The generated hypergraph `H = (V, E)`.
    pub hypergraph: Hypergraph,
    /// The planted coloring; `planted_coloring[v]` is the color of
    /// vertex `v`, drawn from [`Palette::base`]`(k)`.
    pub planted_coloring: Vec<Color>,
    /// Palette size of the planted coloring.
    pub k: usize,
    /// Almost-uniformity slack used during generation.
    pub epsilon: f64,
}

/// Parameters for [`planted_cf_instance`].
#[derive(Debug, Clone, Copy)]
pub struct PlantedCfParams {
    /// Number of vertices.
    pub n: usize,
    /// Number of hyperedges.
    pub m: usize,
    /// Palette size of the planted coloring (edge sizes start at `k`).
    pub k: usize,
    /// Almost-uniformity slack: edge sizes lie in `[k, (1+ε)·k]`.
    pub epsilon: f64,
}

impl PlantedCfParams {
    /// Convenient constructor with the paper's "small ε" default of 0.5.
    pub fn new(n: usize, m: usize, k: usize) -> Self {
        PlantedCfParams { n, m, k, epsilon: 0.5 }
    }

    /// Largest edge size the parameters allow: `⌊(1+ε)·k⌋`, clamped to
    /// `n`.
    pub fn max_edge_size(&self) -> usize {
        (((1.0 + self.epsilon) * self.k as f64).floor() as usize).clamp(self.k, self.n)
    }

    /// Checks that [`planted_cf_instance`] can realize the parameters:
    /// `k` is at least 1, `ε` is finite and not negative
    /// ([`max_edge_size`](Self::max_edge_size) would silently treat a
    /// negative or NaN one as 0), `n ≥ k`, and there are enough
    /// off-color vertices, i.e.
    /// `max_edge_size - 1 ≤ n - ⌈n/k⌉`, which for `k ≥ 2` holds
    /// whenever `n ≥ 4k`.
    ///
    /// # Errors
    ///
    /// A description of the first violated condition.
    pub fn check(&self) -> Result<(), String> {
        let PlantedCfParams { n, k, epsilon, .. } = *self;
        if k == 0 {
            return Err("palette size k must be positive".to_string());
        }
        if !(epsilon.is_finite() && epsilon >= 0.0) {
            return Err(format!("epsilon must be finite and non-negative, got {epsilon}"));
        }
        if n < k {
            return Err(format!("need at least k = {k} vertices, got {n}"));
        }
        let max_size = self.max_edge_size();
        let off_color = n - n.div_ceil(k);
        if max_size - 1 > off_color {
            return Err(format!(
                "infeasible planted instance: edges of size up to {max_size} need {} off-color \
                 vertices but only {off_color} exist (n = {n}, k = {k})",
                max_size - 1,
            ));
        }
        Ok(())
    }
}

/// Generates an almost-uniform hypergraph together with a planted
/// conflict-free `k`-coloring (see module docs).
///
/// Vertex colors are balanced (round-robin over a random permutation) so
/// every color class has `⌊n/k⌋` or `⌈n/k⌉` members. Each hyperedge
/// picks a uniform size `s ∈ [k, (1+ε)k]`, a uniform *witness* vertex
/// `w`, and `s - 1` further members whose planted color differs from
/// `f(w)` — hence `w`'s color is unique in the edge and the planted
/// coloring is conflict-free.
///
/// # Panics
///
/// Panics with the violated condition if the parameters are infeasible
/// (see [`PlantedCfParams::check`], which callers holding outside input
/// run first).
pub fn planted_cf_instance<R: Rng + ?Sized>(
    rng: &mut R,
    params: PlantedCfParams,
) -> PlantedCfInstance {
    // pslocal: allow(panic-path, "documented # Panics contract: infeasible parameters are a caller bug, and callers holding outside input run PlantedCfParams::check first")
    params.check().unwrap_or_else(|reason| panic!("{reason}"));
    let PlantedCfParams { n, m, k, epsilon } = params;
    let max_size = params.max_edge_size();

    // Balanced color assignment over a random permutation.
    let palette = Palette::base(k);
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(rng);
    let mut coloring = vec![Color::new(0); n];
    for (i, &v) in perm.iter().enumerate() {
        coloring[v] = palette.color(i % k);
    }

    // Index vertices by color class for fast off-color sampling.
    let mut classes: Vec<Vec<NodeId>> = vec![Vec::new(); k];
    for v in 0..n {
        // pslocal: allow(panic-path, "the loop above drew every color from this same palette, so index_of cannot miss")
        classes[palette.index_of(coloring[v]).expect("color from palette")].push(NodeId::new(v));
    }

    let mut builder = HypergraphBuilder::new(n);
    let mut scratch: Vec<NodeId> = Vec::with_capacity(n);
    for _ in 0..m {
        let size = rng.gen_range(k..=max_size);
        let witness = NodeId::new(rng.gen_range(0..n));
        // pslocal: allow(panic-path, "witness colors were drawn from this same palette during planting, so index_of cannot miss")
        let witness_class = palette.index_of(coloring[witness.index()]).expect("in palette");
        scratch.clear();
        for (c, class) in classes.iter().enumerate() {
            if c != witness_class {
                scratch.extend_from_slice(class);
            }
        }
        let (others, _) = scratch.partial_shuffle(rng, size - 1);
        let mut members = others.to_vec();
        members.push(witness);
        builder.add_edge(members);
    }

    PlantedCfInstance { hypergraph: builder.build(), planted_coloring: coloring, k, epsilon }
}

/// A disjoint union of `copies` independent planted instances: copy
/// `j` occupies vertices `j·n .. (j+1)·n` and contributes `m`
/// hyperedges drawn only from its own vertex block. The union is again
/// a planted conflict-free instance (the concatenated colorings
/// witness it), but hyperedges of different copies share no vertex, so
/// the Section 2 conflict graph `G_k` splits into **at least `copies`
/// connected components** (`E_vertex`/`E_edge`/`E_color` edges all
/// stay within one hyperedge's copy) — the workload the
/// component-parallel reduction drivers scale on.
///
/// # Panics
///
/// Panics if `copies == 0` or `params` are infeasible for a single
/// copy (see [`planted_cf_instance`]).
pub fn multi_component_cf_instance<R: Rng + ?Sized>(
    rng: &mut R,
    params: PlantedCfParams,
    copies: usize,
) -> PlantedCfInstance {
    assert!(copies >= 1, "need at least one planted copy");
    let PlantedCfParams { n, k, epsilon, .. } = params;
    let mut builder = HypergraphBuilder::new(n * copies);
    let mut coloring = Vec::with_capacity(n * copies);
    for j in 0..copies {
        let inst = planted_cf_instance(rng, params);
        let offset = j * n;
        for e in inst.hypergraph.edge_ids() {
            builder
                .add_edge(inst.hypergraph.edge(e).iter().map(|v| NodeId::new(v.index() + offset)));
        }
        coloring.extend(inst.planted_coloring);
    }
    PlantedCfInstance { hypergraph: builder.build(), planted_coloring: coloring, k, epsilon }
}

/// A random `s`-uniform hypergraph: `m` hyperedges, each a uniform
/// `s`-subset of the vertices.
///
/// # Panics
///
/// Panics if `s > n` or `s == 0`.
pub fn random_uniform_hypergraph<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    m: usize,
    s: usize,
) -> Hypergraph {
    assert!(s >= 1 && s <= n, "edge size {s} invalid for {n} vertices");
    let mut builder = HypergraphBuilder::new(n);
    let mut pool: Vec<NodeId> = (0..n).map(NodeId::new).collect();
    for _ in 0..m {
        let (chosen, _) = pool.partial_shuffle(rng, s);
        let members = chosen.to_vec();
        builder.add_edge(members);
    }
    builder.build()
}

/// A random **interval hypergraph**: vertices `0..n` on a line, each
/// hyperedge a contiguous interval `[a, a + len - 1]` with
/// `len ∈ [min_len, max_len]`.
///
/// Returns the hypergraph and the interval bounds `(a, b)` (inclusive)
/// per hyperedge, in hyperedge-id order. Interval hypergraphs are the
/// \[DN18\] setting whose MaxIS-based conflict-free coloring the paper
/// adapts.
///
/// # Panics
///
/// Panics unless `1 ≤ min_len ≤ max_len ≤ n`.
pub fn interval_hypergraph<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    m: usize,
    min_len: usize,
    max_len: usize,
) -> (Hypergraph, Vec<(usize, usize)>) {
    assert!(
        1 <= min_len && min_len <= max_len && max_len <= n,
        "interval lengths [{min_len}, {max_len}] invalid for {n} vertices"
    );
    let mut builder = HypergraphBuilder::new(n);
    let mut bounds = Vec::with_capacity(m);
    for _ in 0..m {
        let len = rng.gen_range(min_len..=max_len);
        let a = rng.gen_range(0..=n - len);
        let b = a + len - 1;
        builder.add_edge((a..=b).map(NodeId::new));
        bounds.push((a, b));
    }
    (builder.build(), bounds)
}

/// Checks that `coloring` assigns to every hyperedge of `h` at least one
/// uniquely-colored vertex (i.e. is conflict-free), treating the slice
/// as a total single-coloring. Stand-alone helper so the generator can
/// be validated without depending on `pslocal-cfcolor`.
pub fn is_conflict_free_single_coloring(h: &Hypergraph, coloring: &[Color]) -> bool {
    assert_eq!(coloring.len(), h.node_count(), "coloring length mismatch");
    h.edge_ids().all(|e| {
        let members = h.edge(e);
        members.iter().any(|&v| {
            let cv = coloring[v.index()];
            members.iter().filter(|&&u| coloring[u.index()] == cv).count() == 1
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn planted_instance_is_conflict_free() {
        for seed in 0..5 {
            let inst = planted_cf_instance(&mut rng(seed), PlantedCfParams::new(60, 40, 4));
            assert_eq!(inst.hypergraph.edge_count(), 40);
            assert_eq!(inst.hypergraph.node_count(), 60);
            assert!(is_conflict_free_single_coloring(&inst.hypergraph, &inst.planted_coloring));
        }
    }

    #[test]
    fn planted_instance_is_almost_uniform() {
        let params = PlantedCfParams { n: 100, m: 50, k: 6, epsilon: 0.5 };
        let inst = planted_cf_instance(&mut rng(9), params);
        assert!(inst.hypergraph.require_almost_uniform(0.5).is_ok());
        assert!(inst.hypergraph.min_edge_size().unwrap() >= 6);
        assert!(inst.hypergraph.max_edge_size().unwrap() <= 9);
    }

    #[test]
    fn planted_coloring_is_balanced() {
        let inst = planted_cf_instance(&mut rng(3), PlantedCfParams::new(20, 10, 4));
        let mut counts = vec![0usize; 4];
        for c in &inst.planted_coloring {
            counts[c.index()] += 1;
        }
        assert!(counts.iter().all(|&c| c == 5), "counts = {counts:?}");
    }

    #[test]
    fn planted_generation_is_seed_deterministic() {
        let p = PlantedCfParams::new(50, 30, 5);
        let a = planted_cf_instance(&mut rng(11), p);
        let b = planted_cf_instance(&mut rng(11), p);
        assert_eq!(a.hypergraph, b.hypergraph);
        assert_eq!(a.planted_coloring, b.planted_coloring);
    }

    #[test]
    fn planted_k1_means_singleton_edges() {
        // k = 1 forces edges of size exactly 1 (max_size = 1): every
        // edge is trivially happy.
        let inst =
            planted_cf_instance(&mut rng(1), PlantedCfParams { n: 10, m: 5, k: 1, epsilon: 0.0 });
        assert!(inst.hypergraph.edge_ids().all(|e| inst.hypergraph.edge_size(e) == 1));
    }

    #[test]
    #[should_panic(expected = "infeasible planted instance")]
    fn infeasible_parameters_panic() {
        // max edge size 6 needs 5 off-color vertices, but with n = 6 and
        // k = 3 only 4 vertices lie outside the largest color class.
        let _ =
            planted_cf_instance(&mut rng(0), PlantedCfParams { n: 6, m: 1, k: 3, epsilon: 1.0 });
    }

    #[test]
    fn multi_component_instance_is_a_vertex_disjoint_union() {
        let params = PlantedCfParams::new(20, 8, 3);
        let inst = multi_component_cf_instance(&mut rng(7), params, 4);
        assert_eq!(inst.hypergraph.node_count(), 80);
        assert_eq!(inst.hypergraph.edge_count(), 32);
        assert!(is_conflict_free_single_coloring(&inst.hypergraph, &inst.planted_coloring));
        // Edge j·8 + i belongs to copy j: all members in its block.
        for (i, e) in inst.hypergraph.edge_ids().enumerate() {
            let copy = i / 8;
            assert!(
                inst.hypergraph.edge(e).iter().all(|v| (v.index() / 20) == copy),
                "edge {i} leaks out of copy {copy}"
            );
        }
    }

    #[test]
    fn multi_component_generation_is_seed_deterministic() {
        let params = PlantedCfParams::new(16, 6, 2);
        let a = multi_component_cf_instance(&mut rng(13), params, 3);
        let b = multi_component_cf_instance(&mut rng(13), params, 3);
        assert_eq!(a.hypergraph, b.hypergraph);
        assert_eq!(a.planted_coloring, b.planted_coloring);
    }

    #[test]
    #[should_panic(expected = "at least one planted copy")]
    fn multi_component_rejects_zero_copies() {
        let _ = multi_component_cf_instance(&mut rng(0), PlantedCfParams::new(16, 6, 2), 0);
    }

    #[test]
    fn uniform_hypergraph_shapes() {
        let h = random_uniform_hypergraph(&mut rng(2), 30, 12, 5);
        assert_eq!(h.edge_count(), 12);
        assert!(h.edge_ids().all(|e| h.edge_size(e) == 5));
        assert!(h.is_almost_uniform(0.0));
    }

    #[test]
    fn interval_hypergraph_edges_are_contiguous() {
        let (h, bounds) = interval_hypergraph(&mut rng(4), 40, 15, 3, 8);
        assert_eq!(h.edge_count(), 15);
        for (e, &(a, b)) in h.edge_ids().zip(&bounds) {
            let members = h.edge(e);
            assert_eq!(members.len(), b - a + 1);
            for (i, &v) in members.iter().enumerate() {
                assert_eq!(v.index(), a + i, "members must be the contiguous run");
            }
            assert!(b < 40);
        }
    }

    #[test]
    fn interval_lengths_respect_range() {
        let (h, _) = interval_hypergraph(&mut rng(5), 25, 20, 2, 4);
        assert!(h.edge_ids().all(|e| (2..=4).contains(&h.edge_size(e))));
    }
}
