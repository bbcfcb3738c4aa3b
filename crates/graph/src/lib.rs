//! # pslocal-graph
//!
//! Graph and hypergraph substrate for the executable reproduction of
//! *"P-SLOCAL-Completeness of Maximum Independent Set Approximation"*
//! (Maus, PODC 2019).
//!
//! Everything in the reproduction stack — the LOCAL/SLOCAL simulators,
//! the MaxIS oracle suite, the conflict-graph construction — consumes
//! the types defined here:
//!
//! * [`Graph`] — immutable simple undirected graphs in CSR form, built
//!   via [`GraphBuilder`].
//! * [`Hypergraph`] — the inputs of conflict-free multicoloring, with
//!   two-way incidence, built via [`HypergraphBuilder`].
//! * [`IndependentSet`] — independence verified at construction, the
//!   return type of every MaxIS oracle.
//! * [`Adjacency`] — the reads that CSR rows and the bit rows of
//!   [`BitsetGraph`] share, so code that serves both forms is written
//!   once.
//! * [`palette::Palette`] — disjoint per-phase color palettes for the
//!   Theorem 1.1 reduction.
//! * [`generators`] — deterministic and seeded random graph families,
//!   and the planted conflict-free hypergraph instances that drive the
//!   experiment suite.
//! * [`algo`] — BFS/ball extraction (the locality primitive), coloring,
//!   components, clique covers.
//!
//! # Examples
//!
//! ```
//! use pslocal_graph::generators::hyper::{
//!     is_conflict_free_single_coloring, planted_cf_instance, PlantedCfParams,
//! };
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let inst = planted_cf_instance(&mut rng, PlantedCfParams::new(64, 32, 4));
//! assert!(is_conflict_free_single_coloring(&inst.hypergraph, &inst.planted_coloring));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adjacency;
pub mod algo;
pub mod bitset;
pub mod csr;
pub mod error;
pub mod fingerprint;
pub mod generators;
pub mod graph;
pub mod hypergraph;
pub mod ids;
pub mod independent;
pub mod io;
pub mod ops;
pub mod palette;
pub mod stats;

pub use adjacency::Adjacency;
pub use bitset::{BitsetGraph, BitsetScratch, KernelStrategy};
pub use error::GraphError;
pub use graph::{Edges, Graph, GraphBuilder};
pub use hypergraph::{Hypergraph, HypergraphBuilder};
pub use ids::{Color, EdgeId, HyperedgeId, NodeId};
pub use independent::{IndependentSet, NotIndependentError};
pub use palette::Palette;
pub use stats::{GraphStats, HypergraphStats};
