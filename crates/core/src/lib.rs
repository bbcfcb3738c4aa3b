//! # pslocal-core
//!
//! The primary contribution of *"P-SLOCAL-Completeness of Maximum
//! Independent Set Approximation"* (Maus, PODC 2019), as an executable
//! library:
//!
//! * [`ConflictGraph`] — the Section 2 construction `G_k` on triples
//!   `(e, v, c)` with the `E_vertex`/`E_edge`/`E_color` families;
//! * [`correspondence`] — Lemma 2.1, both directions, with the lemma's
//!   inequalities as runtime assertions;
//! * [`reduction`] — the hardness half of Theorem 1.1: conflict-free
//!   multicoloring through any λ-approximate MaxIS oracle in
//!   `ρ = λ·ln m + 1` phases and `k·ρ` colors;
//! * [`containment`] — the containment half via network decomposition
//!   (\[GKM17, Thm 7.1\]);
//! * [`completeness`] — both halves composed and machine-checked;
//! * [`simulation`] — the paper's "G_k can be efficiently simulated in
//!   H in the LOCAL model" claim, measured (dilation ≤ 1).
//!
//! # Examples
//!
//! The whole Theorem 1.1 pipeline in a few lines:
//!
//! ```
//! use pslocal_core::{reduce_cf_to_maxis, ReductionConfig};
//! use pslocal_cfcolor::checker::is_conflict_free;
//! use pslocal_graph::generators::hyper::{planted_cf_instance, PlantedCfParams};
//! use pslocal_maxis::GreedyOracle;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let inst = planted_cf_instance(&mut rng, PlantedCfParams::new(40, 16, 3));
//! let out = reduce_cf_to_maxis(&inst.hypergraph, &GreedyOracle, ReductionConfig::new(3))?;
//! assert!(is_conflict_free(&inst.hypergraph, &out.coloring));
//! assert!(out.phases_used <= out.rho);
//! assert!(out.total_colors <= 3 * out.rho);
//! # Ok(())
//! # }
//! ```
//!
//! Component-parallel phase execution ([`components`]) is an execution
//! knob, never a semantic one — any thread count reproduces the serial
//! run byte-for-byte:
//!
//! ```
//! use pslocal_core::{reduce_cf_to_maxis, ReductionConfig};
//! use pslocal_graph::generators::hyper::{multi_component_cf_instance, PlantedCfParams};
//! use pslocal_maxis::GreedyOracle;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(2);
//! // 4 vertex-disjoint planted copies: G_k has ≥ 4 components.
//! let inst = multi_component_cf_instance(&mut rng, PlantedCfParams::new(24, 8, 3), 4);
//! let serial = reduce_cf_to_maxis(&inst.hypergraph, &GreedyOracle, ReductionConfig::new(3))?;
//! let parallel = reduce_cf_to_maxis(
//!     &inst.hypergraph,
//!     &GreedyOracle,
//!     ReductionConfig::new(3).with_threads(4),
//! )?;
//! assert_eq!(parallel.coloring, serial.coloring);
//! assert_eq!(parallel.records, serial.records);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod completeness;
pub mod components;
pub mod conflict_graph;
pub mod containment;
pub mod correspondence;
pub mod distributed;
pub mod protocol;
pub mod recovery;
pub mod reduction;
pub mod resilient;
pub mod server;
pub mod service;
pub mod simulation;
pub mod sync;
pub mod workspace;

pub use completeness::{completeness_on_instance, CompletenessReport};
pub use components::{ComponentExecutor, ComponentPartition, ParallelismOptions};
pub use conflict_graph::{ConflictGraph, ConflictGraphOptions, FamilyCounts, Triple};
pub use containment::{containment_certificate, ContainmentReport};
pub use correspondence::{
    apply_palette, coloring_to_independent_set, independent_set_to_coloring, lemma_2_1a,
    lemma_2_1b, total_coloring_as_indices, ColoringToSet, SetToColoring,
};
pub use distributed::{
    distributed_reduction, distributed_reduction_with, DistributedPhase, DistributedReduction,
};
pub use recovery::{
    crc32, fingerprint_hypergraph, inspect_journal, Checkpointing, CrashMode, CrashPlan,
    CrashPoint, CrashSignal, DriverKind, JournalError, JournalHeader, JournalPhase, OpenStats,
    PhaseJournal, RecoveryReport, JOURNAL_FILE_NAME,
};
pub use reduction::{
    lemma_2_1_quota, oracle_locality, reduce_cf_to_maxis, reduce_cf_to_maxis_resumable,
    reduce_cf_to_maxis_traced, reduce_cf_to_maxis_with_workspace, PhaseRecord, ReductionConfig,
    ReductionError, ReductionOutcome,
};
pub use resilient::{
    reduce_cf_resilient, reduce_cf_resilient_resumable, reduce_cf_resilient_with_workspace,
    stall_budget, FaultEvent, FaultEventKind, PartialOutcome, ResilientConfig, ResilientFailure,
    ResilientOutcome,
};
pub use server::{
    serve_lines, LinesReport, Server, ServerConfig, DEFAULT_MAX_CONNECTIONS, MAX_LINE_BYTES,
};
pub use service::{
    Admission, BoxedOracle, QueueFull, RequestOutcome, Service, ServiceConfig, ServiceReport,
    ServiceRequest, ServiceResponse, DEFAULT_QUEUE_CAPACITY,
};
pub use simulation::{host_of, simulate_in_hypergraph, SimulationReport};
pub use workspace::PhaseWorkspace;
