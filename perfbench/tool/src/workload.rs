//! The benchmark's workloads and the inputs each one draws from its
//! seed. The program under test only ever sees the generated request
//! lines and instance files.

use pslocal_graph::generators::hyper::{planted_cf_instance, PlantedCfParams};
use pslocal_graph::Hypergraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One of the benchmark's three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Small mixed requests over two connections: per-request fixed
    /// costs (parse, generation, queue, socket, encode) dominate.
    ServeMixed,
    /// Dense `k = 8` requests over one connection: the bitset `G_k`
    /// build and the dense greedy oracle dominate.
    ServeDense,
    /// One checkpointed `pslocal reduce` process per instance: the
    /// trusting driver, restriction, fingerprints and the journal.
    ReduceCheckpointed,
}

impl Workload {
    /// Parses a workload name as the command line spells it.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "serve-mixed" => Ok(Workload::ServeMixed),
            "serve-dense" => Ok(Workload::ServeDense),
            "reduce-checkpointed" => Ok(Workload::ReduceCheckpointed),
            other => Err(format!(
                "unknown workload {other:?} (serve-mixed | serve-dense | reduce-checkpointed)"
            )),
        }
    }

    /// Closed-loop clients, each with one request in flight: serve
    /// connections, or reduce processes at a time.
    pub fn clients(self) -> usize {
        match self {
            Workload::ServeMixed => 2,
            Workload::ServeDense | Workload::ReduceCheckpointed => 1,
        }
    }
}

/// Input scale: the benchmark's own, or a tiny one for the smoke run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark of record measures.
    Full,
    /// Seconds-scale inputs that still take every code path.
    Tiny,
}

/// The planted-instance slack the wire protocol applies by default.
const PROTOCOL_EPSILON: f64 = 0.5;

/// Generates a planted instance exactly as `protocol::parse_request`
/// does for a request with these parameters.
pub fn planted(seed: u64, n: usize, m: usize, k: usize) -> Hypergraph {
    let mut rng = StdRng::seed_from_u64(seed);
    planted_cf_instance(&mut rng, PlantedCfParams { n, m, k, epsilon: PROTOCOL_EPSILON }).hypergraph
}

/// One request of a serve workload's pool.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Request id, unique within the pool.
    pub id: String,
    /// Planted-instance vertices.
    pub n: usize,
    /// Planted-instance hyperedges.
    pub m: usize,
    /// Palette size.
    pub k: usize,
    /// Instance and oracle seed.
    pub seed: u64,
    /// Oracle fallback chain, primary first.
    pub oracle: &'static str,
    /// Fault script for the primary oracle.
    pub faults: Option<&'static str>,
    /// Adjacency kernel.
    pub kernel: Option<&'static str>,
}

impl ServeRequest {
    /// The request as one JSONL wire line (no newline).
    pub fn line(&self) -> String {
        let mut line = format!(
            "{{\"id\":\"{}\",\"n\":{},\"m\":{},\"k\":{},\"seed\":{},\"oracle\":\"{}\"",
            self.id, self.n, self.m, self.k, self.seed, self.oracle
        );
        if let Some(faults) = self.faults {
            line.push_str(&format!(",\"faults\":\"{faults}\""));
        }
        if let Some(kernel) = self.kernel {
            line.push_str(&format!(",\"kernel\":\"{kernel}\""));
        }
        line.push('}');
        line
    }
}

/// Oracles the mixed workload rotates through.
const MIXED_ORACLES: [&str; 3] = ["greedy", "luby", "decomposition"];

/// `count` sizes spread evenly over `lo..=hi`.
fn spread(i: usize, count: usize, lo: usize, hi: usize) -> usize {
    lo + i * (hi - lo) / (count - 1).max(1)
}

/// A serve workload's request pool. The pool's shape (sizes, palette
/// sizes, oracles, fault scripts) is fixed; the seed draws the
/// instances. A fixed shape keeps the pool's average cost, and so the
/// benchmark's figures, comparable from seed to seed. Clients cycle
/// through the pool; results are deterministic and nothing is cached
/// across requests, so a repeated request costs what a fresh one of
/// the same shape does.
pub fn serve_pool(workload: Workload, seed: u64, size: Size) -> Vec<ServeRequest> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E4E_0000);
    match workload {
        Workload::ServeMixed => {
            let (count, lo, hi) = if size == Size::Full { (256, 48, 256) } else { (8, 24, 40) };
            (0..count)
                .map(|i| {
                    let n = spread(i, count, lo, hi);
                    // One slot in eight takes the multi-phase resilient
                    // path (the primary under-delivers twice), one the
                    // panic-and-retry path; the rest are clean.
                    let (oracle, faults) = match i % 8 {
                        0 => (MIXED_ORACLES[(i / 8) % 3], Some("under-deliver,under-deliver")),
                        1 => ("greedy,luby", Some("panic")),
                        _ => (MIXED_ORACLES[i % 3], None),
                    };
                    ServeRequest {
                        id: format!("m{i:03}"),
                        n,
                        m: n / 2,
                        k: 3 + i % 4,
                        seed: rng.gen_range(0..=u64::from(u32::MAX)),
                        oracle,
                        faults,
                        kernel: None,
                    }
                })
                .collect()
        }
        Workload::ServeDense => {
            let (count, lo, hi) = if size == Size::Full { (64, 96, 192) } else { (3, 40, 48) };
            (0..count)
                .map(|i| {
                    let n = spread(i, count, lo, hi);
                    ServeRequest {
                        id: format!("d{i:02}"),
                        n,
                        m: n / 2,
                        k: 8,
                        seed: rng.gen_range(0..=u64::from(u32::MAX)),
                        oracle: "greedy",
                        faults: None,
                        kernel: Some("auto"),
                    }
                })
                .collect()
        }
        Workload::ReduceCheckpointed => Vec::new(),
    }
}

/// One `pslocal reduce` job of the checkpointed workload.
#[derive(Debug, Clone)]
pub struct ReduceJob {
    /// Instance seed; also the oracle's `--seed`.
    pub seed: u64,
    /// Oracle name as `pslocal reduce --oracle` takes it.
    pub oracle: &'static str,
    /// Planted-instance vertices.
    pub n: usize,
    /// Planted-instance hyperedges.
    pub m: usize,
    /// Palette size (`--k`).
    pub k: usize,
}

/// Oracles of the checkpointed workload.
pub const REDUCE_ORACLES: [&str; 2] = ["luby", "decomposition"];

/// Jobs the checkpointed workload keeps per (oracle, single- or
/// multi-phase) class: the class mix is fixed, the seed draws the
/// instances.
pub fn reduce_jobs_per_class(size: Size) -> usize {
    match size {
        Size::Full => 3,
        Size::Tiny => 1,
    }
}

/// The candidate stream the checkpointed workload selects its jobs
/// from (selection needs the reference phase counts, see `prepare`).
pub fn reduce_candidates(seed: u64, size: Size) -> impl Iterator<Item = ReduceJob> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x2ED0_0000);
    let (n, m) = if size == Size::Full { (2048, 1024) } else { (256, 128) };
    (0..256usize).map(move |i| ReduceJob {
        seed: rng.gen_range(0..=u64::from(u32::MAX)),
        oracle: REDUCE_ORACLES[i % 2],
        n,
        m,
        k: 4,
    })
}
