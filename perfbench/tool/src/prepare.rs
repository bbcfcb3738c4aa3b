//! `prepare`: writes a workload's inputs and the reference results the
//! output check compares against.

use crate::workload::{
    planted, reduce_candidates, reduce_jobs_per_class, serve_pool, ReduceJob, Size, Workload,
    REDUCE_ORACLES,
};
use pslocal_core::protocol::{boxed_oracle_by_name, parse_request, response_line};
use pslocal_core::{reduce_cf_to_maxis, ReductionConfig, RequestOutcome, Service, ServiceConfig};
use pslocal_graph::io::{read_hypergraph, write_hypergraph};
use pslocal_graph::Hypergraph;
use pslocal_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// Request lines of a serve pool, one per line.
pub const REQUESTS_FILE: &str = "requests.jsonl";
/// The reference response line of each request, in pool order.
pub const EXPECTED_FILE: &str = "expected.jsonl";
/// One row per reduce job: file, oracle, seed, k, phases, set size,
/// colors (tab-separated).
pub const JOBS_FILE: &str = "jobs.tsv";
/// The one-edge instance the reduce workload's set-up time runs on.
pub const ONE_EDGE_FILE: &str = "one-edge.hg";

/// The reference result of one reduce job, as its stdout must report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReduceExpect {
    /// Instance file name inside the input directory.
    pub file: String,
    /// Oracle name.
    pub oracle: String,
    /// Oracle seed.
    pub seed: u64,
    /// Palette size.
    pub k: usize,
    /// Phases the reduction takes.
    pub phases: usize,
    /// `Σ|I_i|` over the phases.
    pub set_size: usize,
    /// Colors of the output multicoloring.
    pub colors: usize,
}

impl ReduceExpect {
    fn row(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.file, self.oracle, self.seed, self.k, self.phases, self.set_size, self.colors
        )
    }

    /// The fields the harness needs to run the job, as a JSON object.
    fn json(&self) -> String {
        format!(
            "{{\"file\":\"{}\",\"oracle\":\"{}\",\"seed\":{},\"k\":{},\"phases\":{}}}",
            self.file, self.oracle, self.seed, self.k, self.phases
        )
    }

    /// Parses one row of [`JOBS_FILE`].
    pub fn parse(row: &str) -> Result<Self, String> {
        let cols: Vec<&str> = row.split('\t').collect();
        let [file, oracle, seed, k, phases, set_size, colors] = cols[..] else {
            return Err(format!("malformed job row {row:?}"));
        };
        let num = |s: &str| s.parse::<usize>().map_err(|_| format!("bad number {s:?} in {row:?}"));
        Ok(ReduceExpect {
            file: file.to_string(),
            oracle: oracle.to_string(),
            seed: seed.parse().map_err(|_| format!("bad seed in {row:?}"))?,
            k: num(k)?,
            phases: num(phases)?,
            set_size: num(set_size)?,
            colors: num(colors)?,
        })
    }
}

/// Reads every row of a prepared reduce workload's [`JOBS_FILE`].
pub fn read_jobs(dir: &Path) -> Result<Vec<ReduceExpect>, String> {
    let text = fs::read_to_string(dir.join(JOBS_FILE))
        .map_err(|e| format!("cannot read {JOBS_FILE}: {e}"))?;
    text.lines().map(ReduceExpect::parse).collect()
}

/// Reads a prepared instance file back into a hypergraph.
pub fn read_instance(dir: &Path, file: &str) -> Result<Hypergraph, String> {
    let text =
        fs::read_to_string(dir.join(file)).map_err(|e| format!("cannot read {file}: {e}"))?;
    read_hypergraph(&text).map_err(|e| format!("{file}: {e}"))
}

/// Runs `lines` through an in-process [`Service`] (the serve default
/// of two workers) and returns each request's response line, in input
/// order. Every request must end `ok`: a workload on which operations
/// fail would not measure the path it was chosen for.
pub fn reference_lines(lines: &[String]) -> Result<Vec<String>, String> {
    let config = ServiceConfig::new(2).with_queue_capacity(lines.len().max(1));
    let service = Service::start(config, Telemetry::disabled());
    let mut ids = Vec::with_capacity(lines.len());
    for line in lines {
        let request = parse_request(line, None)?;
        ids.push(request.id.clone());
        service.submit(request).map_err(|full| full.to_string())?;
    }
    let mut by_id = BTreeMap::new();
    for _ in lines {
        let response = service.recv().ok_or("the reference service stopped early")?;
        if !matches!(response.outcome, RequestOutcome::Ok { .. }) {
            return Err(format!("reference request did not end ok: {}", response_line(&response)));
        }
        by_id.insert(response.id.clone(), response_line(&response));
    }
    service.shutdown();
    ids.iter()
        .map(|id| by_id.remove(id).ok_or_else(|| format!("no reference response for {id:?}")))
        .collect()
}

/// The reference outcome of one reduce job, on the instance exactly as
/// the program will parse it from its file.
fn reference_reduce(job: &ReduceJob, file: &str, h: &Hypergraph) -> Result<ReduceExpect, String> {
    let oracle = boxed_oracle_by_name(job.oracle, job.seed)?;
    let out = reduce_cf_to_maxis(h, oracle.as_ref(), ReductionConfig::new(job.k))
        .map_err(|e| format!("reference reduction of {file} failed: {e}"))?;
    Ok(ReduceExpect {
        file: file.to_string(),
        oracle: job.oracle.to_string(),
        seed: job.seed,
        k: job.k,
        phases: out.phases_used,
        set_size: out.records.iter().map(|r| r.independent_set_size).sum(),
        colors: out.total_colors,
    })
}

fn write(dir: &Path, file: &str, text: &str) -> Result<(), String> {
    fs::write(dir.join(file), text).map_err(|e| format!("cannot write {file}: {e}"))
}

/// The line `prepare` prints for the harness: the workload's client
/// count, the reduce jobs to run and a summary for the log. The
/// harness reads these rather than [`JOBS_FILE`], whose layout only
/// this crate knows.
fn prepared(workload: Workload, jobs: &[ReduceExpect], summary: &str) -> String {
    let jobs: Vec<String> = jobs.iter().map(ReduceExpect::json).collect();
    format!(
        "{{\"clients\":{},\"jobs\":[{}],\"summary\":\"{summary}\"}}",
        workload.clients(),
        jobs.join(",")
    )
}

/// Writes `workload`'s inputs for `seed` into `dir` and returns the
/// [`prepared`] line.
pub fn prepare(workload: Workload, seed: u64, size: Size, dir: &Path) -> Result<String, String> {
    fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    if workload != Workload::ReduceCheckpointed {
        let lines: Vec<String> =
            serve_pool(workload, seed, size).iter().map(|r| r.line()).collect();
        let expected = reference_lines(&lines)?;
        write(dir, REQUESTS_FILE, &(lines.join("\n") + "\n"))?;
        write(dir, EXPECTED_FILE, &(expected.join("\n") + "\n"))?;
        let multi = expected.iter().filter(|l| !l.contains("\"phases\":1,")).count();
        let summary = format!("{} requests, {multi} multi-phase", lines.len());
        return Ok(prepared(workload, &[], &summary));
    }

    // Per oracle, as many single-phase as multi-phase jobs, so half
    // the runs time the restriction, multi-phase commit and journal
    // growth. Kept in candidate order.
    let per_class = reduce_jobs_per_class(size);
    let keep = per_class * 2 * REDUCE_ORACLES.len();
    let mut taken = [[0usize; 2]; REDUCE_ORACLES.len()];
    let mut jobs: Vec<ReduceExpect> = Vec::new();
    for job in reduce_candidates(seed, size) {
        if jobs.len() == keep {
            break;
        }
        let file = format!("job-{}.hg", jobs.len());
        let text = write_hypergraph(&planted(job.seed, job.n, job.m, job.k));
        let h = read_hypergraph(&text).map_err(|e| e.to_string())?;
        let expect = reference_reduce(&job, &file, &h)?;
        let oracle = REDUCE_ORACLES.iter().position(|&o| o == job.oracle).unwrap_or(0);
        let class = &mut taken[oracle][usize::from(expect.phases >= 2)];
        if *class == per_class {
            continue;
        }
        *class += 1;
        write(dir, &file, &text)?;
        jobs.push(expect);
    }
    if jobs.len() < keep {
        return Err(format!("only {} of {keep} reduce jobs found for seed {seed}", jobs.len()));
    }
    let rows: Vec<String> = jobs.iter().map(ReduceExpect::row).collect();
    write(dir, JOBS_FILE, &(rows.join("\n") + "\n"))?;
    let one_edge = Hypergraph::from_edges(2, [vec![0usize, 1]]).map_err(|e| e.to_string())?;
    write(dir, ONE_EDGE_FILE, &write_hypergraph(&one_edge))?;
    let phases: Vec<String> = jobs.iter().map(|j| j.phases.to_string()).collect();
    let summary = format!("{} jobs, phases {}", jobs.len(), phases.join(","));
    Ok(prepared(workload, &jobs, &summary))
}
