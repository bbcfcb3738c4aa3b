//! `check-reduce`: parses `pslocal reduce` stdout back into a
//! multicoloring and checks it against the instance and the reference
//! run.

use crate::prepare::{read_instance, read_jobs, ReduceExpect};
use pslocal_cfcolor::{checker, Multicoloring};
use pslocal_graph::{Color, Hypergraph, NodeId};
use std::fs;
use std::path::Path;

/// The value after `key` in a `c oracle = …, phases = P, colors = C`
/// summary line.
fn summary_field(line: &str, key: &str) -> Result<usize, String> {
    let rest = line
        .split(", ")
        .find_map(|part| part.strip_prefix(key))
        .ok_or_else(|| format!("summary line lacks {key:?}: {line:?}"))?;
    rest.trim().parse().map_err(|_| format!("cannot parse {key:?} in {line:?}"))
}

/// Checks one `pslocal reduce` stdout: the coloring must be
/// conflict-free on `h`, cover every vertex line exactly once, and the
/// phases, `Σ|I_i|` and colors must match the reference run.
pub fn check_output(h: &Hypergraph, stdout: &str, expect: &ReduceExpect) -> Result<(), String> {
    let mut lines = stdout.lines();
    let summary = lines.next().ok_or("empty output")?;
    if !summary.starts_with("c oracle = ") {
        return Err(format!("unexpected first line {summary:?}"));
    }
    let phases = summary_field(summary, "phases = ")?;
    let colors = summary_field(summary, "colors = ")?;
    let n = h.node_count();
    let mut coloring = Multicoloring::new(n);
    let mut seen = vec![false; n];
    let mut set_size = 0usize;
    for line in lines {
        if let Some(record) = line.strip_prefix("c phase ") {
            let size = record
                .split("(|I| = ")
                .nth(1)
                .and_then(|s| s.strip_suffix(')'))
                .and_then(|s| s.parse::<usize>().ok())
                .ok_or_else(|| format!("malformed phase line {line:?}"))?;
            set_size += size;
        } else if let Some(rest) = line.strip_prefix("v ") {
            let mut fields = rest.split_whitespace();
            let v: usize = fields
                .next()
                .and_then(|s| s.parse().ok())
                .filter(|&v| v < n)
                .ok_or_else(|| format!("bad vertex line {line:?}"))?;
            if std::mem::replace(&mut seen[v], true) {
                return Err(format!("vertex {v} listed twice"));
            }
            for c in fields {
                let c: usize = c.parse().map_err(|_| format!("bad color in {line:?}"))?;
                coloring.add_color(NodeId::new(v), Color::new(c));
            }
        } else {
            return Err(format!("unexpected line {line:?}"));
        }
    }
    if let Some(v) = seen.iter().position(|s| !s) {
        return Err(format!("vertex {v} missing from the output"));
    }
    if !checker::is_conflict_free(h, &coloring) {
        return Err("the output coloring is not conflict-free".to_string());
    }
    let got = (phases, set_size, colors, coloring.total_color_count());
    let want = (expect.phases, expect.set_size, expect.colors, expect.colors);
    if got != want {
        return Err(format!("phases/set size/colors/distinct colors {got:?}, reference {want:?}"));
    }
    Ok(())
}

/// Checks every `out-<j>.txt` present in `outputs` against job `j` of
/// the prepared workload in `inputs`. Returns the number checked and
/// each failed job with the reason.
pub fn check_reduce(
    inputs: &Path,
    outputs: &Path,
) -> Result<(usize, Vec<(usize, String)>), String> {
    let mut checked = 0usize;
    let mut failures = Vec::new();
    for (j, expect) in read_jobs(inputs)?.iter().enumerate() {
        let path = outputs.join(format!("out-{j}.txt"));
        let Ok(stdout) = fs::read_to_string(&path) else { continue };
        checked += 1;
        let h = read_instance(inputs, &expect.file)?;
        if let Err(e) = check_output(&h, &stdout, expect) {
            failures.push((j, format!("{} {}: {e}", expect.file, expect.oracle)));
        }
    }
    Ok((checked, failures))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_instance() -> Hypergraph {
        Hypergraph::from_edges(3, [vec![0usize, 1], vec![1, 2]]).expect("valid hypergraph")
    }

    fn expect(phases: usize, set_size: usize, colors: usize) -> ReduceExpect {
        ReduceExpect {
            file: "x.hg".to_string(),
            oracle: "greedy".to_string(),
            seed: 1,
            k: 2,
            phases,
            set_size,
            colors,
        }
    }

    const GOOD: &str = "c oracle = greedy, lambda = 3.00, rho = 4, phases = 1, colors = 2\n\
                        c phase 0 edges 2 -> 0 (|I| = 2)\n\
                        v 0 0\nv 1 1\nv 2 0\n";

    #[test]
    fn accepts_a_conflict_free_output() {
        assert_eq!(check_output(&path_instance(), GOOD, &expect(1, 2, 2)), Ok(()));
    }

    #[test]
    fn rejects_wrong_counts_and_conflicts() {
        assert!(check_output(&path_instance(), GOOD, &expect(2, 2, 2)).is_err());
        let conflict = GOOD.replace("v 1 1", "v 1 0");
        assert!(check_output(&path_instance(), &conflict, &expect(1, 2, 2)).is_err());
        let missing = GOOD.replace("v 2 0\n", "");
        assert!(check_output(&path_instance(), &missing, &expect(1, 2, 2)).is_err());
    }
}
