//! # pslocal-bench
//!
//! Experiment harnesses and shared utilities for the reproduction's
//! evaluation suite.
//!
//! The paper has **no evaluation section** (it is a pure complexity
//! result); DESIGN.md §5 defines the substituted experiment suite —
//! tables T1–T8 and figure-series F1–F4, each validating a quantitative
//! claim from the paper's lemmas and theorem proofs. Every experiment
//! is a binary in `src/bin/exp_*.rs`:
//!
//! ```text
//! cargo run --release -p pslocal-bench --bin exp_t4_phase_bound
//! ```
//!
//! All binaries accept `--seed <u64>` (default `0xC0FFEE`) and print a
//! column-aligned table to stdout plus a CSV copy under
//! `target/experiments/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod table;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Default seed for all experiments.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// Parses `--seed <u64>` from the process arguments, falling back to
/// [`DEFAULT_SEED`] when there is none. A `--seed` without a value, or
/// with one that is not a `u64`, exits 1 with an `error:` line, so a
/// seed sweep cannot silently repeat the default run.
pub fn seed_from_args() -> u64 {
    let args: Vec<String> = std::env::args().collect();
    parse_seed(&args).unwrap_or_else(|message| {
        eprintln!("error: {message}");
        std::process::exit(1)
    })
}

/// The parse behind [`seed_from_args`].
fn parse_seed(args: &[String]) -> Result<u64, String> {
    let Some(i) = args.iter().position(|a| a == "--seed") else {
        return Ok(DEFAULT_SEED);
    };
    let value = args.get(i + 1).ok_or("option --seed needs a value")?;
    value.parse().map_err(|_| format!("cannot parse --seed value {value:?}"))
}

/// A seeded RNG for experiment `tag` derived from the run seed, so each
/// experiment's stream is independent of the others.
pub fn rng_for(seed: u64, tag: &str) -> StdRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tag.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    StdRng::seed_from_u64(seed ^ h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn rng_streams_are_tag_dependent_and_deterministic() {
        let a: u64 = rng_for(1, "t1").gen();
        let b: u64 = rng_for(1, "t1").gen();
        let c: u64 = rng_for(1, "t2").gen();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn default_seed_is_stable() {
        assert_eq!(DEFAULT_SEED, 0xC0FFEE);
    }

    #[test]
    fn seed_parse_takes_a_u64_and_refuses_anything_else() {
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_seed(&args(&["exp"])), Ok(DEFAULT_SEED));
        assert_eq!(parse_seed(&args(&["exp", "--seed", "7"])), Ok(7));
        assert_eq!(
            parse_seed(&args(&["exp", "--seed", "abc"])),
            Err("cannot parse --seed value \"abc\"".to_string())
        );
        assert_eq!(
            parse_seed(&args(&["exp", "--seed", "-1"])),
            Err("cannot parse --seed value \"-1\"".to_string())
        );
        assert_eq!(
            parse_seed(&args(&["exp", "--seed"])),
            Err("option --seed needs a value".to_string())
        );
    }
}
