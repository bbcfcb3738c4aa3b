//! `perfbench-tool` — the in-process half of the pslocal benchmark.
//! `perfbench/run.py` drives the release `pslocal` binary and calls
//! this tool for everything that needs the library:
//!
//! ```text
//! perfbench-tool prepare --workload W --seed S --dir D [--tiny]
//! perfbench-tool check-reduce --dir D --outputs O
//! perfbench-tool walk --workload W --seed S --dir D --work DIR --seconds T [--tiny]
//! perfbench-tool host
//! ```
//!
//! Every subcommand prints one line on stdout; errors go to stderr
//! with a nonzero exit.

#![forbid(unsafe_code)]

mod check;
mod host;
mod prepare;
mod walk;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Size, Workload};

/// `--key value` options plus `--tiny`.
struct Args {
    command: String,
    options: Vec<(String, String)>,
    tiny: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut raw = std::env::args().skip(1);
        let command =
            raw.next().ok_or("missing subcommand (prepare | check-reduce | walk | host)")?;
        let mut options = Vec::new();
        let mut tiny = false;
        while let Some(arg) = raw.next() {
            let key =
                arg.strip_prefix("--").ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            if key == "tiny" {
                tiny = true;
                continue;
            }
            let value = raw.next().ok_or_else(|| format!("option --{key} needs a value"))?;
            options.push((key.to_string(), value));
        }
        Ok(Args { command, options, tiny })
    }

    fn get(&self, key: &str) -> Result<&str, String> {
        self.options
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("missing option --{key}"))
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let value = self.get(key)?;
        value.parse().map_err(|_| format!("cannot parse --{key} value {value:?}"))
    }

    fn size(&self) -> Size {
        if self.tiny {
            Size::Tiny
        } else {
            Size::Full
        }
    }
}

/// Injected oracle panics are caught by the drivers (and by the walk);
/// their messages would only flood stderr. Any other panic still
/// reports through the default hook.
fn quiet_injected_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let message = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !message.starts_with("injected fault") {
            default(info);
        }
    }));
}

fn run() -> Result<String, String> {
    let args = Args::parse()?;
    quiet_injected_panics();
    match args.command.as_str() {
        "prepare" => {
            let workload = Workload::parse(args.get("workload")?)?;
            prepare::prepare(
                workload,
                args.parsed("seed")?,
                args.size(),
                &PathBuf::from(args.get("dir")?),
            )
        }
        "check-reduce" => {
            let (checked, failures) = check::check_reduce(
                &PathBuf::from(args.get("dir")?),
                &PathBuf::from(args.get("outputs")?),
            )?;
            for (job, why) in &failures {
                eprintln!("check-reduce: job {job} ({why})");
            }
            if checked == 0 {
                return Err("no reduce output to check".to_string());
            }
            let failed: Vec<String> = failures.iter().map(|(job, _)| job.to_string()).collect();
            Ok(format!("{{\"checked\":{checked},\"failed\":[{}]}}", failed.join(",")))
        }
        "walk" => walk::walk(
            Workload::parse(args.get("workload")?)?,
            args.parsed("seed")?,
            args.size(),
            &PathBuf::from(args.get("dir")?),
            &PathBuf::from(args.get("work")?),
            args.parsed("seconds")?,
        ),
        "host" => Ok(format!(
            "{{\"nproc\":{},\"effective_parallelism\":{:.3}}}",
            host::nproc(),
            host::effective_parallelism()
        )),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench-tool: {message}");
            ExitCode::FAILURE
        }
    }
}
