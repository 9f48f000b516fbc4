//! The repository benchmark. See README.md for the protocol and
//! `BENCHMARK.json` at the repository root for the contract with the
//! driver.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! benchmark                       # the suite: every workload, untraced then traced
//! benchmark repeat-check [--sets 2] [--runs 3] [--seconds <s>] [--quick]
//! ```
//!
//! The last line of standard output of a single-workload run is the result
//! object; the exit code is nonzero if any operation failed or any output
//! was wrong.

use benchmark::{alloc, epoch, repeat, run, workloads};

// In the binary, not the library: only the measuring process counts.
#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// `--key value` pairs after an optional subcommand.
struct Cli {
    command: Option<String>,
    options: HashMap<String, String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut it = args.iter().peekable();
    let command = it.next_if(|a| !a.starts_with("--")).cloned();
    let mut options = HashMap::new();
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .ok_or_else(|| format!("expected an option, found `{key}`"))?;
        // `--quick` alone means `--quick 1`.
        let value = match it.next_if(|v| !v.starts_with("--")) {
            Some(v) => v.clone(),
            None if name == "quick" => "1".to_string(),
            None => return Err(format!("option `{key}` needs a value")),
        };
        options.insert(name.to_string(), value);
    }
    Ok(Cli { command, options })
}

impl Cli {
    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value `{v}` for --{key}")),
            None => Ok(default),
        }
    }

    fn flag(&self, key: &str) -> Result<bool, String> {
        Ok(self.get::<u8>(key, 0)? != 0)
    }

    fn workload(&self) -> Result<Option<String>, String> {
        match self.options.get("workload") {
            Some(w) if workloads::WORKLOADS.contains(&w.as_str()) => Ok(Some(w.clone())),
            Some(w) => Err(format!(
                "unknown workload `{w}` (one of {})",
                workloads::WORKLOADS.join(", ")
            )),
            None => Ok(None),
        }
    }
}

fn run_args(cli: &Cli, workload: String, trace: bool) -> Result<run::Args, String> {
    Ok(run::Args {
        workload,
        seed: cli.get("seed", workloads::DEFAULT_SEED)?,
        seconds: cli.get("seconds", 30.0)?,
        trace,
        quick: cli.flag("quick")?,
    })
}

fn dispatch(cli: &Cli) -> Result<bool, String> {
    match cli.command.as_deref() {
        Some("epoch") => {
            let cfg = epoch::Config {
                workload: cli.workload()?.ok_or("epoch needs --workload")?,
                seed: cli.get("seed", workloads::DEFAULT_SEED)?,
                scale: if cli.flag("quick")? {
                    workloads::Scale::Quick
                } else {
                    workloads::Scale::Full
                },
                trace: cli.flag("trace")?,
                budget_s: cli.get("budget", 5.0)?,
                min_rounds: cli.get("min-rounds", run::MIN_ROUNDS)?,
                warmup: cli.get("warmup", epoch::WARMUP_ROUNDS)?,
                index: cli.get("index", 0)?,
                work_dir: PathBuf::from(
                    cli.options
                        .get("work-dir")
                        .ok_or("epoch needs --work-dir")?,
                ),
            };
            println!("EPOCH {}", epoch::run(cfg).to_json().render());
            Ok(true)
        }
        Some("repeat-check") => repeat::check(
            cli.get("sets", 2)?,
            cli.get("runs", 3)?,
            cli.get("seconds", 30.0)?,
            cli.get("seed", workloads::DEFAULT_SEED)?,
            cli.flag("quick")?,
        ),
        Some("run") | None => match cli.workload()? {
            Some(workload) => {
                let outcome = run::run(&run_args(cli, workload, cli.flag("trace")?)?);
                print!("{}", outcome.text);
                println!("{}", outcome.result_line());
                Ok(outcome.correct)
            }
            None => {
                // The suite: every workload, untraced then traced.
                let mut ok = true;
                for trace in [false, true] {
                    for workload in workloads::WORKLOADS {
                        let outcome = run::run(&run_args(cli, workload.to_string(), trace)?);
                        print!("{}", outcome.text);
                        println!("{}\n", outcome.result_line());
                        ok &= outcome.correct;
                    }
                }
                Ok(ok)
            }
        },
        Some(other) => Err(format!("unknown command `{other}` (run, repeat-check)")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_cli(&args).and_then(|cli| dispatch(&cli)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
