//! `asdfbench`: keep-up cost, slide-to-verdict latency and an outside-in
//! layer budget of the ASDF reproduction at 50 / 500 / 5000 nodes and under
//! `serve`. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! asdfbench --workload W --seed N --seconds S --trace 0|1 [--smoke]   one run
//! asdfbench [--seed N] [--reps R] [--seconds S] [--smoke]             the suite
//! asdfbench compare A.json B.json                                     two suites
//! ```

mod compare;
mod dag_run;
mod isolated;
mod json;
mod metrics;
mod run;
mod serve_run;
mod stats;
mod suite;
#[cfg(test)]
mod tests;
mod timed;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// `--key value` pairs and bare flags of one invocation.
struct Flags(Vec<String>);

impl Flags {
    fn value(&mut self, key: &str) -> Result<Option<String>, String> {
        let Some(at) = self.0.iter().position(|a| a == key) else {
            return Ok(None);
        };
        if at + 1 >= self.0.len() {
            return Err(format!("`{key}` needs a value"));
        }
        self.0.remove(at);
        Ok(Some(self.0.remove(at)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, key: &str, default: T) -> Result<T, String> {
        match self.value(key)? {
            Some(text) => text
                .parse()
                .map_err(|_| format!("`{key} {text}` is not a valid value")),
            None => Ok(default),
        }
    }

    fn flag(&mut self, key: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != key);
        self.0.len() != before
    }

    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            Some(stray) => Err(format!("unknown argument `{stray}`")),
            None => Ok(()),
        }
    }
}

/// `<target dir>/asdfbench/`: beside the `release/` directory the running
/// executable sits in, so results land wherever the build went.
fn default_out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("asdfbench")))
        .unwrap_or_else(|| PathBuf::from("target/asdfbench"))
}

fn real_main() -> Result<bool, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = args.as_slice() else {
                return Err("usage: asdfbench compare A.json B.json".to_owned());
            };
            return compare::compare_files(a.as_ref(), b.as_ref());
        }
        Some("train") => {
            args.remove(0);
            let mut flags = Flags(args);
            let seed = flags.parsed("--seed", 1)?;
            let smoke = flags.flag("--smoke");
            flags.finish()?;
            run::train_and_print(seed, smoke);
            return Ok(true);
        }
        _ => {}
    }
    let mut flags = Flags(args);
    let seed: u64 = flags.parsed("--seed", 1)?;
    let smoke = flags.flag("--smoke");
    let out_dir = flags
        .value("--out")?
        .map_or_else(default_out_dir, PathBuf::from);
    if let Some(workload) = flags.value("--workload")? {
        let run_args = run::RunArgs {
            workload,
            seed,
            seconds: flags.parsed("--seconds", 10.0)?,
            trace: flags.parsed::<u8>("--trace", 0)? != 0,
            smoke,
            out_dir,
        };
        flags.finish()?;
        let outcome = run::run(&run_args)?;
        print!("{}", outcome.report);
        println!("{}", outcome.detail_line());
        println!("{}", outcome.contract_line());
        // A run that printed its result exits 0, as the benchmark contract
        // asks; whether the outputs were right is the result's `correct`.
        // The suite is what exits non-zero on a failed check.
        return Ok(true);
    }
    let suite_args = suite::SuiteArgs {
        seed,
        reps: flags.parsed("--reps", 5)?,
        seconds: flags.parsed("--seconds", 10.0)?,
        smoke,
        out_dir,
    };
    flags.finish()?;
    suite::run_suite(&suite_args)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("asdfbench: {message}");
            ExitCode::from(2)
        }
    }
}
