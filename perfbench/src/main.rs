//! The mcmem benchmark: end-to-end metrics of three workloads (untraced),
//! or a per-layer table measured from outside the program (traced).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-grid|event-mlp|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--write-expected`
//! prints the expected-digest file instead (see `expected_digests.txt`).

mod alloc;
mod grid;
mod host;
mod layers;
mod mlp;
mod report;
mod serve_mix;
mod stats;
mod trace;

use report::{Report, Run};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["paper-grid", "event-mlp", "serve-mix"];

fn parse_args(args: &[String]) -> Result<Run, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Run {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn execute(run: &Run) -> Result<Report, String> {
    match (run.workload.as_str(), run.trace) {
        ("paper-grid", false) => grid::run(run),
        ("paper-grid", true) => grid::traced(run),
        ("event-mlp", false) => mlp::run(run),
        ("event-mlp", true) => mlp::traced(run),
        ("serve-mix", false) => serve_mix::run(run),
        ("serve-mix", true) => serve_mix::traced(run),
        (other, _) => Err(format!("unknown workload {other}")),
    }
}

/// Prints every op's digest and each workload's folded digest.
fn write_expected() -> Result<(), String> {
    println!("# workload op-label digest, from a full pass of every workload's op set.");
    println!("# Regenerate with --write-expected only when the model's outputs change on purpose.");
    let threads = host::nproc().min(2);
    let sets = [
        ("paper-grid", grid::digests(threads)?),
        ("event-mlp", mlp::digests()?),
        ("serve-mix", serve_mix::digests()?),
    ];
    for (workload, digests) in sets {
        let map: std::collections::BTreeMap<String, String> = digests.into_iter().collect();
        for (label, digest) in &map {
            println!("{workload} {label} {digest}");
        }
        println!("{workload} {} {}", report::ALL, report::fold(&map));
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("--write-expected") {
        write_expected()
    } else {
        parse_args(&args)
            .and_then(|run| execute(&run))
            .map(|r| r.print())
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
