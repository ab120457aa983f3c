//! The relviz benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_adhoc --seed 1 --seconds 50 --trace 0
//! ```
//!
//! Runs one named workload closed-loop from a single client thread,
//! in-process, checks every answer, and prints one JSON object as its
//! last line of output: `correct`, `attempted`, `failed` and `metrics`.
//! With `--trace 0` the metrics are the end-to-end ones (`setup_s`,
//! `ops_per_s`, `p50_ms`, `p95_ms`, `peak_rss_mb`); with `--trace 1` the
//! op sequence is replayed through each layer's public functions under
//! spans, and the metrics are the per-layer ones. Lines before the last
//! start with `#` and describe the run: the instance's identity, the
//! op mix and the error rate. See `perfbench/README.md`.

mod affinity;
mod gallery;
mod harness;
mod ident;
mod serving;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use harness::{Report, Settings};
use workload::{Name, Workload};

struct Args {
    workload: Name,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = Name::ALL.iter().map(|n| n.as_str()).collect();
                workload = Some(Name::parse(&value).ok_or_else(|| {
                    format!("unknown workload `{value}`; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Run lengths per workload, in rounds: measured blocks of about 0.15 s
/// (serve_adhoc's are its whole write-and-reload cycle, about 0.4 s), and
/// warm-up and traced phases of a few seconds. The measured loop's length
/// is `--seconds`.
fn settings(w: &Workload, seconds: f64) -> Settings {
    let (block_rounds, warmup_rounds, traced_rounds) = match w.name {
        Name::ServeScan => (1, 6, 30),
        Name::ServeRecursive => (3, 12, 60),
        Name::ServeAdhoc => (8, 8, 8),
        Name::ShowGallery => (6, 8, 70),
    };
    Settings {
        seconds,
        round_len: w.round_len(),
        block_rounds,
        warmup_rounds,
        traced_rounds,
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; metrics are finite by construction.
fn num(x: f64) -> String {
    assert!(x.is_finite(), "metric value {x} is not finite");
    format!("{x}")
}

fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.failed == 0 && report.tally.attempted > 0,
        report.tally.attempted,
        report.tally.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let machine = ident::Machine::detect(&root);
    let w = Workload::generate(args.workload, args.seed);
    println!(
        "# identity {{\"workload\":\"{}\",\"seed\":{},\"content_hash\":\"{}\",\"nproc\":{},\"profile\":\"{}\",\"git_rev\":\"{}\",\"source_digest\":\"{}\",\"trace\":{}}}",
        w.name.as_str(),
        w.seed,
        w.content_hash(),
        machine.nproc,
        machine.profile,
        machine.git_rev,
        machine.source_digest,
        u8::from(args.trace)
    );
    let settings = settings(&w, args.seconds);
    let spans =
        Path::new("perfbench/out").join(format!("spans-{}-seed{}.jsonl", w.name.as_str(), w.seed));
    let result = match (args.workload, args.trace) {
        (Name::ShowGallery, false) => harness::measure::<gallery::Gallery>(&w, &settings),
        (Name::ShowGallery, true) => harness::traced::<gallery::Gallery>(&w, &settings, &spans),
        (_, false) => harness::measure::<serving::Serve>(&w, &settings),
        (_, true) => harness::traced::<serving::Serve>(&w, &settings, &spans),
    };
    match result {
        Ok(report) => {
            println!("{}", result_line(&report));
            ExitCode::SUCCESS
        }
        Err(harness::Refusal(why)) => {
            eprintln!("perfbench: {why}");
            ExitCode::from(3)
        }
    }
}
