//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Untraced (`--trace
//! 0`), it repeats the workload for `--seconds` and prints the
//! end-to-end metrics; traced (`--trace 1`), it prints the per-layer
//! metrics from spans recorded around the calls into each layer, and
//! writes the span totals to `.bench_trace/`. Both check the simulated
//! outputs; a failed check makes the run incorrect. The load is
//! simulated, and the host side runs one simulation at a time.
//!
//! Workloads (`BENCHMARK.json` records why each was chosen):
//! `uniform_8x8x8_overload`, `uniform_16x16x16_sharded`,
//! `md_halo_4x4x8_telemetry` and `md_step_2x2x2_compressed`.

mod fabric;
mod md_step;
mod replica;
mod report;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

const WORKLOADS: [&str; 4] = [
    "uniform_8x8x8_overload",
    "uniform_16x16x16_sharded",
    "md_halo_4x4x8_telemetry",
    "md_step_2x2x2_compressed",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}; one of {WORKLOADS:?}")),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: u32 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Median of a non-empty sample.
fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The `ceil(q * n)`-th smallest of sorted `v`: the order statistic the
/// driver's latency histograms report the bucket of.
fn order_stat<T: Copy>(v: &[T], q: f64) -> T {
    let k = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[k - 1]
}

/// Calls `rep` until `seconds` have passed, and at least twice, so that
/// repeats of one seed can be compared.
fn repeat<T>(seconds: f64, mut rep: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        out.push(rep());
    }
    out
}

/// The process's peak resident memory (VmHWM), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Writes the span totals of a traced run, one line per call path, to
/// `.bench_trace/<workload>-<seed>.tsv` under the working directory.
fn write_trace(workload: &str, seed: u64, paths: &BTreeMap<String, trace::Totals>) {
    let mut text = String::from("path\tcalls\ttotal_s\tself_s\n");
    for (path, t) in paths {
        text += &format!("{path}\t{}\t{}\t{}\n", t.calls, t.total_s, t.self_s);
    }
    let dir = std::path::Path::new(".bench_trace");
    let file = dir.join(format!("{workload}-{seed}.tsv"));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, text)) {
        eprintln!("could not write {}: {e}", file.display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let (name, seed) = (args.workload.as_str(), args.seed);
    let report = if name == "md_step_2x2x2_compressed" {
        let case = md_step::MdStepCase::new(seed);
        if args.trace {
            md_step::traced(&case, name, seed)
        } else {
            md_step::measure(&case, args.seconds)
        }
    } else {
        let case = fabric::FabricCase::named(name, seed).expect("workload names are checked");
        if args.trace {
            fabric::traced(&case, name, seed)
        } else {
            fabric::measure(&case, args.seconds)
        }
    };
    for f in report.failures() {
        eprintln!("check failed: {f}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_are_parsed_and_checked() {
        let a =
            args("--workload md_step_2x2x2_compressed --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("md_step_2x2x2_compressed", 7, 10.0, true)
        );
        assert!(args("--workload nope --seed 7 --seconds 10 --trace 0").is_err());
        assert!(args("--workload uniform_8x8x8_overload --seed 7 --seconds 10 --trace 2").is_err());
        assert!(args("--workload uniform_8x8x8_overload --seed 7 --seconds 10").is_err());
        assert!(args("--workload uniform_8x8x8_overload --seed x --seconds 10 --trace 0").is_err());
        assert!(
            args("--workload uniform_8x8x8_overload --seed 1 --seconds 10 --trace 0 --x 1")
                .is_err()
        );
    }

    #[test]
    fn statistics_and_repeat() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(order_stat(&[1, 2, 3, 4], 0.5), 2);
        assert_eq!(order_stat(&[1, 2, 3, 4], 0.99), 4);
        assert_eq!(repeat(0.0, || 1).len(), 2);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn every_workload_name_builds_its_case() {
        for name in WORKLOADS {
            assert!(
                fabric::FabricCase::named(name, 1).is_some()
                    == (name != "md_step_2x2x2_compressed"),
                "{name}"
            );
        }
    }
}
