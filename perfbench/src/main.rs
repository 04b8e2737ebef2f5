//! Command-line entry of the benchmark binary:
//!
//! ```text
//! ami-perfbench --workload <megacity|city_faulted|svc_mix> --seed <n>
//!               --seconds <s> --trace <0|1> [--svcd <path>] [--root <dir>]
//! ```
//!
//! Prints human-readable lines, then one JSON object as the last line.

use ami_perfbench::{city, megacity, svc, RunConfig};
use std::path::PathBuf;
use std::time::Duration;

fn usage(msg: &str) -> ! {
    eprintln!("ami-perfbench: {msg}");
    eprintln!(
        "usage: ami-perfbench --workload <megacity|city_faulted|svc_mix> --seed <n> \
         --seconds <s> --trace <0|1> [--svcd <path>] [--root <dir>]"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut svcd = None;
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .unwrap_or_else(|_| usage("bad --seconds")),
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--svcd" => svcd = Some(PathBuf::from(value)),
            "--root" => root = PathBuf::from(value),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or_else(|| usage("--seconds is required"));
    if !(seconds.is_finite() && seconds > 0.0) {
        usage("--seconds must be positive");
    }
    let config = RunConfig {
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        window: Duration::from_secs_f64(seconds),
        trace,
        root,
        svcd,
    };
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let result = match workload.as_str() {
        "megacity" => Ok(megacity::run(&config)),
        "city_faulted" => Ok(city::run(&config)),
        "svc_mix" => svc::run(&config),
        other => usage(&format!("unknown workload {other}")),
    };
    let (mut out, tracer) = result.unwrap_or_else(|err| {
        eprintln!("ami-perfbench: {workload}: {err}");
        std::process::exit(1);
    });
    if config.trace {
        for (name, count, total, own) in tracer.summary() {
            out.note(
                &format!("span {name}"),
                format!("{count} calls, {total} s total, {own} s self"),
            );
        }
        let dir = config.root.join(".bench_out");
        let path = dir.join(format!("trace-{workload}-seed{}.json", config.seed));
        let written =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json()));
        match written {
            Ok(()) => eprintln!("[spans written to {}]", path.display()),
            Err(err) => eprintln!("[cannot write {}: {err}]", path.display()),
        }
    }
    if let Err(err) = out.print() {
        eprintln!("ami-perfbench: {workload}: {err}");
        std::process::exit(1);
    }
}
