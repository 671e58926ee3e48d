//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one line per metric, then, as the last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 1 if any check
//! failed and 2 on bad arguments.

use std::process::ExitCode;

use perfbench::workload::Workload;

fn usage() -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <u64> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

/// Renders a finite number for JSON (non-finite values become 0).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_owned()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else { return usage() };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|s| *s > 0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };

    let out = perfbench::run(workload, seed, seconds, trace);
    let failed_share = out.failed as f64 / out.attempted as f64;
    println!(
        "# {} seed={seed} seconds={seconds} trace={}",
        workload.name(),
        u8::from(trace)
    );
    println!(
        "failed_share {} share ({} of {})",
        num(failed_share),
        out.failed,
        out.attempted
    );
    println!(
        "timing from {} of {} units (hypervisor steal at most {}%)",
        out.timed_units,
        out.units,
        100.0 * perfbench::STEAL_LIMIT
    );
    for (name, value, unit) in &out.metrics {
        println!("{name} {} {unit}", num(*value));
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
