//! `gas` — the GPU-ArraySort reproduction CLI.
//!
//! Generate seeded batch datasets, sort them with any of the four
//! implemented algorithms on a simulated device, verify against the CPU
//! oracle, and inspect device capacities. See `gas` with no arguments
//! for usage.

mod args;
mod commands;
mod io;

use args::Args;
use commands::{
    cmd_capacity, cmd_chaos, cmd_devices, cmd_generate, cmd_metrics, cmd_profile, cmd_serve,
    cmd_soak, cmd_sort, usage,
};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => usage_error(&e.to_string()),
    };
    // `--splitters` is shared by every sorting subcommand; an unknown
    // value is an argument error (exit 2), same as any unparsable argv.
    if let Some(v) = args.get("splitters") {
        if let Err(e) = array_sort::SplitterPolicy::parse(v) {
            usage_error(&format!("--splitters: {e}"));
        }
    }
    // The serving tuning knobs (serve/soak) are numbers wherever they
    // appear: the watchdog slack, the hedging threshold and the
    // admission window (which may also be the literal "auto",
    // cost-model-chosen) must be finite and ≥ 0, and the workload mix
    // fractions finite shares in [0, 1]. A value that does not parse or
    // is out of range is an argument error (exit 2) naming the flag —
    // never a silent "off", "auto" or "always".
    for (key, expected, max) in [
        ("timeout-slack", "a finite number ≥ 0", f64::INFINITY),
        ("hedge-slack-ms", "a finite number of ms ≥ 0", f64::INFINITY),
        (
            "batch-window-ms",
            "a finite duration in ms ≥ 0 or \"auto\"",
            f64::INFINITY,
        ),
        ("warp-fraction", "a fraction in [0, 1]", 1.0),
        ("fused-fraction", "a fraction in [0, 1]", 1.0),
        ("det-fraction", "a fraction in [0, 1]", 1.0),
        ("repeat-fraction", "a fraction in [0, 1]", 1.0),
    ] {
        let Some(v) = args.get(key) else { continue };
        if key == "batch-window-ms" && v == "auto" {
            continue;
        }
        match v.parse::<f64>() {
            Err(_) => usage_error(&format!("--{key}: cannot parse {v:?}, expected {expected}")),
            Ok(x) if !(x.is_finite() && (0.0..=max).contains(&x)) => usage_error(&format!(
                "--{key}: {v} is out of range, expected {expected}"
            )),
            Ok(_) => {}
        }
    }
    // The cache size is a whole number of entries.
    if let Some(v) = args.get("cache-entries") {
        if v.parse::<usize>().is_err() {
            usage_error(&format!(
                "--cache-entries: expected a whole number of entries, got {v:?}"
            ));
        }
    }
    let result = match args.command.as_str() {
        "generate" => cmd_generate(&args),
        "sort" => cmd_sort(&args),
        "serve" => cmd_serve(&args),
        "soak" => cmd_soak(&args),
        "chaos" => cmd_chaos(&args),
        "metrics" => cmd_metrics(&args),
        "profile" => cmd_profile(&args),
        "devices" => cmd_devices(&args),
        "capacity" => cmd_capacity(&args),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            return;
        }
        other => Err(format!("unknown command {other:?}\n\n{}", usage()).into()),
    };
    match result {
        Ok(msg) => println!("{msg}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Reports an argument error with the usage text and exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{}", usage());
    std::process::exit(2);
}
