//! Regenerates the paper's **Table I** on synthetic twins of the 21
//! ISCAS89/ITC99 circuits.
//!
//! ```text
//! cargo run -p minobswin-bench --release --bin table1 -- [--scale N]
//!     [--giant-extra N] [--filter SUBSTR] [--vectors K] [--frames N] [--full]
//! ```
//!
//! `--full` runs unscaled twins. On a 2-vCPU VM (release build) the
//! 22k–70k-vertex rows took 4.3–50.5 s each, and b19_1, the largest
//! (213k vertices), took 575 s with a peak RSS of 1.5 GiB. The default
//! `--scale 16` reproduces the qualitative shape in minutes. Values follow `retimer`'s rules (`bench_harness::args`):
//! the scales are positive, the simulation size passes
//! `SimConfig::validate`, and a bad value exits 2.

use std::process::ExitCode;

use bench_harness::args::{positive, Args};
use bench_harness::{format_table, run_table1, Table1Options};

const USAGE: &str = "usage: table1 [--scale N] [--giant-extra N] [--filter SUBSTR] \
                     [--vectors K] [--frames N] [--full]";

fn main() -> ExitCode {
    let Ok(options) = read_options().map_err(|e| eprintln!("error: {e}")) else {
        return ExitCode::from(2);
    };
    eprintln!(
        "running Table I twins at scale 1/{} (giants 1/{}), K={}, n={} ...",
        options.scale,
        options.scale * options.giant_extra_scale,
        options.num_vectors,
        options.frames
    );
    let rows = run_table1(&options);
    println!("{}", format_table(&rows));
    ExitCode::SUCCESS
}

fn read_options() -> Result<Table1Options, String> {
    let mut args = Args::new(std::env::args().skip(1));
    args.help(USAGE);
    // `--full` is `--scale 1 --giant-extra 1`; explicit scales win.
    let full = args.switch("--full");
    let unscaled = |default: usize| if full { 1 } else { default };
    let defaults = Table1Options::default();
    let mut options = Table1Options {
        scale: (args.value("--scale", "a positive integer", positive)?)
            .unwrap_or(unscaled(defaults.scale)),
        giant_extra_scale: (args.value("--giant-extra", "a positive integer", positive)?)
            .unwrap_or(unscaled(defaults.giant_extra_scale)),
        filter: args.string("--filter")?,
        ..defaults
    };
    let giant_scale = options.scale.checked_mul(options.giant_extra_scale);
    giant_scale.ok_or("--scale times --giant-extra overflows")?;
    let sim = args.sim_size(options.sim())?;
    (options.num_vectors, options.frames) = (sim.num_vectors, sim.frames);
    args.finish()?;
    Ok(options)
}
