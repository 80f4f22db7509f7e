//! The one command-line reader the `retimer` and `table1` binaries
//! share.
//!
//! A subcommand reads its flags by name (the last occurrence of a flag
//! wins), its switches by presence, and then its single positional
//! input; whatever no reader took is an `unknown argument`. Each value
//! is parsed and range-checked once, by the reader of its flag group,
//! so a bad value exits 2 with the flag named instead of panicking
//! deeper in the pipeline.

use std::str::FromStr;

use faultsim::CampaignConfig;
use minobswin::{budget_seconds, SolveBudget};
use ser_engine::sim::SimConfig;

/// What reading an optional flag gives: its value, `None` when absent,
/// or the error that names it.
pub type Read<T> = Result<Option<T>, String>;

/// The command-line tokens not yet taken by a reader.
#[derive(Debug)]
pub struct Args {
    tokens: Vec<Option<String>>,
}

/// Accepts every value that parses.
pub fn any<T>(_: &T) -> bool {
    true
}

/// A value above zero.
pub fn positive<T: PartialOrd + Default>(v: &T) -> bool {
    *v > T::default()
}

/// A finite real at least 0.
pub fn non_negative(v: &f64) -> bool {
    v.is_finite() && *v >= 0.0
}

impl Args {
    /// Wraps the tokens that follow the program (and subcommand) name.
    pub fn new(tokens: impl IntoIterator<Item = String>) -> Self {
        Self {
            tokens: tokens.into_iter().map(Some).collect(),
        }
    }

    /// Takes every `NAME VALUE` pair spelled `names[0]` (or an alias
    /// in `names[1..]`) and converts the last value with `rule`, which
    /// parses and range-checks in one step; `None` when absent. The
    /// error for a missing or rejected value names the flag and `what`
    /// it accepts.
    pub fn value_with<T>(
        &mut self,
        names: &[&str],
        what: &str,
        rule: impl Fn(&str) -> Option<T>,
    ) -> Read<T> {
        let named = |t: &Option<String>| t.as_deref().is_some_and(|t| names.contains(&t));
        let mut last = None;
        for i in 0..self.tokens.len() {
            if named(&self.tokens[i]) {
                self.tokens[i] = None;
                last = Some(self.tokens.get_mut(i + 1).and_then(Option::take));
            }
        }
        let Some(raw) = last else { return Ok(None) };
        let Some(raw) = raw else {
            return Err(format!("{} needs {what}", names[0]));
        };
        rule(&raw)
            .map(Some)
            .ok_or_else(|| format!("{} needs {what}, got `{raw}`", names[0]))
    }

    /// `flag VALUE`, parsed as a `T` that passes `ok` (see
    /// [`Args::value_with`]).
    pub fn value<T: FromStr>(&mut self, flag: &str, what: &str, ok: fn(&T) -> bool) -> Read<T> {
        self.value_with(&[flag], what, |s| s.parse().ok().filter(ok))
    }

    /// `flag VALUE` as text (a path or a name).
    pub fn string(&mut self, flag: &str) -> Read<String> {
        self.value_with(&[flag], "a value", |s| Some(s.to_string()))
    }

    /// Whether the switch `flag` is present.
    pub fn switch(&mut self, flag: &str) -> bool {
        let mut seen = false;
        for token in &mut self.tokens {
            if token.as_deref() == Some(flag) {
                (*token, seen) = (None, true);
            }
        }
        seen
    }

    /// Prints `usage` and exits 0 on `--help` or `-h`.
    pub fn help(&mut self, usage: &str) {
        if self.switch("--help") | self.switch("-h") {
            eprintln!("{usage}");
            std::process::exit(0);
        }
    }

    /// Fails on the first token no reader took.
    pub fn finish(self) -> Result<(), String> {
        let left = self.tokens.into_iter().flatten().next();
        left.map_or(Ok(()), |token| Err(format!("unknown argument `{token}`")))
    }

    /// Takes the single positional input (the first token left that is
    /// not a flag), then [`Args::finish`]es.
    pub fn input(mut self) -> Result<String, String> {
        let is_input = |t: &Option<String>| t.as_deref().is_some_and(|t| !t.starts_with('-'));
        let at = self.tokens.iter().position(is_input);
        let input = at.and_then(|i| self.tokens[i].take());
        self.finish()?;
        input.ok_or_else(|| "missing input netlist (try --help)".into())
    }

    /// `--threads T` (alias `--workers`): a worker count, `0` deferring
    /// to `SER_THREADS` and then to all cores.
    pub fn threads(&mut self) -> Read<usize> {
        let names = ["--threads", "--workers"];
        self.value_with(&names, "a non-negative integer", |s| s.parse().ok())
    }

    /// `--vectors K --frames N` over `sim`, checked by
    /// [`SimConfig::validate`].
    pub fn sim_size(&mut self, sim: SimConfig) -> Result<SimConfig, String> {
        let vectors = self.value("--vectors", "a positive multiple of 64", any)?;
        let frames = self.value("--frames", "a positive integer", any)?;
        let sim = SimConfig {
            num_vectors: vectors.unwrap_or(sim.num_vectors),
            frames: frames.unwrap_or(sim.frames),
            ..sim
        };
        // `validate` opens its message with the field, which is also
        // the flag's name.
        sim.validate().map_err(|e| format!("--{e}"))?;
        Ok(sim)
    }

    /// `--seed S --threads T` plus [`Args::sim_size`]: the simulation of
    /// every subcommand that analyzes a netlist.
    pub fn sim(&mut self, sim: SimConfig) -> Result<SimConfig, String> {
        let seed = self.value("--seed", "an integer", any)?;
        let threads = self.threads()?;
        self.sim_size(SimConfig {
            seed: seed.unwrap_or(sim.seed),
            threads: threads.unwrap_or(sim.threads),
            ..sim
        })
    }

    /// `--time-budget SECS --max-iters N`: a solve budget, the seconds
    /// checked by [`budget_seconds`].
    pub fn budget(&mut self) -> Result<SolveBudget, String> {
        let wall_time = self
            .value("--time-budget", "a number of seconds", any)?
            .map(|secs| budget_seconds(secs).map_err(|e| format!("--time-budget {e}")))
            .transpose()?;
        let iterations = self.value("--max-iters", "a non-negative integer", any)?;
        Ok(SolveBudget::new()
            .with_wall_time(wall_time)
            .with_max_iterations(iterations))
    }

    /// `--injections N --campaign-seed S`: a Monte-Carlo campaign on
    /// `workers` threads.
    pub fn campaign(&mut self, workers: usize) -> Result<CampaignConfig, String> {
        let injections = self.value("--injections", "a positive integer", positive)?;
        let mut campaign = CampaignConfig::new(injections.unwrap_or(100_000)).with_workers(workers);
        if let Some(seed) = self.value("--campaign-seed", "an integer", any)? {
            campaign = campaign.with_seed(seed);
        }
        Ok(campaign)
    }

    /// `--out --gates --tier --samples-only --profile` of a `bench-*`
    /// subcommand: its JSON output path, the generated circuit sizes it
    /// measures after the samples (`--tier small` keeps the `--gates`
    /// list, or `gates`; `--samples-only` drops it), and whether it
    /// prints the per-phase profile table.
    pub fn bench(
        &mut self,
        out: &str,
        gates: Vec<usize>,
    ) -> Result<(String, Vec<usize>, bool), String> {
        let list = |s: &str| s.split(',').map(|g| g.trim().parse().ok()).collect();
        let what = "a comma-separated list of gate counts";
        let mut gates = self.value_with(&["--gates"], what, list)?.unwrap_or(gates);
        if let Some(tier) = self.string("--tier")? {
            gates = crate::tier_gates(&tier, gates)?;
        }
        if self.switch("--samples-only") {
            gates.clear();
        }
        let out = self.string("--out")?.unwrap_or_else(|| out.into());
        Ok((out, gates, self.switch("--profile")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        Args::new(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_last_occurrence_wins_and_aliases_share_a_value() {
        let mut a = args("--seed 1 in.bench --workers 2 --seed 3 --threads 4");
        assert_eq!(a.value::<u64>("--seed", "an integer", any), Ok(Some(3)));
        assert_eq!(a.threads(), Ok(Some(4)));
        assert_eq!(a.input().as_deref(), Ok("in.bench"));
    }

    #[test]
    fn negative_values_and_leftovers() {
        let mut a = args("--r-min -3 x.bench --bogus");
        assert_eq!(a.value::<i64>("--r-min", "an integer", any), Ok(Some(-3)));
        assert_eq!(a.input().unwrap_err(), "unknown argument `--bogus`");
        assert_eq!(
            args("a.bench b.bench").input().unwrap_err(),
            "unknown argument `b.bench`"
        );
        assert!(args("").input().unwrap_err().contains("missing input"));
    }

    #[test]
    fn bad_values_name_their_flag() {
        let err = |line: &str, read: fn(&mut Args) -> Result<(), String>| {
            read(&mut args(line)).unwrap_err()
        };
        assert_eq!(
            err("--injections 0", |a| a.campaign(1).map(drop)),
            "--injections needs a positive integer, got `0`"
        );
        assert_eq!(
            err("--out", |a| a.string("--out").map(drop)),
            "--out needs a value"
        );
        assert!(
            err("--vectors 100", |a| a.sim(SimConfig::default()).map(drop))
                .starts_with("--vectors must be a positive multiple of 64")
        );
        assert!(err("--time-budget 1e300", |a| a.budget().map(drop))
            .starts_with("--time-budget must be"));
        assert!(err("--gates 1,x", |a| a.bench("o", vec![]).map(drop)).contains("--gates"));
    }

    #[test]
    fn bench_lists_follow_tier_then_samples_only() {
        let read = |line: &str| args(line).bench("B.json", vec![300, 1000]).unwrap();
        assert_eq!(read(""), ("B.json".into(), vec![300, 1000], false));
        assert_eq!(read("--gates 5,6 --tier small").1, vec![5, 6]);
        assert_eq!(read("--tier large").1, vec![10_000]);
        assert!(read("--tier xlarge --samples-only").1.is_empty());
        assert_eq!(
            read("--out x.json --profile"),
            ("x.json".into(), vec![300, 1000], true)
        );
    }
}
