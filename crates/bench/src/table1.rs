//! Table I reproduction: per-circuit statistics, Efficient MinObs and
//! MinObsWin results, and the paper's summary averages.

use minobswin::experiment::{CircuitRun, Experiment, RunConfig};
use netlist::generator::{table1_twin, Table1Row as PaperRow, TABLE1_ROWS};
use netlist::parallel;
use ser_engine::sim::SimConfig;

/// Options of a Table I reproduction run.
#[derive(Debug, Clone)]
pub struct Table1Options {
    /// Scale divisor applied to every circuit (1 = full size; the
    /// default 16 keeps the suite laptop-friendly).
    pub scale: usize,
    /// Extra scale divisor for the four giant circuits (b18/b19);
    /// multiplied with `scale`.
    pub giant_extra_scale: usize,
    /// Restrict to circuits whose name contains this substring.
    pub filter: Option<String>,
    /// Simulation vectors `K`.
    pub num_vectors: usize,
    /// Time frames `n` (paper: 15).
    pub frames: usize,
    /// Worker pool for running circuits in parallel (0 = resolve via
    /// `SER_THREADS` / hardware, like every other entry point). With
    /// more than one pool worker each row's own simulation runs
    /// single-threaded to avoid oversubscription; with one pool worker
    /// the per-row simulation inherits the requested thread count.
    pub threads: usize,
}

impl Default for Table1Options {
    fn default() -> Self {
        Self {
            scale: 16,
            giant_extra_scale: 4,
            filter: None,
            num_vectors: 1024,
            frames: 15,
            threads: 0,
        }
    }
}

impl Table1Options {
    /// A very small configuration for tests.
    pub fn tiny() -> Self {
        Self {
            scale: 128,
            giant_extra_scale: 8,
            filter: None,
            num_vectors: 256,
            frames: 6,
            threads: 0,
        }
    }
}

/// One evaluated row.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// The paper's circuit name (the twin adds a suffix).
    pub paper_name: &'static str,
    /// The full per-circuit run.
    pub run: CircuitRun,
}

/// Runs the reproduction over the (filtered, scaled) benchmark suite,
/// fanning the circuits across a worker pool (see
/// [`Table1Options::threads`]). Row order is deterministic — results
/// land by row index, independent of thread scheduling.
///
/// Circuits that fail (e.g. an infeasible initialization on an extreme
/// configuration) are skipped with a message on stderr, mirroring how
/// benchmark suites tolerate individual failures.
pub fn run_table1(options: &Table1Options) -> Vec<Table1Row> {
    let items: Vec<&PaperRow> = TABLE1_ROWS
        .iter()
        .filter(|paper_row| match &options.filter {
            Some(f) => paper_row.name.contains(f.as_str()),
            None => true,
        })
        .collect();
    if items.is_empty() {
        return Vec::new();
    }
    let pool = parallel::resolve_workers_for(options.threads, items.len());
    let sim_threads = if pool > 1 { 1 } else { options.threads };
    let mut slots: Vec<Option<Table1Row>> = Vec::new();
    slots.resize_with(items.len(), || None);
    let chunk = items.len().div_ceil(pool);
    let items = &items;
    std::thread::scope(|scope| {
        for (ci, out) in slots.chunks_mut(chunk).enumerate() {
            scope.spawn(move || {
                for (k, slot) in out.iter_mut().enumerate() {
                    *slot = run_row(items[ci * chunk + k], options, sim_threads);
                }
            });
        }
    });
    slots.into_iter().flatten().collect()
}

/// Runs one benchmark circuit; `None` when it fails.
fn run_row(paper_row: &PaperRow, options: &Table1Options, sim_threads: usize) -> Option<Table1Row> {
    let giant = paper_row.v > 60_000;
    let scale = options.scale * if giant { options.giant_extra_scale } else { 1 };
    let circuit = table1_twin(paper_row, scale);
    let config = RunConfig::default().with_sim(SimConfig {
        num_vectors: options.num_vectors,
        frames: options.frames,
        warmup: 8,
        seed: 0xC0FFEE,
        threads: sim_threads,
    });
    match Experiment::new(&circuit).config(config).run() {
        Ok(run) => Some(Table1Row {
            paper_name: paper_row.name,
            run,
        }),
        Err(e) => {
            eprintln!("skipping {}: {e}", paper_row.name);
            None
        }
    }
}

/// The averages the paper reports in its last row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Summary {
    /// Average Δ#FF of Efficient MinObs (paper: −43.04%).
    pub avg_dff_ref: f64,
    /// Average ΔSER of Efficient MinObs (paper: −26.70%).
    pub avg_dser_ref: f64,
    /// Average Δ#FF of MinObsWin (paper: −38.01%).
    pub avg_dff_new: f64,
    /// Average ΔSER of MinObsWin (paper: −32.70%).
    pub avg_dser_new: f64,
    /// Average `SER_ref/SER_new` (paper: 115%).
    pub avg_ratio: f64,
    /// Average solver runtime of MinObs (seconds).
    pub avg_t_ref: f64,
    /// Average solver runtime of MinObsWin (seconds).
    pub avg_t_new: f64,
    /// Average `#J`.
    pub avg_j: f64,
}

/// Computes the summary row.
pub fn summarize(rows: &[Table1Row]) -> Table1Summary {
    let n = rows.len().max(1) as f64;
    let avg = |f: &dyn Fn(&Table1Row) -> f64| rows.iter().map(f).sum::<f64>() / n;
    Table1Summary {
        avg_dff_ref: avg(&|r| r.run.minobs.delta_ff),
        avg_dser_ref: avg(&|r| r.run.minobs.delta_ser),
        avg_dff_new: avg(&|r| r.run.minobswin.delta_ff),
        avg_dser_new: avg(&|r| r.run.minobswin.delta_ser),
        avg_ratio: avg(&|r| r.run.ser_ratio()),
        avg_t_ref: avg(&|r| r.run.minobs.solve_seconds),
        avg_t_new: avg(&|r| r.run.minobswin.solve_seconds),
        avg_j: avg(&|r| r.run.minobswin.stats.commits as f64),
    }
}

/// Formats the rows in the paper's Table I layout.
pub fn format_table(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:>8} {:>8} {:>7} {:>5} {:>10} | {:>9} {:>8} {:>9} | {:>9} {:>8} {:>4} {:>9} {:>8}\n",
        "Circuit", "|V|", "|E|", "#FF", "Phi", "SER",
        "dFF_ref", "t_ref", "dSER_ref",
        "dFF_new", "t_new", "#J", "dSER_new", "ref/new"
    ));
    out.push_str(&"-".repeat(142));
    out.push('\n');
    for row in rows {
        let r = &row.run;
        out.push_str(&format!(
            "{:<12} {:>8} {:>8} {:>7} {:>4}{} {:>10.3e} | {:>8.2}% {:>8.3} {:>8.2}% | {:>8.2}% {:>8.3} {:>4} {:>8.2}% {:>7.0}%\n",
            row.paper_name,
            r.v,
            r.e,
            r.ff,
            r.phi,
            if r.used_setup_hold { "s" } else { "*" },
            r.ser_original,
            r.minobs.delta_ff * 100.0,
            r.minobs.solve_seconds,
            r.minobs.delta_ser * 100.0,
            r.minobswin.delta_ff * 100.0,
            r.minobswin.solve_seconds,
            r.minobswin.stats.commits,
            r.minobswin.delta_ser * 100.0,
            r.ser_ratio() * 100.0,
        ));
    }
    let s = summarize(rows);
    out.push_str(&"-".repeat(142));
    out.push('\n');
    out.push_str(&format!(
        "{:<12} {:>48} | {:>8.2}% {:>8.3} {:>8.2}% | {:>8.2}% {:>8.3} {:>4.0} {:>8.2}% {:>7.0}%\n",
        "AVG.",
        "",
        s.avg_dff_ref * 100.0,
        s.avg_t_ref,
        s.avg_dser_ref * 100.0,
        s.avg_dff_new * 100.0,
        s.avg_t_new,
        s.avg_j,
        s.avg_dser_new * 100.0,
        s.avg_ratio * 100.0,
    ));
    out.push_str(
        "\nPhi suffix: `s` = setup+hold initialization succeeded, `*` = min-period fallback \
         (R_min = min gate delay; P2 never binds, MinObsWin == MinObs — the paper's \
         s15850.1-style rows).\n",
    );
    out.push_str(
        "paper AVG.: dFF_ref -43.04%, dSER_ref -26.70%, dFF_new -38.01%, #J 4, \
         dSER_new -32.70%, ref/new 115%\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_produces_rows() {
        let _ser = crate::ser_engine_lock();
        let mut options = Table1Options::tiny();
        options.filter = Some("b14_1".to_string());
        let rows = run_table1(&options);
        assert_eq!(rows.len(), 1);
        let table = format_table(&rows);
        assert!(table.contains("b14_1_opt"));
        assert!(table.contains("AVG."));
    }

    #[test]
    fn summary_averages() {
        let _ser = crate::ser_engine_lock();
        let mut options = Table1Options::tiny();
        options.filter = Some("b14".to_string());
        let rows = run_table1(&options);
        assert!(rows.len() >= 2, "b14_1_opt and b14_opt");
        let s = summarize(&rows);
        assert!(s.avg_ratio.is_finite());
        assert!(s.avg_t_new >= 0.0);
    }

    #[test]
    fn filter_excludes() {
        let mut options = Table1Options::tiny();
        options.filter = Some("no_such_circuit".to_string());
        assert!(run_table1(&options).is_empty());
    }
}
