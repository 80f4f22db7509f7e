//! Job specifications and the per-job state machine.
//!
//! A job is one netlist plus one solve configuration. Its lifecycle
//! maps 1:1 onto the `retimer` CLI's stable exit codes:
//!
//! ```text
//! queued → parsing → levelized → running(iter k) ─┬─ done       exit 0
//!                                                 ├─ degraded   exit 4
//!                                                 ├─ cancelled  exit 4
//!                                                 └─ failed     exit 1|2|3
//! queued ──(deadline_ms elapsed before a worker dequeues)─ expired  exit 5
//! ```

use std::time::Duration;

use ser_engine::sim::SimConfig;

use crate::json::Json;

/// A job identifier (client-chosen or daemon-generated, unique for
/// the daemon's lifetime).
pub type JobId = String;

pub use netlist::NetlistFormat;

/// Parses a protocol name or file extension into a [`NetlistFormat`],
/// with the daemon's error message.
///
/// # Errors
///
/// A message naming the unknown format.
pub fn format_from_name(name: &str) -> Result<NetlistFormat, String> {
    NetlistFormat::from_name(name)
        .ok_or_else(|| format!("unknown netlist format `{name}` (use bench, blif or verilog)"))
}

/// Which optimizer a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Method {
    /// The Efficient MinObs baseline.
    MinObs,
    /// MinObsWin (the paper's Algorithm 1; the default).
    #[default]
    MinObsWin,
}

impl Method {
    /// The protocol name.
    pub fn name(&self) -> &'static str {
        match self {
            Method::MinObs => "minobs",
            Method::MinObsWin => "minobswin",
        }
    }

    /// Parses a protocol name.
    ///
    /// # Errors
    ///
    /// A message naming the unknown method.
    pub fn from_name(name: &str) -> Result<Self, String> {
        match name {
            "minobs" => Ok(Method::MinObs),
            "minobswin" => Ok(Method::MinObsWin),
            other => Err(format!("unknown method `{other}`")),
        }
    }
}

/// One job: a netlist (inline source; the server resolves `path`
/// submissions to content before admission, so the cache is keyed on
/// content, never on file names) plus the solve configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Unique job id.
    pub id: JobId,
    /// The netlist text.
    pub source: String,
    /// How to parse [`JobSpec::source`].
    pub format: NetlistFormat,
    /// Which optimizer's result the job reports.
    pub method: Method,
    /// Simulation vectors (default 256).
    pub vectors: usize,
    /// Simulation frames (default 8).
    pub frames: usize,
    /// Stimulus seed.
    pub seed: u64,
    /// Optional `R_min` override.
    pub r_min: Option<i64>,
    /// Wall-clock budget in seconds (`None`: the daemon default); see
    /// [`JobSpec::wall_time`].
    pub time_budget: Option<f64>,
    /// Iteration budget (`None`: the daemon default).
    pub max_iters: Option<usize>,
    /// Admission deadline in milliseconds: if the job is still queued
    /// this long after admission, a worker rejects it as
    /// [`JobState::Expired`] instead of running it (`None`: wait
    /// forever). Not part of the config fingerprint — it decides
    /// whether the job runs, never what the solve produces.
    pub deadline_ms: Option<u64>,
}

impl JobSpec {
    /// A spec with the daemon defaults for `id` and `source`.
    pub fn new(id: impl Into<JobId>, source: impl Into<String>, format: NetlistFormat) -> Self {
        Self {
            id: id.into(),
            source: source.into(),
            format,
            method: Method::default(),
            vectors: 256,
            frames: 8,
            seed: 0xC0FFEE,
            r_min: None,
            time_budget: None,
            max_iters: None,
            deadline_ms: None,
        }
    }

    /// The simulation the job's solve runs.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            num_vectors: self.vectors,
            frames: self.frames,
            seed: self.seed,
            ..SimConfig::default()
        }
    }

    /// The job's own wall-clock budget (`None`: the daemon default).
    ///
    /// # Errors
    ///
    /// A `time_budget` that [`minobswin::budget_seconds`] rejects.
    pub fn wall_time(&self) -> Result<Option<Duration>, String> {
        let check =
            |secs| minobswin::budget_seconds(secs).map_err(|e| format!("`time_budget` {e}"));
        self.time_budget.map(check).transpose()
    }

    /// Serializes to the JSON shape shared by `submit` requests and
    /// the persisted `jobs/<id>.job` recovery files.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("id", Json::str(&self.id)),
            ("source", Json::str(&self.source)),
            ("format", Json::str(self.format.name())),
            ("method", Json::str(self.method.name())),
            ("vectors", Json::num(self.vectors as f64)),
            ("frames", Json::num(self.frames as f64)),
            ("seed", Json::num(self.seed as f64)),
        ];
        if let Some(r) = self.r_min {
            pairs.push(("r_min", Json::num(r as f64)));
        }
        if let Some(t) = self.time_budget {
            pairs.push(("time_budget", Json::num(t)));
        }
        if let Some(n) = self.max_iters {
            pairs.push(("max_iters", Json::num(n as f64)));
        }
        if let Some(ms) = self.deadline_ms {
            pairs.push(("deadline_ms", Json::num(ms as f64)));
        }
        Json::obj(pairs)
    }

    /// Parses the JSON shape of [`JobSpec::to_json`] (also the
    /// `submit` request body, minus the server-resolved `path` form).
    /// Unknown keys are ignored, so clients that still send the
    /// retired `threads` and `closure` keys keep working.
    ///
    /// # Errors
    ///
    /// A message describing the first missing or ill-typed field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let id = v
            .get("id")
            .and_then(Json::as_str)
            .ok_or("missing string field `id`")?
            .to_string();
        let source = v
            .get("source")
            .and_then(Json::as_str)
            .ok_or("missing string field `source`")?
            .to_string();
        let format = format_from_name(
            v.get("format")
                .and_then(Json::as_str)
                .ok_or("missing string field `format`")?,
        )?;
        let mut spec = JobSpec::new(id, source, format);
        if let Some(m) = v.get("method") {
            spec.method = Method::from_name(m.as_str().ok_or("`method` must be a string")?)?;
        }
        let uint = |key: &str| -> Result<Option<u64>, String> {
            match v.get(key) {
                None => Ok(None),
                Some(n) => n
                    .as_u64()
                    .map(Some)
                    .ok_or(format!("`{key}` must be a non-negative integer")),
            }
        };
        if let Some(n) = uint("vectors")? {
            spec.vectors = n as usize;
        }
        if let Some(n) = uint("frames")? {
            spec.frames = n as usize;
        }
        spec.sim_config().validate()?;
        if let Some(n) = uint("seed")? {
            spec.seed = n;
        }
        if let Some(n) = uint("max_iters")? {
            spec.max_iters = Some(n as usize);
        }
        if let Some(ms) = uint("deadline_ms")? {
            spec.deadline_ms = Some(ms);
        }
        if let Some(r) = v.get("r_min") {
            spec.r_min = Some(r.as_i64().ok_or("`r_min` must be an integer")?);
        }
        if let Some(t) = v.get("time_budget") {
            spec.time_budget = Some(t.as_f64().ok_or("`time_budget` must be a number")?);
            spec.wall_time()?;
        }
        Ok(spec)
    }
}

/// Where a job is in its lifecycle. Terminal states map 1:1 onto the
/// CLI's stable exit codes (see [`JobState::exit_code`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is parsing the netlist.
    Parsing,
    /// Parsed and levelized; the solve is starting.
    Levelized,
    /// Solving (latest streamed progress).
    Running {
        /// Which method is currently solving.
        method: &'static str,
        /// Total solver iterations so far.
        iterations: usize,
        /// Committed improvement rounds so far.
        commits: usize,
    },
    /// Completed; the result netlist is available (exit 0).
    Done,
    /// A budget expired; the best feasible retiming was emitted
    /// (exit 4).
    Degraded,
    /// Cancelled by request, before or during the solve (exit 4: the
    /// cancellation travels the same budget-stop path).
    Cancelled,
    /// The job failed (exit 1 infeasible, 2 parse/I-O, 3 internal).
    Failed {
        /// The stable exit code the one-shot CLI would have returned.
        exit: u8,
        /// The error message.
        error: String,
    },
    /// Still queued when its [`JobSpec::deadline_ms`] elapsed; a
    /// worker rejected it without running the solve (exit 5 — the
    /// first code beyond the one-shot CLI's 0–4 range, since a
    /// one-shot run has no queue to expire in).
    Expired,
}

impl JobState {
    /// Whether the job has reached a terminal state.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done
                | JobState::Degraded
                | JobState::Cancelled
                | JobState::Failed { .. }
                | JobState::Expired
        )
    }

    /// The stable exit code of a terminal state (`None` while the job
    /// is still live).
    pub fn exit_code(&self) -> Option<u8> {
        match self {
            JobState::Done => Some(0),
            JobState::Degraded | JobState::Cancelled => Some(4),
            JobState::Failed { exit, .. } => Some(*exit),
            JobState::Expired => Some(5),
            _ => None,
        }
    }

    /// The protocol status string.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Parsing => "parsing",
            JobState::Levelized => "levelized",
            JobState::Running { .. } => "running",
            JobState::Done => "done",
            JobState::Degraded => "degraded",
            JobState::Cancelled => "cancelled",
            JobState::Failed { .. } => "failed",
            JobState::Expired => "expired",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_json() {
        let mut spec = JobSpec::new("j1", "INPUT(a)\nOUTPUT(a)\n", NetlistFormat::Bench);
        spec.method = Method::MinObs;
        spec.r_min = Some(-3);
        spec.time_budget = Some(1.5);
        spec.max_iters = Some(99);
        spec.deadline_ms = Some(2_500);
        let json = spec.to_json().to_string();
        let back = JobSpec::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn retired_keys_are_ignored() {
        let line = r#"{"id":"a","source":"x","format":"bench","threads":1,"closure":"fresh"}"#;
        let spec = JobSpec::from_json(&Json::parse(line).unwrap()).unwrap();
        assert_eq!(spec, JobSpec::new("a", "x", NetlistFormat::Bench));
    }

    #[test]
    fn spec_rejects_bad_fields() {
        let bad = |s: &str| JobSpec::from_json(&Json::parse(s).unwrap()).unwrap_err();
        assert!(bad(r#"{"source":"x","format":"bench"}"#).contains("id"));
        assert!(bad(r#"{"id":"a","source":"x","format":"edif"}"#).contains("edif"));
        assert!(bad(r#"{"id":"a","source":"x","format":"bench","vectors":0}"#).contains("vectors"));
        assert!(bad(r#"{"id":"a","source":"x","format":"bench","frames":0}"#).contains("frames"));
        for budget in ["-1", "1e300"] {
            let job =
                format!(r#"{{"id":"a","source":"x","format":"bench","time_budget":{budget}}}"#);
            assert!(bad(&job).contains("time_budget"), "{budget}");
        }
        assert!(bad(r#"{"id":"a","source":"x","format":"bench","method":7}"#).contains("method"));
    }

    #[test]
    fn exit_codes_map_one_to_one() {
        assert_eq!(JobState::Done.exit_code(), Some(0));
        assert_eq!(JobState::Degraded.exit_code(), Some(4));
        assert_eq!(JobState::Cancelled.exit_code(), Some(4));
        assert_eq!(
            JobState::Failed {
                exit: 2,
                error: String::new()
            }
            .exit_code(),
            Some(2)
        );
        assert_eq!(JobState::Expired.exit_code(), Some(5));
        assert_eq!(JobState::Expired.name(), "expired");
        assert_eq!(JobState::Queued.exit_code(), None);
        assert!(!JobState::Parsing.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
        assert!(JobState::Expired.is_terminal());
    }
}
