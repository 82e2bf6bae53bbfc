//! The declarative scenario API: one spec, one [`Scenario::run`],
//! serializable experiment files.
//!
//! The paper's evaluation is a matrix of scenarios — workload × policy ×
//! power regime × machine size. A [`Scenario`] *describes* a run as plain
//! data, composed of typed sub-specs:
//!
//! * [`WorkloadSpec`] — a calibrated synthetic [`ProfileName`] (jobs, seed,
//!   optional rescaling and per-job β), or an SWF trace path with cleaning;
//! * [`ClusterSpec`] — machine enlargement and the DVFS [`GearSpec`];
//! * [`PolicySpec`] — baseline, a pinned gear, or the paper's
//!   BSLD-threshold policy;
//! * [`PowerSpec`] — power cap, sleep ladder, dynamic boost, power model
//!   selection ([`PowerModelSpec`]), ledger observation;
//! * [`EngineSpec`] — backfilling substrate, resource selection, tracing;
//! * [`OutputSpec`] — artifact directory.
//!
//! There is one way to run a scenario. [`Scenario::run`] executes the spec
//! end to end and returns a unified [`ScenarioResult`] (metrics + outcomes,
//! plus the power report when the run was power-instrumented). Its
//! [`RunCtx`] attaches what a caller needs beyond the spec: an abort flag,
//! a trace sink and a slot for the wall-clock phase timings;
//! [`RunCtx::default`] attaches nothing. Callers that already hold the jobs
//! and a [`Simulator`] (the serve daemon's resident workloads, hand-built
//! test workloads) call the kernel [`Scenario::run_prepared`] directly;
//! [`Scenario::run`] ends there too. Scenarios serialize to a line-oriented
//! `key = value` text format ([`Scenario::render`] / [`Scenario::parse`]),
//! so experiment files are first-class artifacts, and a [`ScenarioSet`]
//! adds sweep axes that expand into a scenario grid run in parallel
//! through `bsld-par`. Each key is defined once, in one table that file
//! lines, `sweep.<key>` axes and serve overrides
//! ([`ScenarioSet::set_override`]) all parse, validate and name cells
//! through.
//!
//! # Example: a synthetic sweep
//!
//! ```
//! use bsld_core::scenario::{Scenario, ScenarioSet, SweepAxis, WorkloadSpec, ProfileName};
//!
//! // Base spec: 120 SDSC-Blue-like jobs on a 64-cpu machine, seed 7.
//! let base = Scenario::synthetic("sweep", ProfileName::SdscBlue, 120, 7)
//!     .map_workload(|w| match w {
//!         WorkloadSpec::Synthetic { scale_cpus, .. } => *scale_cpus = Some(64),
//!         _ => {}
//!     });
//!
//! // Sweep the paper's BSLD thresholds; expansion yields one scenario each.
//! let set = ScenarioSet {
//!     base,
//!     axes: vec![SweepAxis::new("bsld_th", [1.5, 2.0, 3.0])],
//!     replications: 1,
//!     cell_budget_s: None,
//! };
//! let results = set.run(2).unwrap();
//! assert_eq!(results.len(), 3);
//! for (sc, res) in &results {
//!     // The spec round-trips through its text form...
//!     assert_eq!(Scenario::parse(&sc.render()).unwrap(), *sc);
//!     // ...and every run produced the full workload.
//!     assert_eq!(res.run.outcomes.len(), 120);
//! }
//! ```
//!
//! # Example: SWF replay under a power cap
//!
//! ```
//! use bsld_core::scenario::{PolicySpec, RunCtx, Scenario, SleepSpec, WorkloadSpec};
//! use bsld_core::WqThreshold;
//! use bsld_workload::profiles::TraceProfile;
//!
//! // Export a tiny calibrated trace as a real SWF file.
//! let swf = std::env::temp_dir().join(format!("bsld_scenario_doc_{}.swf", std::process::id()));
//! let w = TraceProfile::sdsc_blue().scaled_cpus(32).generate(11, 60);
//! std::fs::write(&swf, bsld_swf::write_swf(&w.to_swf())).unwrap();
//!
//! // Replay it under a 70 % power budget with the default sleep ladder.
//! let mut sc = Scenario::synthetic("replay", bsld_core::scenario::ProfileName::Ctc, 0, 0);
//! sc.workload = WorkloadSpec::Swf { path: swf.clone(), clean: true };
//! sc.policy = PolicySpec::BsldThreshold { th: 2.0, wq: WqThreshold::NoLimit };
//! sc.power.cap_fraction = Some(0.7);
//! sc.power.sleep = SleepSpec::Paper;
//!
//! let res = sc.run(&RunCtx::default()).unwrap();
//! let power = res.power.expect("capped runs carry a power report");
//! assert!(power.peak <= power.budget.unwrap() + 1e-9);
//! std::fs::remove_file(&swf).ok();
//! ```

use std::cell::Cell;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bsld_cluster::{Cluster, Gear, GearSet, SelectionPolicy};
use bsld_metrics::RunMetrics;
use bsld_model::{GearId, Job};
use bsld_power::{
    Constant, Cubic, Empirical, Linear, PaperDvfs, PowerModel, Rail, RailKind, RailSet,
};
use bsld_powercap::{PowerCap, PowerCapPolicy, PowerReport, SleepConfig, SleepState};
use bsld_sched::{
    simulate, simulate_with_hook, BoostConfig, FixedGearPolicy, FrequencyPolicy, SchedMode,
    SimError,
};
use bsld_workload::profiles::{BetaSpec, TraceProfile};
use bsld_workload::Workload;

use crate::policy::{BsldThresholdPolicy, PowerAwareConfig, WqThreshold};
use crate::sim::{RunResult, Simulator};

/// The five calibrated workloads of the paper, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileName {
    /// CTC SP2 (430 cpus).
    Ctc,
    /// SDSC SP2 (128 cpus, saturated).
    Sdsc,
    /// SDSC Blue Horizon (1 152 cpus).
    SdscBlue,
    /// LLNL Thunder (4 008 cpus).
    LlnlThunder,
    /// LLNL Atlas (9 216 cpus).
    LlnlAtlas,
}

impl ProfileName {
    /// All profiles, paper table order.
    pub const ALL: [ProfileName; 5] = [
        ProfileName::Ctc,
        ProfileName::Sdsc,
        ProfileName::SdscBlue,
        ProfileName::LlnlThunder,
        ProfileName::LlnlAtlas,
    ];

    /// The canonical short key used in scenario files and on the CLI.
    pub fn key(&self) -> &'static str {
        match self {
            ProfileName::Ctc => "ctc",
            ProfileName::Sdsc => "sdsc",
            ProfileName::SdscBlue => "blue",
            ProfileName::LlnlThunder => "thunder",
            ProfileName::LlnlAtlas => "atlas",
        }
    }

    /// The display name used in the paper's tables ("CTC", "SDSCBlue", ...).
    pub fn display_name(&self) -> &'static str {
        match self {
            ProfileName::Ctc => "CTC",
            ProfileName::Sdsc => "SDSC",
            ProfileName::SdscBlue => "SDSCBlue",
            ProfileName::LlnlThunder => "LLNLThunder",
            ProfileName::LlnlAtlas => "LLNLAtlas",
        }
    }

    /// Parses a workload name (canonical key or common aliases). The error
    /// message lists every valid name.
    pub fn parse(s: &str) -> Result<ProfileName, String> {
        Ok(match s.to_ascii_lowercase().as_str() {
            "ctc" => ProfileName::Ctc,
            "sdsc" => ProfileName::Sdsc,
            "blue" | "sdscblue" => ProfileName::SdscBlue,
            "thunder" | "llnlthunder" => ProfileName::LlnlThunder,
            "atlas" | "llnlatlas" => ProfileName::LlnlAtlas,
            other => {
                return Err(format!(
                    "unknown workload: {other} (valid: ctc, sdsc, blue, thunder, atlas)"
                ))
            }
        })
    }

    /// Instantiates the calibrated generative model.
    pub fn profile(&self) -> TraceProfile {
        match self {
            ProfileName::Ctc => TraceProfile::ctc(),
            ProfileName::Sdsc => TraceProfile::sdsc(),
            ProfileName::SdscBlue => TraceProfile::sdsc_blue(),
            ProfileName::LlnlThunder => TraceProfile::llnl_thunder(),
            ProfileName::LlnlAtlas => TraceProfile::llnl_atlas(),
        }
    }
}

/// Where the jobs come from.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// A calibrated synthetic workload generated from a [`ProfileName`].
    Synthetic {
        /// Which calibrated profile.
        profile: ProfileName,
        /// Number of jobs to generate.
        jobs: usize,
        /// Master RNG seed.
        seed: u64,
        /// Rescale the profile to a machine of this many processors
        /// (`TraceProfile::scaled_cpus`) before generating.
        scale_cpus: Option<u32>,
        /// Override the profile's per-job β model.
        beta: Option<BetaSpec>,
    },
    /// A Standard Workload Format trace replayed from disk.
    Swf {
        /// Path to the `.swf` file.
        path: PathBuf,
        /// Apply the default cleaning pipeline (`bsld_swf::clean_trace`).
        clean: bool,
    },
}

impl WorkloadSpec {
    /// Materialises the jobs (generation or trace replay).
    pub fn build(&self) -> Result<Workload, ScenarioError> {
        self.build_with_abort(None)
    }

    /// As [`WorkloadSpec::build`], polling `abort` during the SWF
    /// parse/clean phase.
    ///
    /// Archive traces run to millions of lines; a unit whose
    /// `cell_budget_s` expires while still *loading* its trace must stop
    /// here, not after the event loop finally starts. A raised flag maps to
    /// [`bsld_sched::SimError::Aborted`] so budget attribution upstream is
    /// identical to an in-simulation abort.
    pub fn build_with_abort(
        &self,
        abort: Option<&std::sync::atomic::AtomicBool>,
    ) -> Result<Workload, ScenarioError> {
        match self {
            WorkloadSpec::Synthetic {
                profile,
                jobs,
                seed,
                scale_cpus,
                beta,
            } => {
                let mut p = profile.profile();
                if let Some(cpus) = scale_cpus {
                    p = p.scaled_cpus(*cpus);
                }
                if let Some(b) = beta {
                    p = p.with_beta(*b);
                }
                Ok(p.generate(*seed, *jobs))
            }
            WorkloadSpec::Swf { path, clean } => {
                if abort.is_some_and(|f| f.load(std::sync::atomic::Ordering::SeqCst)) {
                    return Err(ScenarioError::Sim(bsld_sched::SimError::Aborted));
                }
                let trace = Self::load_swf_streaming(path, *clean, abort)?;
                let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
                Workload::from_swf_with_abort(name, &trace, abort)
                    .map_err(|_| ScenarioError::Sim(bsld_sched::SimError::Aborted))
            }
        }
    }

    /// Streaming SWF load: records flow straight from a [`std::io::BufRead`]
    /// through parse (+ clean when requested) without ever materialising
    /// the file's text, so peak memory is bounded by *surviving* records
    /// rather than the file size.
    fn load_swf_streaming(
        path: &std::path::Path,
        clean: bool,
        abort: Option<&std::sync::atomic::AtomicBool>,
    ) -> Result<bsld_swf::SwfTrace, ScenarioError> {
        use bsld_swf::{SwfStream, SwfStreamError};
        let file = std::fs::File::open(path)
            .map_err(|e| ScenarioError::Io(format!("cannot read {}: {e}", path.display())))?;
        let reader = std::io::BufReader::new(file);
        let stream = SwfStream::with_abort(reader, abort);
        let map_parse = |e: bsld_swf::ParseError| match e.kind {
            bsld_swf::ParseErrorKind::Aborted => ScenarioError::Sim(bsld_sched::SimError::Aborted),
            bsld_swf::ParseErrorKind::Io { .. } => {
                ScenarioError::Io(format!("cannot read {}: {e}", path.display()))
            }
            _ => ScenarioError::Workload(e.to_string()),
        };
        if clean {
            let (trace, _summary) = bsld_swf::clean_swf_stream(
                stream,
                &bsld_swf::CleanConfig::default(),
            )
            .map_err(|e| match e {
                SwfStreamError::Parse(p) => map_parse(p),
                SwfStreamError::Clean(_) => ScenarioError::Sim(bsld_sched::SimError::Aborted),
            })?;
            Ok(trace)
        } else {
            stream.collect_trace().map_err(map_parse)
        }
    }
}

/// The machine's DVFS gear set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GearSpec {
    /// The paper's Table 2 gear set (6 gears, 0.8–2.3 GHz).
    Paper,
    /// `n` gears linearly interpolating the paper's frequency/voltage
    /// range (the gear-granularity ablation). Values below 2 behave as 2
    /// everywhere: [`GearSpec::build`] clamps, and the text format
    /// renders/parses the clamped value.
    Interpolated(u8),
}

impl GearSpec {
    /// Builds the gear set.
    pub fn build(&self) -> GearSet {
        match self {
            GearSpec::Paper => GearSet::paper(),
            GearSpec::Interpolated(n) => {
                let n = (*n).max(2) as usize;
                let gears = (0..n)
                    .map(|i| {
                        let t = i as f64 / (n - 1) as f64;
                        Gear {
                            freq_ghz: 0.8 + t * 1.5,
                            voltage: 1.0 + t * 0.5,
                        }
                    })
                    .collect();
                // audit:allow(R1): interpolated gears are clamped to >= 2 strictly increasing entries
                GearSet::new(gears).expect("interpolated set is valid")
            }
        }
    }
}

/// Machine description knobs applied on top of the workload's size.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Enlarge the machine by this percentage (Section 5.2's study;
    /// 0 = original size).
    pub enlarge_pct: u32,
    /// The DVFS gear set.
    pub gears: GearSpec,
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec {
            enlarge_pct: 0,
            gears: GearSpec::Paper,
        }
    }
}

/// The frequency policy of the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicySpec {
    /// Every job at the top gear — the paper's no-DVFS baseline.
    Baseline,
    /// Every job pinned to one gear index (sensitivity studies).
    FixedGear(u8),
    /// The paper's BSLD-threshold frequency assignment.
    BsldThreshold {
        /// `BSLD_threshold`.
        th: f64,
        /// `WQ_threshold`.
        wq: WqThreshold,
    },
}

impl From<PowerAwareConfig> for PolicySpec {
    fn from(cfg: PowerAwareConfig) -> PolicySpec {
        PolicySpec::BsldThreshold {
            th: cfg.bsld_threshold,
            wq: cfg.wq_threshold,
        }
    }
}

/// The idle sleep ladder of a power-instrumented run.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum SleepSpec {
    /// No sleep states.
    #[default]
    None,
    /// The default two-state nap/deep ladder
    /// ([`SleepConfig::paper_default`]).
    Paper,
    /// An explicit ladder.
    Custom(SleepConfig),
}

impl SleepSpec {
    /// Resolves to the concrete ladder.
    pub fn build(&self) -> SleepConfig {
        match self {
            SleepSpec::None => SleepConfig::none(),
            SleepSpec::Paper => SleepConfig::paper_default(),
            SleepSpec::Custom(cfg) => cfg.clone(),
        }
    }
}

/// Which power model prices the run (the `model =` key).
///
/// `None` in [`PowerSpec::model`] keeps the legacy machine layout — a
/// single CPU rail carrying the paper's DVFS model — and renders no
/// `model` line, so pre-existing scenario files (and their campaign cell
/// ids) are untouched. `Some` selects the CPU-rail model and switches the
/// machine to the three-rail layout (CPU + memory + interconnect), making
/// per-rail energy available in the power report. Every alternative CPU
/// model is anchored to the paper model's endpoints (same idle draw, same
/// top-gear draw), so the models differ only in the shape of the curve
/// between them.
#[derive(Debug, Clone, PartialEq)]
pub enum PowerModelSpec {
    /// The paper's DVFS model ([`bsld_power::PaperDvfs`]): `A·C·f·V²`
    /// dynamic plus `α·V` static power.
    Paper,
    /// Energy-unproportional extreme: the top-gear draw at every gear and
    /// utilization ([`bsld_power::Constant`]).
    Constant,
    /// Energy-proportional ramp from idle to top-gear draw
    /// ([`bsld_power::Linear`]).
    Linear,
    /// Cubic frequency scaling between the same endpoints
    /// ([`bsld_power::Cubic`]).
    Cubic,
    /// Piecewise-linear curve from a `(utilization, watts)` CSV file
    /// ([`bsld_power::Empirical`]), read when the simulator is built.
    Empirical(PathBuf),
}

impl PowerModelSpec {
    /// The text-format value (`model = <this>`).
    pub fn render(&self) -> String {
        match self {
            PowerModelSpec::Paper => "paper".into(),
            PowerModelSpec::Constant => "constant".into(),
            PowerModelSpec::Linear => "linear".into(),
            PowerModelSpec::Cubic => "cubic".into(),
            PowerModelSpec::Empirical(p) => {
                format!("empirical:{}", line_safe(&p.display().to_string()))
            }
        }
    }

    /// Parses one model value (the `none` keyword is handled by the key
    /// parser, not here).
    pub fn parse(s: &str) -> Result<PowerModelSpec, String> {
        match s {
            "paper" => Ok(PowerModelSpec::Paper),
            "constant" => Ok(PowerModelSpec::Constant),
            "linear" => Ok(PowerModelSpec::Linear),
            "cubic" => Ok(PowerModelSpec::Cubic),
            other => {
                if let Some(path) = other.strip_prefix("empirical:") {
                    if path.is_empty() {
                        return Err("empirical model needs a CSV path".into());
                    }
                    Ok(PowerModelSpec::Empirical(PathBuf::from(path)))
                } else {
                    Err(format!(
                        "bad model {other:?} (paper | constant | linear | cubic | empirical:<csv>)"
                    ))
                }
            }
        }
    }
}

/// Cluster-power treatment: cap, sleep states, boost, model, observation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PowerSpec {
    /// Cluster power budget as a fraction of peak draw (`None` = no
    /// budget).
    pub cap_fraction: Option<f64>,
    /// `Some(n)`: the cap turns soft once more than `n` other jobs wait.
    pub soft_wq_escape: Option<usize>,
    /// The idle sleep ladder.
    pub sleep: SleepSpec,
    /// Dynamic-boost extension: boost running reduced jobs to the top gear
    /// whenever more than this many jobs wait.
    pub boost: Option<usize>,
    /// The power model pricing the run (`None` = the legacy single-rail
    /// paper model; `Some` selects the CPU model and enables the
    /// three-rail machine layout with per-rail energy attribution).
    pub model: Option<PowerModelSpec>,
    /// Record the power ledger (and return a [`PowerReport`]) even without
    /// a cap or sleep states.
    pub observe: bool,
}

impl PowerSpec {
    /// No power instrumentation at all (the plain scheduling path).
    pub fn off() -> PowerSpec {
        PowerSpec::default()
    }

    /// Whether the run takes the power-instrumented path (ledger + idle
    /// manager + cap enforcement) and returns a [`PowerReport`]. An empty
    /// custom ladder counts as no sleeping, matching how the text format
    /// normalises it to `none`. An explicit model selection instruments
    /// the run — per-rail energy only exists in the ledger.
    pub fn instrumented(&self) -> bool {
        self.observe
            || self.cap_fraction.is_some()
            || self.model.is_some()
            || self.sleep.build().is_enabled()
    }
}

/// Scheduling-engine knobs (a declarative mirror of
/// [`bsld_sched::EngineConfig`]).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSpec {
    /// Queueing discipline.
    pub mode: SchedMode,
    /// EASY backfilling on (`false` = plain FCFS).
    pub backfill: bool,
    /// Resource selection policy.
    pub selection: SelectionPolicy,
    /// Collect a scheduling trace.
    pub trace: bool,
}

impl Default for EngineSpec {
    fn default() -> Self {
        EngineSpec {
            mode: SchedMode::Easy,
            backfill: true,
            selection: SelectionPolicy::FirstFit,
            trace: false,
        }
    }
}

/// Artifact outputs.
///
/// The scenario itself is side-effect-free: [`Scenario::run`] performs no
/// file I/O. This spec is advice to whatever *drives* the scenario — the
/// CLI's `run` subcommand writes its `scenario_results.csv` into
/// `out_dir`, and custom harnesses can consume it the same way.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OutputSpec {
    /// Directory for the driver's CSV artifacts (`None` = don't write).
    pub out_dir: Option<PathBuf>,
}

/// A complete, serializable description of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (labels tables, CSV rows and expanded sweep cells).
    pub name: String,
    /// Job source.
    pub workload: WorkloadSpec,
    /// Machine knobs.
    pub cluster: ClusterSpec,
    /// Frequency policy.
    pub policy: PolicySpec,
    /// Power treatment.
    pub power: PowerSpec,
    /// Engine knobs.
    pub engine: EngineSpec,
    /// Outputs.
    pub output: OutputSpec,
}

/// The unified result of [`Scenario::run`]: every run yields the usual
/// metrics/outcomes; power-instrumented runs additionally carry the
/// [`PowerReport`].
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Metrics, outcomes, trace and engine counters.
    pub run: RunResult,
    /// The power side (`Some` iff [`PowerSpec::instrumented`]).
    pub power: Option<PowerReport>,
}

/// Everything that can go wrong building, parsing or running a scenario.
#[derive(Debug, Clone)]
pub enum ScenarioError {
    /// A scenario file failed to parse.
    Parse {
        /// 1-based line number (0 for file-level errors).
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// The workload could not be built (bad SWF, bad profile).
    Workload(String),
    /// File I/O failed.
    Io(String),
    /// The simulation itself failed (e.g. an infeasible hard cap).
    Sim(SimError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Parse { line, msg } if *line > 0 => {
                write!(f, "scenario parse error at line {line}: {msg}")
            }
            ScenarioError::Parse { msg, .. } => write!(f, "scenario parse error: {msg}"),
            ScenarioError::Workload(msg) => write!(f, "workload error: {msg}"),
            ScenarioError::Io(msg) => write!(f, "io error: {msg}"),
            ScenarioError::Sim(e) => write!(f, "simulation error: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<SimError> for ScenarioError {
    fn from(e: SimError) -> Self {
        ScenarioError::Sim(e)
    }
}

impl Scenario {
    /// A scenario over a synthetic workload with every other spec at its
    /// default: paper gears, original size, baseline policy, no power
    /// instrumentation, EASY backfilling, no outputs.
    pub fn synthetic(
        name: impl Into<String>,
        profile: ProfileName,
        jobs: usize,
        seed: u64,
    ) -> Scenario {
        Scenario {
            name: name.into(),
            workload: WorkloadSpec::Synthetic {
                profile,
                jobs,
                seed,
                scale_cpus: None,
                beta: None,
            },
            cluster: ClusterSpec::default(),
            policy: PolicySpec::Baseline,
            power: PowerSpec::off(),
            engine: EngineSpec::default(),
            output: OutputSpec::default(),
        }
    }

    /// Applies `f` to the workload spec (builder-style convenience).
    pub fn map_workload(mut self, f: impl FnOnce(&mut WorkloadSpec)) -> Scenario {
        f(&mut self.workload);
        self
    }

    /// Materialises the workload described by the spec.
    pub fn build_workload(&self) -> Result<Workload, ScenarioError> {
        self.workload.build()
    }

    /// Builds the configured simulator for a materialised workload.
    ///
    /// Fails only when the power-model spec does (an unreadable or invalid
    /// empirical CSV) — everything else is infallible wiring.
    pub fn simulator(&self, w: &Workload) -> Result<Simulator, ScenarioError> {
        let gears = self.cluster.gears.build();
        let mut sim =
            Simulator::with_cluster(Cluster::new(&*w.cluster_name, w.cpus, gears.clone()));
        if self.cluster.enlarge_pct > 0 {
            sim = sim.enlarged(self.cluster.enlarge_pct);
        }
        sim.engine.mode = self.engine.mode;
        sim.engine.backfill = self.engine.backfill;
        sim.engine.selection = self.engine.selection;
        sim.engine.collect_trace = self.engine.trace;
        sim.engine.boost = self.power.boost.map(|wq_limit| BoostConfig { wq_limit });
        if let Some(spec) = &self.power.model {
            sim.power = build_rails(spec, &gears)?;
        }
        Ok(sim)
    }

    /// Runs the scenario end to end: builds the workload, configures the
    /// simulator and executes it under the declared policy and power
    /// treatment ([`Scenario::run_prepared`]). `ctx` attaches an abort
    /// flag and a trace sink and receives the phase breakdown;
    /// [`RunCtx::default`] attaches nothing.
    pub fn run(&self, ctx: &RunCtx) -> Result<ScenarioResult, ScenarioError> {
        let mut sw = bsld_obs::Stopwatch::start();
        let mut phases = bsld_obs::PhaseSecs::default();
        // The workload build polls the same flag as the event loop: an
        // expired budget cancels a multi-million-line SWF parse, not just
        // the simulation.
        let w = self
            .workload
            .build_with_abort(ctx.abort.as_ref().map(bsld_par::AbortFlag::as_atomic));
        phases.parse_s = sw.lap_s();
        ctx.phases.set(phases);
        let w = w?;
        let sim = self.simulator(&w);
        phases.build_s = sw.lap_s();
        ctx.phases.set(phases);
        let mut sim = sim?;
        sim.engine.abort = ctx.abort.as_ref().map(bsld_par::AbortFlag::handle);
        sim.engine.sink = ctx.sink.clone();
        let res = self.run_prepared(&sim, &w.jobs);
        phases.sim_s = sw.lap_s();
        ctx.phases.set(phases);
        res
    }

    /// Runs the scenario's policy and power treatment on an already-built
    /// simulator and job list (the workload spec is not consulted).
    ///
    /// This is the one execution kernel. It turns the [`PolicySpec`] into
    /// the frequency policy and, when [`PowerSpec::instrumented`], the
    /// [`PowerSpec`] into the power hook (ledger, sleep ladder and budget),
    /// then drives the engine and computes the metrics. A hard budget that
    /// is infeasible for the workload fails with [`SimError::Stalled`]
    /// (as [`ScenarioError::Sim`]).
    pub fn run_prepared(
        &self,
        sim: &Simulator,
        jobs: &[Job],
    ) -> Result<ScenarioResult, ScenarioError> {
        let top = sim.time_model.gears().top();
        let fixed;
        let bsld;
        let policy: &dyn FrequencyPolicy = match self.policy {
            PolicySpec::Baseline => {
                fixed = FixedGearPolicy::new(top);
                &fixed
            }
            PolicySpec::FixedGear(idx) => {
                fixed = FixedGearPolicy::new(GearId(idx.min(top.0)));
                &fixed
            }
            PolicySpec::BsldThreshold { th, wq } => {
                bsld = BsldThresholdPolicy::new(PowerAwareConfig {
                    bsld_threshold: th,
                    wq_threshold: wq,
                });
                &bsld
            }
        };
        let (res, power) = if self.power.instrumented() {
            let peak = || PowerCapPolicy::peak_draw(&sim.power, sim.cluster.cpus);
            let cap = match (self.power.cap_fraction, self.power.soft_wq_escape) {
                (None, _) => PowerCap::Uncapped,
                (Some(f), None) => PowerCap::Hard { budget: f * peak() },
                (Some(f), Some(wq_escape)) => PowerCap::Soft {
                    budget: f * peak(),
                    wq_escape,
                },
            };
            let mut hook = PowerCapPolicy::with_rails(
                &sim.power,
                sim.cluster.cpus,
                cap,
                self.power.sleep.build(),
            );
            if let Some(sink) = &sim.engine.sink {
                // The engine and its power hook share one sink, so sleep
                // transitions interleave with scheduler events in sim-time
                // order.
                hook = hook.with_sink(sink.clone());
            }
            let res = simulate_with_hook(
                &sim.cluster,
                jobs,
                policy,
                &sim.time_model,
                &sim.engine,
                &mut hook,
            )?;
            let report = hook.into_report(res.makespan.as_secs());
            (res, Some(report))
        } else {
            let res = simulate(&sim.cluster, jobs, policy, &sim.time_model, &sim.engine)?;
            (res, None)
        };
        let metrics = RunMetrics::compute(
            &res.outcomes,
            &sim.power,
            sim.cluster.cpus,
            sim.time_model.gears().len(),
        );
        Ok(ScenarioResult {
            run: RunResult {
                metrics,
                outcomes: res.outcomes,
                trace: res.trace,
                pass_stats: res.stats,
            },
            power,
        })
    }
}

/// What a [`Scenario::run`] attaches beyond its spec;
/// [`RunCtx::default`] attaches nothing. The sink and the phase slot never
/// change the simulated outcome, and the abort flag can only cut it short.
#[derive(Debug, Default)]
pub struct RunCtx {
    /// Polled by the SWF load and once per simulation event: raising it
    /// makes the run return [`SimError::Aborted`] promptly. The campaign
    /// pairs it with [`bsld_par::run_budgeted`] to enforce per-cell
    /// wall-time budgets without killing threads.
    pub abort: Option<bsld_par::AbortFlag>,
    /// Receives the run's deterministic trace events. The engine and its
    /// power hook share it, so scheduler and sleep-ladder events interleave
    /// in sim-time order.
    pub sink: Option<Arc<dyn bsld_obs::TraceSink>>,
    /// The wall-clock phase breakdown of the last run (workload load,
    /// simulator build, event loop), written as each phase ends, so a
    /// failed run still records where its time went. Provenance only: the
    /// campaign keeps it in manifest columns.
    pub phases: Cell<bsld_obs::PhaseSecs>,
}

/// Runs scenarios in parallel over `bsld-par`, preserving input order.
pub fn run_many(
    scenarios: &[Scenario],
    threads: usize,
) -> Vec<Result<ScenarioResult, ScenarioError>> {
    bsld_par::par_map(scenarios.to_vec(), threads, |s| s.run(&RunCtx::default()))
}

/// As [`run_many`], with one [`bsld_obs::BufferSink`] attached per
/// scenario. Returns the per-scenario trace events in **input order**:
/// each cell's engine runs single-threaded (its buffer order is a pure
/// function of the run) and the buffers are collected after the parallel
/// sweep, so the trace is byte-identical under any thread count.
pub fn run_many_traced(
    scenarios: &[Scenario],
    threads: usize,
) -> (
    Vec<Result<ScenarioResult, ScenarioError>>,
    Vec<Vec<bsld_obs::TraceEvent>>,
) {
    let sinks: Vec<Arc<bsld_obs::BufferSink>> = scenarios
        .iter()
        .map(|_| bsld_obs::BufferSink::shared())
        .collect();
    let tasks: Vec<(Scenario, Arc<bsld_obs::BufferSink>)> = scenarios
        .iter()
        .cloned()
        .zip(sinks.iter().cloned())
        .collect();
    let results = bsld_par::par_map(tasks, threads, |(s, sink)| {
        s.run(&RunCtx {
            sink: Some(sink),
            ..RunCtx::default()
        })
    });
    let events = sinks.iter().map(|s| s.take()).collect();
    (results, events)
}

/// Memory-rail draw relative to the paper CPU model's endpoints
/// (Subramaniam & Feng measure DRAM at roughly a third of CPU draw; the
/// absolute scale cancels in every normalised report).
const MEM_RAIL_SCALE: f64 = 0.30;

/// Interconnect-rail draw relative to the paper CPU model's top-gear draw;
/// switches and NICs stay powered regardless of load, hence a constant.
const NET_RAIL_SCALE: f64 = 0.15;

/// Resolves a [`PowerModelSpec`] into the three-rail machine layout: the
/// selected CPU model (anchored to the paper model's idle/top endpoints),
/// a linear memory rail and a constant interconnect rail.
fn build_rails(spec: &PowerModelSpec, gears: &GearSet) -> Result<RailSet, ScenarioError> {
    let paper = PaperDvfs::paper(gears.clone());
    let idle = paper.p_idle();
    let full = paper.p_active(gears.top());
    let cpu: Box<dyn PowerModel> = match spec {
        PowerModelSpec::Paper => Box::new(paper),
        PowerModelSpec::Constant => Box::new(Constant::new(gears.clone(), full)),
        PowerModelSpec::Linear => Box::new(Linear::new(gears.clone(), idle, full)),
        PowerModelSpec::Cubic => Box::new(Cubic::new(gears.clone(), idle, full)),
        PowerModelSpec::Empirical(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| ScenarioError::Io(format!("cannot read {}: {e}", path.display())))?;
            Box::new(Empirical::from_csv_str(gears.clone(), &text).map_err(|e| {
                ScenarioError::Parse {
                    line: 0,
                    msg: format!("{}: {e}", path.display()),
                }
            })?)
        }
    };
    let rails = vec![
        Rail::new(RailKind::Cpu, cpu),
        Rail::new(
            RailKind::Memory,
            Box::new(Linear::new(
                gears.clone(),
                MEM_RAIL_SCALE * idle,
                MEM_RAIL_SCALE * full,
            )),
        ),
        Rail::new(
            RailKind::Interconnect,
            Box::new(Constant::new(gears.clone(), NET_RAIL_SCALE * full)),
        ),
    ];
    // audit:allow(R1): the static three-rail layout is structurally valid
    Ok(RailSet::new(rails).expect("the static three-rail layout is always valid"))
}

// ---------------------------------------------------------------------------
// Sweeps
// ---------------------------------------------------------------------------

/// The one directory-valued sweep axis: one cell per `.swf` file of the
/// directory, sorted by file name so that expansion order (and therefore
/// cell naming) is deterministic. It requires an SWF base workload; each
/// cell replaces the base `swf_path` and keeps its `swf_clean`. The
/// directory is read at expansion time.
const SWF_DIR: &str = "swf_dir";

/// One sweep dimension of a [`ScenarioSet`]: a scenario key and the values
/// it takes, each written as in a `key = value` line.
///
/// Every key with a cell-name suffix can be swept (the README lists them),
/// as can `swf_dir`. Expanding the axis sets each value on a copy of
/// every cell exactly as the file line would, then appends the value's
/// suffix to the cell name.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAxis {
    /// The swept key (`sweep.<key>` in the text format).
    pub key: String,
    /// The values, in expansion order.
    pub values: Vec<String>,
}

impl SweepAxis {
    /// An axis over `key`. The values are checked when the set expands.
    pub fn new<V: ToString>(key: &str, values: impl IntoIterator<Item = V>) -> SweepAxis {
        SweepAxis {
            key: key.to_string(),
            values: values.into_iter().map(|v| v.to_string()).collect(),
        }
    }

    /// Parses the value of a `sweep.<key>` line, keeping each value's
    /// canonical text.
    fn parse(key: &str, value: &str) -> Result<SweepAxis, String> {
        // A directory may contain spaces, so it is not whitespace-split.
        if key == SWF_DIR {
            if value.is_empty() {
                return Err("sweep.swf_dir needs a directory".into());
            }
            return Ok(SweepAxis::new(SWF_DIR, [value]));
        }
        let parts: Vec<&str> = value.split_whitespace().collect();
        if parts.is_empty() {
            return Err(format!("sweep.{key} has no values"));
        }
        let key = sweep_key(key)?;
        Ok(SweepAxis {
            key: key.name.to_string(),
            values: parts
                .iter()
                .map(|v| key.canonical(v))
                .collect::<Result<_, _>>()?,
        })
    }
}

/// The `.swf` files of `dir`, sorted by file name — the deterministic cell
/// order of a [`SWF_DIR`] expansion.
fn list_swf_files(dir: &Path) -> Result<Vec<PathBuf>, ScenarioError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| ScenarioError::Io(format!("cannot read {}: {e}", dir.display())))?;
    let mut files: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry =
            entry.map_err(|e| ScenarioError::Io(format!("cannot read {}: {e}", dir.display())))?;
        let path = entry.path();
        let is_swf = path
            .extension()
            .and_then(|e| e.to_str())
            .is_some_and(|e| e.eq_ignore_ascii_case("swf"));
        if path.is_file() && is_swf {
            files.push(path);
        }
    }
    files.sort_by(|a, b| a.file_name().cmp(&b.file_name()));
    if files.is_empty() {
        return Err(ScenarioError::Workload(format!(
            "sweep.swf_dir: no .swf files in {}",
            dir.display()
        )));
    }
    Ok(files)
}

/// A base scenario plus sweep axes that expand into a scenario grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSet {
    /// The spec every cell starts from.
    pub base: Scenario,
    /// Sweep dimensions, expanded in order (first axis varies slowest).
    pub axes: Vec<SweepAxis>,
    /// Seed replications per expanded cell (`replications = N` in the text
    /// format, default 1). The campaign layer
    /// ([`crate::campaign`]) fans every cell out across `N` derived seeds
    /// and aggregates the per-cell metrics into mean ± 95 % CI; plain
    /// [`ScenarioSet::expand`]/[`ScenarioSet::run`] ignore the field.
    /// Values above 1 require a synthetic workload — an SWF replay is
    /// deterministic, so replicating it would just repeat one number.
    pub replications: u32,
    /// Per-unit wall-time budget in seconds (`cell_budget_s = X` in the
    /// text format, default none). The campaign layer runs every
    /// `(cell, replication)` unit under [`bsld_par::run_budgeted`]; a unit
    /// that exceeds the budget is aborted cooperatively and recorded as a
    /// `failed` manifest row with a reason, so one infeasible cell cannot
    /// stall a whole sweep. Plain (non-campaign) execution ignores it.
    pub cell_budget_s: Option<f64>,
}

impl ScenarioSet {
    /// A set containing exactly one scenario.
    pub fn single(base: Scenario) -> ScenarioSet {
        ScenarioSet {
            base,
            axes: Vec::new(),
            replications: 1,
            cell_budget_s: None,
        }
    }

    /// How many cells [`ScenarioSet::expand`] yields, counted without
    /// cloning a scenario: the product of the axes' value counts, where a
    /// `swf_dir` axis counts the trace files it lists. `None` when the
    /// product overflows `usize`.
    pub fn cell_count(&self) -> Result<Option<usize>, ScenarioError> {
        let mut cells = Some(1usize);
        for axis in &self.axes {
            let values = if axis.key == SWF_DIR {
                let mut files = 0;
                for dir in &axis.values {
                    files += list_swf_files(Path::new(dir))?.len();
                }
                files
            } else {
                axis.values.len()
            };
            cells = cells.and_then(|n| n.checked_mul(values));
        }
        Ok(cells)
    }

    /// Expands the axes' cartesian product into concrete scenarios (the
    /// base alone when there are no axes). Repeated axes are an error —
    /// a later axis would overwrite the earlier one's value while both
    /// name suffixes stick, mislabelling every cell.
    pub fn expand(&self) -> Result<Vec<Scenario>, ScenarioError> {
        let bad = |msg: String| ScenarioError::Parse { line: 0, msg };
        for (i, axis) in self.axes.iter().enumerate() {
            if self.axes[..i].iter().any(|a| a.key == axis.key) {
                return Err(bad(format!("duplicate sweep axis sweep.{}", axis.key)));
            }
        }
        let mut out = vec![self.base.clone()];
        for axis in &self.axes {
            if axis.values.is_empty() {
                return Err(bad(format!("sweep.{} has no values", axis.key)));
            }
            let mut next = Vec::new();
            if axis.key == SWF_DIR {
                if matches!(self.base.workload, WorkloadSpec::Synthetic { .. }) {
                    return Err(ScenarioError::Workload(
                        "sweep.swf_dir requires `workload = swf`".into(),
                    ));
                }
                let mut files = Vec::new();
                for dir in &axis.values {
                    files.extend(list_swf_files(Path::new(dir))?);
                }
                for sc in &out {
                    for file in &files {
                        let mut cell = sc.clone();
                        if let WorkloadSpec::Swf { path, .. } = &mut cell.workload {
                            path.clone_from(file);
                        }
                        let stem = file.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
                        cell.name.push('-');
                        cell.name.push_str(&line_safe(stem));
                        next.push(cell);
                    }
                }
            } else {
                let key = sweep_key(&axis.key).map_err(bad)?;
                if !key.scope.admits(&self.base.workload) {
                    let what = format!("sweep.{}", key.name);
                    return Err(ScenarioError::Workload(wrong_kind(&what, &self.base)));
                }
                for sc in &out {
                    for value in &axis.values {
                        let mut cell = sc.clone();
                        key.apply(&mut cell, value)
                            .map_err(|e| bad(format!("sweep.{}: {e}", key.name)))?;
                        next.push(cell);
                    }
                }
            }
            out = next;
        }
        Ok(out)
    }

    /// Expands and runs every cell in parallel, returning `(scenario,
    /// result)` pairs in expansion order. The first failing cell aborts.
    pub fn run(&self, threads: usize) -> Result<Vec<(Scenario, ScenarioResult)>, ScenarioError> {
        let cells = self.expand()?;
        let results = run_many(&cells, threads);
        cells
            .into_iter()
            .zip(results)
            .map(|(sc, res)| res.map(|r| (sc, r)))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Text format
// ---------------------------------------------------------------------------

fn fmt_opt<T: fmt::Display>(v: &Option<T>) -> String {
    match v {
        Some(x) => x.to_string(),
        None => "none".to_string(),
    }
}

fn show<T: ToString>(v: &T) -> String {
    v.to_string()
}

/// Normalises a string field for the line-oriented format: newlines become
/// spaces and surrounding whitespace is dropped, exactly what the parser's
/// trim would do. Rendered files therefore always re-parse; specs whose
/// strings are already line-safe round-trip unchanged.
fn line_safe(s: &str) -> String {
    s.replace(['\n', '\r'], " ").trim().to_string()
}

fn path_text(p: &Path) -> String {
    line_safe(&p.display().to_string())
}

/// `None` for the `none` keyword, else `parse(s)`.
fn or_none<V>(s: &str, parse: impl FnOnce(&str) -> Result<V, String>) -> Result<Option<V>, String> {
    (s != "none").then(|| parse(s)).transpose()
}

/// A parser of numbers, naming `what` in its error.
fn number<V: std::str::FromStr>(what: &'static str) -> impl Fn(&str) -> Result<V, String> {
    move |s| s.parse().map_err(|_| format!("bad {what} {s:?}"))
}

/// A parser of a number or `none`, naming `what` in its error.
fn opt<V: std::str::FromStr>(what: &'static str) -> impl Fn(&str) -> Result<Option<V>, String> {
    move |s| {
        or_none(s, |s| {
            s.parse().map_err(|_| format!("bad {what} value {s:?}"))
        })
    }
}

const KINDS: [(&str, bool); 2] = [("synthetic", false), ("swf", true)];

const MODES: [(&str, SchedMode); 2] = [
    ("easy", SchedMode::Easy),
    ("conservative", SchedMode::Conservative),
];

const SELECTIONS: [(&str, SelectionPolicy); 3] = [
    ("firstfit", SelectionPolicy::FirstFit),
    ("lastfit", SelectionPolicy::LastFit),
    ("contiguous", SelectionPolicy::ContiguousFirstFit),
];

fn parse_beta(s: &str) -> Result<Option<BetaSpec>, String> {
    let parse_f = |t: &str| {
        t.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("bad β component {t:?}"))
    };
    or_none(s, |s| match s.split_once('~') {
        Some((m, sp)) => Ok(BetaSpec::PerJob {
            mean: parse_f(m)?,
            spread: parse_f(sp)?,
        }),
        None => Ok(BetaSpec::Fixed(parse_f(s)?)),
    })
}

fn render_beta(b: &Option<BetaSpec>) -> Option<String> {
    b.map(|b| match b {
        BetaSpec::Fixed(v) => format!("{v}"),
        BetaSpec::PerJob { mean, spread } => format!("{mean}~{spread}"),
    })
}

fn parse_gears(s: &str) -> Result<GearSpec, String> {
    if s == "paper" {
        return Ok(GearSpec::Paper);
    }
    let n = s
        .strip_prefix("interp:")
        .ok_or_else(|| format!("bad gears {s:?} (paper | interp:<n>)"))?;
    let n: u8 = n.parse().map_err(|_| format!("bad gear count {n:?}"))?;
    // Below-2 counts behave as 2 (mirrors `build`), so the clamped render
    // form always re-parses to the same spec.
    Ok(GearSpec::Interpolated(n.max(2)))
}

fn render_gears(g: &GearSpec) -> String {
    match g {
        GearSpec::Paper => "paper".into(),
        GearSpec::Interpolated(n) => format!("interp:{}", (*n).max(2)),
    }
}

fn render_sleep(s: &SleepSpec) -> String {
    match s {
        SleepSpec::None => "none".into(),
        SleepSpec::Paper => "paper".into(),
        // A stateless custom ladder is behaviourally `none`; render it as
        // such (an empty `ladder:` form would not re-parse).
        SleepSpec::Custom(cfg) if cfg.states().is_empty() => "none".into(),
        SleepSpec::Custom(cfg) => {
            let states: Vec<String> = cfg
                .states()
                .iter()
                .map(|st| {
                    format!(
                        "{}/{}/{}/{}",
                        st.idle_timeout_s, st.wake_latency_s, st.wake_energy, st.power_fraction
                    )
                })
                .collect();
            format!("ladder:{}", states.join(","))
        }
    }
}

fn parse_sleep(s: &str) -> Result<SleepSpec, String> {
    match s {
        "none" => Ok(SleepSpec::None),
        "paper" => Ok(SleepSpec::Paper),
        other => {
            let body = other
                .strip_prefix("ladder:")
                .ok_or_else(|| format!("bad sleep spec {other:?} (none | paper | ladder:...)"))?;
            let mut states = Vec::new();
            for part in body.split(',') {
                let fields: Vec<&str> = part.split('/').collect();
                if fields.len() != 4 {
                    return Err(format!(
                        "bad sleep state {part:?}: expected timeout/latency/energy/fraction"
                    ));
                }
                states.push(SleepState {
                    idle_timeout_s: fields[0]
                        .parse()
                        .map_err(|_| format!("bad sleep timeout {:?}", fields[0]))?,
                    wake_latency_s: fields[1]
                        .parse()
                        .map_err(|_| format!("bad wake latency {:?}", fields[1]))?,
                    wake_energy: fields[2]
                        .parse()
                        .map_err(|_| format!("bad wake energy {:?}", fields[2]))?,
                    power_fraction: fields[3]
                        .parse()
                        .map_err(|_| format!("bad power fraction {:?}", fields[3]))?,
                });
            }
            Ok(SleepSpec::Custom(
                SleepConfig::new(states).map_err(|e| format!("invalid sleep ladder: {e}"))?,
            ))
        }
    }
}

fn render_policy(p: &PolicySpec) -> String {
    match p {
        PolicySpec::Baseline => "baseline".into(),
        PolicySpec::FixedGear(g) => format!("gear:{g}"),
        PolicySpec::BsldThreshold { th, wq } => format!("bsld:{th}/{}", wq.label()),
    }
}

fn parse_th(s: &str) -> Result<f64, String> {
    s.parse::<f64>()
        .ok()
        .filter(|v| v.is_finite())
        .ok_or_else(|| format!("bad BSLD threshold {s:?}"))
}

fn parse_policy(s: &str) -> Result<PolicySpec, String> {
    if s == "baseline" {
        return Ok(PolicySpec::Baseline);
    }
    if let Some(g) = s.strip_prefix("gear:") {
        return g
            .parse()
            .map(PolicySpec::FixedGear)
            .map_err(|_| format!("bad gear index {g:?}"));
    }
    if let Some(body) = s.strip_prefix("bsld:") {
        let (th, wq) = body
            .split_once('/')
            .ok_or_else(|| format!("bad policy {s:?}: expected bsld:<th>/<wq>"))?;
        return Ok(PolicySpec::BsldThreshold {
            th: parse_th(th)?,
            wq: WqThreshold::parse(wq)?,
        });
    }
    Err(format!(
        "bad policy {s:?} (baseline | gear:<idx> | bsld:<th>/<wq>)"
    ))
}

fn parse_bool(s: &str) -> Result<bool, String> {
    match s {
        "true" => Ok(true),
        "false" => Ok(false),
        other => Err(format!("bad boolean {other:?}")),
    }
}

/// Which scenarios a key applies to, and where it may be written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    /// `workload`: read before every other key, since the kind decides
    /// which keys apply.
    Kind,
    Any,
    Synthetic,
    Swf,
    /// Sweeps and overrides only: part of a key that files write whole.
    View,
}

impl Scope {
    fn admits(self, w: &WorkloadSpec) -> bool {
        !matches!(
            (self, w),
            (Scope::Synthetic, WorkloadSpec::Swf { .. })
                | (Scope::Swf, WorkloadSpec::Synthetic { .. })
        )
    }
}

/// What an accessor returns: the value's canonical text when it reads
/// (`None` omits the line), nothing when it writes.
type Access = Result<Option<String>, String>;

/// One key of the text format, defined once for `.scn` files, sweep axes
/// and serve overrides.
struct Key<T> {
    name: &'static str,
    scope: Scope,
    /// A file of the key's workload kind must set it.
    required: bool,
    /// `access(target, None)` reads the value; `access(target, Some(text))`
    /// parses and validates `text`, then sets it.
    access: fn(&mut T, Option<&str>) -> Access,
    /// The cell-name suffix of a swept or overridden value, from its
    /// canonical text. A key without one cannot be swept.
    suffix: Option<fn(&str) -> String>,
}

impl<T> Key<T> {
    const fn new(
        name: &'static str,
        scope: Scope,
        access: fn(&mut T, Option<&str>) -> Access,
    ) -> Self {
        Key {
            name,
            scope,
            required: false,
            access,
            suffix: None,
        }
    }

    const fn required(mut self) -> Self {
        self.required = true;
        self
    }

    const fn sweep(mut self, suffix: fn(&str) -> String) -> Self {
        self.suffix = Some(suffix);
        self
    }

    fn set(&self, target: &mut T, value: &str) -> Result<(), String> {
        (self.access)(target, Some(value)).map(drop)
    }

    /// The target's value as text (`none` when unset).
    fn text(&self, target: &mut T) -> String {
        let text = (self.access)(target, None).ok().flatten();
        text.unwrap_or_else(|| "none".into())
    }
}

impl Key<Scenario> {
    /// The canonical text of `value`, validated as this key's value.
    fn canonical(&self, value: &str) -> Result<String, String> {
        let mut sc = blank(self.scope == Scope::Swf);
        self.set(&mut sc, value)?;
        Ok(self.text(&mut sc))
    }

    /// Sets a swept or overridden value and appends its cell-name suffix.
    fn apply(&self, sc: &mut Scenario, value: &str) -> Result<(), String> {
        self.set(sc, value)?;
        if let Some(suffix) = self.suffix {
            let suffix = suffix(&self.text(sc));
            sc.name.push_str(&suffix);
        }
        Ok(())
    }
}

/// Reads `slot` as text (`value` is `None`), or parses `value` into it.
fn field<V, R: Into<Option<String>>>(
    slot: &mut V,
    value: Option<&str>,
    parse: impl FnOnce(&str) -> Result<V, String>,
    text: impl FnOnce(&V) -> R,
) -> Access {
    match value {
        Some(v) => {
            *slot = parse(v)?;
            Ok(None)
        }
        None => Ok(text(slot).into()),
    }
}

/// A `field` whose value is one of `names`; errors list every name.
fn named<V: Copy + PartialEq>(
    slot: &mut V,
    value: Option<&str>,
    names: &[(&str, V)],
    what: &str,
) -> Access {
    let parse = |s: &str| match names.iter().find(|(name, _)| *name == s) {
        Some(&(_, v)) => Ok(v),
        None => {
            let all: Vec<&str> = names.iter().map(|(name, _)| *name).collect();
            Err(format!("bad {what} {s:?} ({})", all.join(" | ")))
        }
    };
    field(slot, value, parse, |v| {
        names
            .iter()
            .find(|(_, x)| x == v)
            .map(|(name, _)| name.to_string())
    })
}

/// A scenario with a blank workload of one kind: a synthetic one with zero
/// jobs, or an empty SWF path that is cleaned by default.
fn blank(swf: bool) -> Scenario {
    let mut sc = Scenario::synthetic("scenario", ProfileName::Ctc, 0, 0);
    if swf {
        sc.workload = WorkloadSpec::Swf {
            path: PathBuf::new(),
            clean: true,
        };
    }
    sc
}

fn is_swf(sc: &Scenario) -> bool {
    matches!(sc.workload, WorkloadSpec::Swf { .. })
}

/// The error for a sweep or override of a key of the other workload kind.
fn wrong_kind(what: &str, sc: &Scenario) -> String {
    let kind = if is_swf(sc) { "an SWF" } else { "a synthetic" };
    format!("{what} cannot apply to {kind} workload")
}

/// The sweepable key `name`.
fn sweep_key(name: &str) -> Result<&'static Key<Scenario>, String> {
    let sweepable = || KEYS.iter().filter(|k| k.suffix.is_some());
    sweepable().find(|k| k.name == name).ok_or_else(|| {
        let names: Vec<&str> = sweepable().map(|k| k.name).chain([SWF_DIR]).collect();
        format!("unknown sweep axis {name:?} ({})", names.join(", "))
    })
}

/// A scenario key (the parameter type pins the accessor's argument types).
const fn key(
    name: &'static str,
    scope: Scope,
    access: fn(&mut Scenario, Option<&str>) -> Access,
) -> Key<Scenario> {
    Key::new(name, scope, access)
}

/// Every scenario key, in the order [`Scenario::render`] writes them.
const KEYS: &[Key<Scenario>] = &[
    key("scenario", Scope::Any, |sc, v| {
        field(&mut sc.name, v, |v| Ok(v.into()), |n| line_safe(n))
    }),
    key("workload", Scope::Kind, |sc, v| {
        let mut swf = is_swf(sc);
        let text = named(&mut swf, v, &KINDS, "workload kind")?;
        if swf != is_swf(sc) {
            sc.workload = blank(swf).workload;
        }
        Ok(text)
    }),
    key("profile", Scope::Synthetic, |sc, v| {
        let WorkloadSpec::Synthetic { profile, .. } = &mut sc.workload else {
            return Ok(None);
        };
        field(profile, v, ProfileName::parse, |p| p.key().to_string())
    })
    .required()
    .sweep(|v| format!("-{v}")),
    key("jobs", Scope::Synthetic, |sc, v| {
        let WorkloadSpec::Synthetic { jobs, .. } = &mut sc.workload else {
            return Ok(None);
        };
        field(jobs, v, number("jobs"), show)
    })
    .required(),
    key("seed", Scope::Synthetic, |sc, v| {
        let WorkloadSpec::Synthetic { seed, .. } = &mut sc.workload else {
            return Ok(None);
        };
        field(seed, v, number("seed"), show)
    })
    .required()
    .sweep(|v| format!("-s{v}")),
    key("scale_cpus", Scope::Synthetic, |sc, v| {
        let WorkloadSpec::Synthetic { scale_cpus, .. } = &mut sc.workload else {
            return Ok(None);
        };
        field(scale_cpus, v, opt("scale_cpus"), |c| c.as_ref().map(show))
    }),
    key("beta", Scope::Synthetic, |sc, v| {
        let WorkloadSpec::Synthetic { beta, .. } = &mut sc.workload else {
            return Ok(None);
        };
        field(beta, v, parse_beta, render_beta)
    })
    .sweep(|v| format!("-beta{v}")),
    key("swf_path", Scope::Swf, |sc, v| {
        let WorkloadSpec::Swf { path, .. } = &mut sc.workload else {
            return Ok(None);
        };
        field(path, v, |v| Ok(v.into()), |p| path_text(p))
    })
    .required(),
    key("swf_clean", Scope::Swf, |sc, v| {
        let WorkloadSpec::Swf { clean, .. } = &mut sc.workload else {
            return Ok(None);
        };
        field(clean, v, parse_bool, show)
    }),
    key("enlarge_pct", Scope::Any, |sc, v| {
        field(&mut sc.cluster.enlarge_pct, v, number("enlarge_pct"), show)
    })
    .sweep(|v| format!("-x{v}")),
    key("gears", Scope::Any, |sc, v| {
        field(&mut sc.cluster.gears, v, parse_gears, render_gears)
    })
    .sweep(|v| format!("-gears{v}")),
    key("policy", Scope::Any, |sc, v| {
        field(&mut sc.policy, v, parse_policy, render_policy)
    })
    .sweep(|v| format!("-{v}")),
    key("cap", Scope::Any, |sc, v| {
        let parse = |v: &str| match opt::<f64>("cap")(v)? {
            Some(f) if !f.is_finite() || f <= 0.0 => {
                Err(format!("cap fraction must be positive, got {f}"))
            }
            cap => Ok(cap),
        };
        field(&mut sc.power.cap_fraction, v, parse, fmt_opt)
    })
    .sweep(|v| format!("-cap{v}")),
    key("soft_escape", Scope::Any, |sc, v| {
        field(&mut sc.power.soft_wq_escape, v, opt("soft_escape"), fmt_opt)
    }),
    key("sleep", Scope::Any, |sc, v| {
        field(&mut sc.power.sleep, v, parse_sleep, render_sleep)
    })
    .sweep(|v| format!("-sleep{v}")),
    key("boost", Scope::Any, |sc, v| {
        field(&mut sc.power.boost, v, opt("boost"), fmt_opt)
    })
    .sweep(|v| format!("-boost{v}")),
    // Written only when set: files that never mention a model keep their
    // exact bytes (and so their campaign cell ids).
    key("model", Scope::Any, |sc, v| {
        let parse = |v: &str| or_none(v, PowerModelSpec::parse);
        field(&mut sc.power.model, v, parse, |m| {
            m.as_ref().map(PowerModelSpec::render)
        })
    })
    .sweep(|v| match v.strip_prefix("empirical:") {
        // An empirical curve is named by its CSV file's stem.
        Some(path) => {
            let stem = Path::new(path).file_stem().and_then(|s| s.to_str());
            format!("-memp-{}", line_safe(stem.unwrap_or("csv")))
        }
        None => format!("-m{v}"),
    }),
    key("observe", Scope::Any, |sc, v| {
        field(&mut sc.power.observe, v, parse_bool, show)
    }),
    key("mode", Scope::Any, |sc, v| {
        named(&mut sc.engine.mode, v, &MODES, "mode")
    })
    .sweep(|v| format!("-{v}")),
    key("backfill", Scope::Any, |sc, v| {
        field(&mut sc.engine.backfill, v, parse_bool, show)
    })
    .sweep(|v| format!("-bf{v}")),
    // A retired key: validated as a bool, then ignored. Its constant line
    // stays because campaign cell ids hash the rendered text.
    key("incremental", Scope::Any, |_, v| {
        field(&mut true, v, parse_bool, show)
    }),
    key("selection", Scope::Any, |sc, v| {
        named(&mut sc.engine.selection, v, &SELECTIONS, "selection")
    })
    .sweep(|v| format!("-{v}")),
    key("trace", Scope::Any, |sc, v| {
        field(&mut sc.engine.trace, v, parse_bool, show)
    }),
    // A directory literally named "none" is written as "./none", apart
    // from the absent-value keyword.
    key("out_dir", Scope::Any, |sc, v| {
        let parse = |v: &str| {
            or_none(v, |v| {
                Ok(PathBuf::from(if v == "./none" { "none" } else { v }))
            })
        };
        let text = |dir: &Option<PathBuf>| match dir.as_deref().map(path_text) {
            Some(dir) if dir == "none" => "./none".to_string(),
            dir => fmt_opt(&dir),
        };
        field(&mut sc.output.out_dir, v, parse, text)
    }),
    // Sweeping `bsld_th` or `wq` forces the BSLD-threshold policy and keeps
    // the other threshold: the base policy's, else no WQ limit or 2.0.
    key("bsld_th", Scope::View, |sc, v| {
        let (mut th, wq) = thresholds(&sc.policy);
        let text = field(&mut th, v, parse_th, show)?;
        if v.is_some() {
            sc.policy = PolicySpec::BsldThreshold { th, wq };
        }
        Ok(text)
    })
    .sweep(|v| format!("-th{v}")),
    key("wq", Scope::View, |sc, v| {
        let (th, mut wq) = thresholds(&sc.policy);
        let text = field(&mut wq, v, WqThreshold::parse, WqThreshold::label)?;
        if v.is_some() {
            sc.policy = PolicySpec::BsldThreshold { th, wq };
        }
        Ok(text)
    })
    .sweep(|v| format!("-wq{v}")),
];

fn thresholds(p: &PolicySpec) -> (f64, WqThreshold) {
    match *p {
        PolicySpec::BsldThreshold { th, wq } => (th, wq),
        _ => (2.0, WqThreshold::NoLimit),
    }
}

/// The keys of a whole [`ScenarioSet`], written after its base scenario.
const SET_KEYS: &[Key<ScenarioSet>] = &[
    Key::new("replications", Scope::Any, |set, v| {
        let parse = |v: &str| match number("replications")(v)? {
            0 => Err("replications must be at least 1".to_string()),
            n => Ok(n),
        };
        field(&mut set.replications, v, parse, show)
    }),
    // Zero is allowed (a degenerate "fail every unit instantly" budget the
    // tests rely on); negatives and non-finite values are nonsense.
    Key::new("cell_budget_s", Scope::Any, |set, v| {
        let parse = |v: &str| match opt::<f64>("cell_budget_s")(v)? {
            Some(b) if !b.is_finite() || b < 0.0 => Err(format!(
                "cell_budget_s must be a finite non-negative number, got {b}"
            )),
            budget => Ok(budget),
        };
        field(&mut set.cell_budget_s, v, parse, fmt_opt)
    }),
];

impl Scenario {
    /// Renders the canonical text form (every key, canonical order); the
    /// exact inverse of [`Scenario::parse`] for any spec whose string
    /// fields (name, paths) are *line-safe* — trimmed and newline-free.
    /// Other strings are normalised on the way out (newlines → spaces,
    /// surrounding whitespace dropped, matching the parser's trim), so the
    /// rendered file always re-parses.
    pub fn render(&self) -> String {
        let mut out = String::from("# bsld scenario v1\n");
        render_keys(&mut out, KEYS, &mut self.clone());
        out
    }

    /// Parses the text form of a single scenario. Files with `sweep.*`
    /// lines or `replications > 1` must go through [`ScenarioSet::parse`].
    pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
        let set = ScenarioSet::parse(text)?;
        if !set.axes.is_empty() {
            return Err(ScenarioError::Parse {
                line: 0,
                msg: "file declares sweep axes; use ScenarioSet::parse".into(),
            });
        }
        if set.replications != 1 {
            return Err(ScenarioError::Parse {
                line: 0,
                msg: "file declares replications; use ScenarioSet::parse".into(),
            });
        }
        if set.cell_budget_s.is_some() {
            return Err(ScenarioError::Parse {
                line: 0,
                msg: "file declares cell_budget_s (a campaign key); use ScenarioSet::parse".into(),
            });
        }
        Ok(set.base)
    }
}

/// Writes one `key = value` line per key that `target` gives a value.
/// Accessors read through the slot they write, so `target` is a copy.
fn render_keys<T>(out: &mut String, keys: &[Key<T>], target: &mut T) {
    use std::fmt::Write as _;
    for key in keys.iter().filter(|k| k.scope != Scope::View) {
        if let Ok(Some(value)) = (key.access)(target, None) {
            let _ = writeln!(out, "{} = {value}", key.name);
        }
    }
}

impl ScenarioSet {
    /// Renders the set: the base scenario, the set keys, then one
    /// `sweep.<key>` line per axis.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = self.base.render();
        render_keys(&mut out, SET_KEYS, &mut self.clone());
        for axis in &self.axes {
            let _ = writeln!(out, "sweep.{} = {}", axis.key, axis.values.join(" "));
        }
        out
    }

    /// Parses a scenario file, sweep axes included. Unknown keys are
    /// errors; missing keys take the documented defaults (workload keys
    /// are required). Each key's syntax lives in the key table; only the
    /// constraints between keys are checked here, once every line is read.
    pub fn parse(text: &str) -> Result<ScenarioSet, ScenarioError> {
        let err = |line: usize, msg: String| ScenarioError::Parse { line, msg };
        let lines: Vec<(usize, &str)> = text
            .lines()
            .enumerate()
            .map(|(i, raw)| (i + 1, raw.trim()))
            .filter(|(_, line)| !line.is_empty() && !line.starts_with('#'))
            .collect();
        fn split(line: &str) -> Option<(&str, &str)> {
            line.split_once('=').map(|(k, v)| (k.trim(), v.trim()))
        }
        let mut set = ScenarioSet::single(blank(false));
        // The workload kind decides which keys apply, so it is read first.
        // As for every key the last line wins; its error waits until every
        // other line is checked.
        let kind = lines.iter().rev().find_map(|&(n, line)| {
            let (key, value) = split(line)?;
            let key = KEYS
                .iter()
                .find(|k| k.name == key && k.scope == Scope::Kind)?;
            Some((n, key.set(&mut set.base, value)))
        });
        // The last line of every key read.
        let mut seen: Vec<(&str, usize)> = Vec::new();
        for &(n, line) in &lines {
            let e = |msg: String| err(n, msg);
            let (key, value) =
                split(line).ok_or_else(|| e(format!("expected `key = value`, got {line:?}")))?;
            if let Some(axis) = key.strip_prefix("sweep.") {
                let axis = SweepAxis::parse(axis, value).map_err(e)?;
                if set.axes.iter().any(|a| a.key == axis.key) {
                    return Err(e(format!("duplicate sweep axis sweep.{}", axis.key)));
                }
                set.axes.push(axis);
            } else if let Some(k) = SET_KEYS.iter().find(|k| k.name == key) {
                k.set(&mut set, value).map_err(e)?;
                seen.push((k.name, n));
            } else {
                let k = KEYS
                    .iter()
                    .find(|k| k.name == key && k.scope != Scope::View)
                    .ok_or_else(|| e(format!("unknown key {key:?}")))?;
                if k.scope == Scope::Kind {
                    continue;
                }
                // A key of the other workload kind is still validated; it
                // is reported below.
                if k.scope.admits(&set.base.workload) {
                    k.set(&mut set.base, value)
                } else {
                    k.set(&mut blank(k.scope == Scope::Swf), value)
                }
                .map_err(e)?;
                seen.push((k.name, n));
            }
        }
        let line_of = |name: &str| seen.iter().rev().find(|(k, _)| *k == name).map(|s| s.1);

        let (wl_line, kind) =
            kind.ok_or_else(|| err(0, "missing `workload = synthetic|swf`".into()))?;
        kind.map_err(|msg| err(wl_line, msg))?;
        let base = &set.base;
        let kind = if is_swf(base) { "swf" } else { "synthetic" };
        // Keys that belong to the other workload kind are errors, not
        // silently discarded advice: `jobs = 100` next to `workload = swf`
        // would otherwise read as a truncated replay that never happens.
        if let Some(k) = KEYS
            .iter()
            .find(|k| line_of(k.name).is_some() && !k.scope.admits(&base.workload))
        {
            let msg = format!("`{}` does not apply to a {kind} workload", k.name);
            return Err(err(wl_line, msg));
        }
        if let Some(k) = KEYS
            .iter()
            .find(|k| k.required && k.scope.admits(&base.workload) && line_of(k.name).is_none())
        {
            return Err(err(wl_line, format!("{kind} workload needs `{}`", k.name)));
        }
        // A trace-directory sweep only makes sense over an SWF base: the
        // synthetic keys (profile/jobs/seed) have nothing to say about the
        // files, and silently switching workload kinds per cell would hide
        // a spec error.
        if set.axes.iter().any(|a| a.key == SWF_DIR) && !is_swf(base) {
            return Err(err(
                wl_line,
                "sweep.swf_dir requires `workload = swf` (the synthetic keys do not apply)".into(),
            ));
        }
        // Replicating a deterministic SWF replay would repeat one number N
        // times and report a zero-width interval around it — reject rather
        // than hand out fake statistics.
        if set.replications > 1 && is_swf(base) {
            return Err(err(
                line_of("replications").unwrap_or(0),
                "replications > 1 requires a synthetic workload \
                 (an SWF replay has no seed to vary)"
                    .into(),
            ));
        }
        Ok(set)
    }

    /// Sets one key as a serve override would: a set key (such as
    /// `cell_budget_s`), or a scenario key on the base, which then takes
    /// the key's cell-name suffix as a swept value does. The value is
    /// validated as in a `.scn` file.
    pub fn set_override(&mut self, key: &str, value: &str) -> Result<(), String> {
        let what = format!("override {key}");
        if let Some(k) = SET_KEYS.iter().find(|k| k.name == key) {
            return k.set(self, value).map_err(|e| format!("{what}: {e}"));
        }
        let k = KEYS
            .iter()
            .find(|k| k.name == key && k.scope != Scope::Kind)
            .ok_or_else(|| format!("unknown {what}"))?;
        if !k.scope.admits(&self.base.workload) {
            return Err(wrong_kind(&what, &self.base));
        }
        k.apply(&mut self.base, value)
            .map_err(|e| format!("{what}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Scenario {
        Scenario::synthetic("t", ProfileName::SdscBlue, 100, 42).map_workload(|w| {
            if let WorkloadSpec::Synthetic { scale_cpus, .. } = w {
                *scale_cpus = Some(64);
            }
        })
    }

    #[test]
    fn interpolated_endpoints_match_paper_range() {
        let g = GearSpec::Interpolated(6).build();
        let first = g.get(g.lowest());
        let last = g.get(g.top());
        assert!((first.freq_ghz - 0.8).abs() < 1e-12);
        assert!((last.freq_ghz - 2.3).abs() < 1e-12);
        assert!((first.voltage - 1.0).abs() < 1e-12);
        assert!((last.voltage - 1.5).abs() < 1e-12);
    }

    #[test]
    fn profile_names_round_trip() {
        for p in ProfileName::ALL {
            assert_eq!(ProfileName::parse(p.key()).unwrap(), p);
            assert_eq!(
                ProfileName::parse(p.display_name()).unwrap(),
                p,
                "{p:?} display alias"
            );
            assert_eq!(p.profile().name, p.display_name());
        }
        let e = ProfileName::parse("nope").unwrap_err();
        assert!(e.contains("ctc") && e.contains("atlas"), "{e}");
    }

    #[test]
    fn render_parse_round_trip_defaults() {
        let sc = base();
        let text = sc.render();
        assert_eq!(Scenario::parse(&text).unwrap(), sc);
    }

    #[test]
    fn render_parse_round_trip_full() {
        let mut sc = base();
        sc.policy = PolicySpec::BsldThreshold {
            th: 1.5,
            wq: WqThreshold::Limit(16),
        };
        sc.cluster.enlarge_pct = 50;
        sc.cluster.gears = GearSpec::Interpolated(12);
        sc.power = PowerSpec {
            cap_fraction: Some(0.6),
            soft_wq_escape: Some(4),
            sleep: SleepSpec::Paper,
            boost: Some(8),
            model: Some(PowerModelSpec::Cubic),
            observe: true,
        };
        sc.engine = EngineSpec {
            mode: SchedMode::Conservative,
            backfill: false,
            selection: SelectionPolicy::ContiguousFirstFit,
            trace: true,
        };
        sc.output.out_dir = Some(PathBuf::from("results/run1"));
        if let WorkloadSpec::Synthetic { beta, .. } = &mut sc.workload {
            *beta = Some(BetaSpec::PerJob {
                mean: 0.5,
                spread: 0.25,
            });
        }
        assert_eq!(Scenario::parse(&sc.render()).unwrap(), sc);
    }

    #[test]
    fn retired_incremental_key_is_validated_then_ignored() {
        let text = base().render();
        assert!(
            text.contains("\nincremental = true\n"),
            "render keeps the constant line that cell ids hash"
        );
        let off = text.replace("incremental = true", "incremental = false");
        assert_eq!(Scenario::parse(&off).unwrap(), base());
        let bad = text.replace("incremental = true", "incremental = maybe");
        let err = Scenario::parse(&bad).unwrap_err().to_string();
        assert!(err.contains("bad boolean"), "{err}");
    }

    #[test]
    fn swf_and_custom_sleep_round_trip() {
        let mut sc = base();
        sc.workload = WorkloadSpec::Swf {
            path: PathBuf::from("traces/ctc cleaned.swf"),
            clean: false,
        };
        sc.power.sleep = SleepSpec::Custom(
            SleepConfig::new(vec![SleepState {
                idle_timeout_s: 30,
                wake_latency_s: 2,
                wake_energy: 1.25,
                power_fraction: 0.3,
            }])
            .unwrap(),
        );
        assert_eq!(Scenario::parse(&sc.render()).unwrap(), sc);
    }

    #[test]
    fn sweep_set_round_trips_and_expands() {
        let set = ScenarioSet {
            base: base(),
            axes: vec![
                SweepAxis::new("bsld_th", [1.5, 3.0]),
                SweepAxis::new("wq", ["0", "NO"]),
                SweepAxis::new("enlarge_pct", [0, 50]),
            ],
            replications: 1,
            cell_budget_s: None,
        };
        assert_eq!(ScenarioSet::parse(&set.render()).unwrap(), set);
        let cells = set.expand().unwrap();
        assert_eq!(cells.len(), 8);
        assert_eq!(set.cell_count().unwrap(), Some(8));
        // Later axes vary fastest; names encode the cell.
        assert_eq!(cells[0].name, "t-th1.5-wq0-x0");
        assert_eq!(cells[7].name, "t-th3-wqNO-x50");
        for c in &cells {
            match c.policy {
                PolicySpec::BsldThreshold { th, .. } => assert!(th == 1.5 || th == 3.0),
                _ => panic!("axis must force the policy"),
            }
        }
    }

    #[test]
    fn cell_count_is_none_when_the_product_overflows() {
        let axis = |key| SweepAxis::new(key, 0..1 << 13);
        let mut set = ScenarioSet::single(base());
        assert_eq!(set.cell_count().unwrap(), Some(1));
        set.axes = ["seed", "bsld_th", "wq", "enlarge_pct"].map(axis).into();
        assert_eq!(set.cell_count().unwrap(), Some(1 << 52));
        set.axes.push(axis("beta"));
        assert_eq!(set.cell_count().unwrap(), None, "2^65 cells");
    }

    #[test]
    fn parse_rejects_unknown_keys_and_bad_values() {
        let bad = "workload = synthetic\nprofile = ctc\njobs = 10\nseed = 1\nnot_a_key = 1\n";
        let err = ScenarioSet::parse(bad).unwrap_err();
        assert!(matches!(err, ScenarioError::Parse { line: 5, .. }), "{err}");
        let bad2 = "workload = synthetic\nprofile = marsrover\njobs = 10\nseed = 1\n";
        assert!(ScenarioSet::parse(bad2)
            .unwrap_err()
            .to_string()
            .contains("valid:"));
        assert!(
            ScenarioSet::parse("jobs = 10\n").is_err(),
            "workload required"
        );
        let sweeping = format!("{}sweep.cap = 0.5\n", base().render());
        assert!(
            Scenario::parse(&sweeping).is_err(),
            "Scenario::parse rejects sweeps"
        );
        assert!(ScenarioSet::parse(&sweeping).is_ok());
    }

    #[test]
    fn sweep_cap_rejects_non_positive_values() {
        for bad in ["0", "-0.5", "nan"] {
            let text = format!("{}sweep.cap = {bad}\n", base().render());
            let err = ScenarioSet::parse(&text).unwrap_err();
            assert!(err.to_string().contains("cap"), "{bad}: {err}");
        }
        let ok = format!("{}sweep.cap = 0.5 1\n", base().render());
        assert!(ScenarioSet::parse(&ok).is_ok());
    }

    #[test]
    fn degenerate_interpolated_gears_render_parseable() {
        let mut sc = base();
        sc.cluster.gears = GearSpec::Interpolated(1);
        let reparsed = Scenario::parse(&sc.render()).unwrap();
        assert_eq!(reparsed.cluster.gears, GearSpec::Interpolated(2));
        // The clamped form is a fixed point of parse ∘ render...
        assert_eq!(Scenario::parse(&reparsed.render()).unwrap(), reparsed);
        // ...and both specs build the same machine.
        assert_eq!(sc.cluster.gears.build(), reparsed.cluster.gears.build());
        // Lenient files with interp:1 parse instead of erroring.
        let text = sc.render().replace("interp:2", "interp:1");
        assert_eq!(
            Scenario::parse(&text).unwrap().cluster.gears,
            GearSpec::Interpolated(2)
        );
    }

    #[test]
    fn duplicate_sweep_axes_are_rejected() {
        let text = format!("{}sweep.cap = 0.6 0.8\nsweep.cap = 1\n", base().render());
        let err = ScenarioSet::parse(&text).unwrap_err().to_string();
        assert!(err.contains("duplicate sweep axis sweep.cap"), "{err}");
        // Distinct axes remain fine.
        let ok = format!("{}sweep.cap = 0.6\nsweep.bsld_th = 2\n", base().render());
        assert!(ScenarioSet::parse(&ok).is_ok());
        // Programmatically built sets hit the same guard at expand time.
        let set = ScenarioSet {
            base: base(),
            axes: vec![
                SweepAxis::new("bsld_th", [1.5]),
                SweepAxis::new("bsld_th", [3.0]),
            ],
            replications: 1,
            cell_budget_s: None,
        };
        let err = set.expand().unwrap_err().to_string();
        assert!(err.contains("duplicate sweep axis sweep.bsld_th"), "{err}");
    }

    #[test]
    fn replications_round_trip_and_validate() {
        let mut set = ScenarioSet::single(base());
        set.replications = 5;
        let text = set.render();
        assert!(text.contains("replications = 5"), "{text}");
        assert_eq!(ScenarioSet::parse(&text).unwrap(), set);
        // Files without the key default to 1.
        assert_eq!(
            ScenarioSet::parse(&base().render()).unwrap().replications,
            1
        );
        // Scenario::parse accepts replications = 1 but rejects campaigns.
        assert!(Scenario::parse(&ScenarioSet::single(base()).render()).is_ok());
        let err = Scenario::parse(&text).unwrap_err().to_string();
        assert!(err.contains("replications"), "{err}");
        // Zero is meaningless.
        let zero = format!("{}replications = 0\n", base().render());
        assert!(ScenarioSet::parse(&zero).is_err());
        // Replicating a deterministic SWF replay is rejected.
        let swf = "workload = swf\nswf_path = t.swf\nreplications = 3\n";
        let err = ScenarioSet::parse(swf).unwrap_err().to_string();
        assert!(err.contains("synthetic workload"), "{err}");
        let swf_one = "workload = swf\nswf_path = t.swf\nreplications = 1\n";
        assert!(ScenarioSet::parse(swf_one).is_ok());
    }

    #[test]
    fn empty_custom_ladder_renders_as_none() {
        let mut sc = base();
        sc.power.sleep = SleepSpec::Custom(SleepConfig::none());
        let text = sc.render();
        assert!(text.contains("sleep = none"), "{text}");
        let reparsed = Scenario::parse(&text).unwrap();
        assert_eq!(reparsed.power.sleep, SleepSpec::None);
        assert_eq!(reparsed.power.sleep.build(), SleepConfig::none());
        // The empty ladder also does not instrument on its own, so the
        // round-trip preserves run behaviour (power report absent both
        // ways).
        assert!(!sc.power.instrumented());
        assert!(sc.run(&RunCtx::default()).unwrap().power.is_none());
    }

    #[test]
    fn keys_of_the_other_workload_kind_are_rejected() {
        let swf_with_jobs = "workload = swf\nswf_path = t.swf\njobs = 100\n";
        let err = ScenarioSet::parse(swf_with_jobs).unwrap_err().to_string();
        assert!(err.contains("`jobs` does not apply"), "{err}");
        let synth_with_swf =
            "workload = synthetic\nprofile = ctc\njobs = 10\nseed = 1\nswf_clean = true\n";
        let err = ScenarioSet::parse(synth_with_swf).unwrap_err().to_string();
        assert!(err.contains("`swf_clean` does not apply"), "{err}");
    }

    #[test]
    fn out_dir_named_none_round_trips() {
        let mut sc = base();
        sc.output.out_dir = Some(PathBuf::from("none"));
        let text = sc.render();
        assert!(text.contains("out_dir = ./none"), "{text}");
        assert_eq!(Scenario::parse(&text).unwrap(), sc);
        sc.output.out_dir = None;
        assert_eq!(Scenario::parse(&sc.render()).unwrap().output.out_dir, None);
    }

    #[test]
    fn non_line_safe_strings_render_parseable() {
        let mut sc = base();
        sc.name = "  spaced\nname\r ".into();
        sc.workload = WorkloadSpec::Swf {
            path: PathBuf::from(" traces/odd.swf "),
            clean: true,
        };
        let reparsed = Scenario::parse(&sc.render()).expect("render output must parse");
        assert_eq!(reparsed.name, "spaced name");
        assert_eq!(
            reparsed.workload,
            WorkloadSpec::Swf {
                path: PathBuf::from("traces/odd.swf"),
                clean: true,
            }
        );
        // Line-safe specs are fixed points.
        assert_eq!(Scenario::parse(&reparsed.render()).unwrap(), reparsed);
    }

    #[test]
    fn run_matches_hand_wired_engine() {
        let mut sc = base();
        sc.policy = PolicySpec::BsldThreshold {
            th: 2.0,
            wq: WqThreshold::NoLimit,
        };
        let res = sc.run(&RunCtx::default()).unwrap();
        let w = TraceProfile::sdsc_blue().scaled_cpus(64).generate(42, 100);
        let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
        let policy = BsldThresholdPolicy::new(PowerAwareConfig::medium());
        let reference =
            simulate(&sim.cluster, &w.jobs, &policy, &sim.time_model, &sim.engine).unwrap();
        assert_eq!(res.run.outcomes, reference.outcomes);
        assert!(res.power.is_none());
    }

    #[test]
    fn observe_only_scenario_reports_power() {
        let mut sc = base();
        sc.power.observe = true;
        let res = sc.run(&RunCtx::default()).unwrap();
        let p = res.power.expect("observed run must report power");
        assert!(p.energy > 0.0);
        assert_eq!(p.budget, None);
    }

    #[test]
    fn fixed_gear_scenario_clamps_to_top() {
        let mut sc = base();
        sc.policy = PolicySpec::FixedGear(99);
        let clamped = sc.run(&RunCtx::default()).unwrap();
        sc.policy = PolicySpec::Baseline;
        let baseline = sc.run(&RunCtx::default()).unwrap();
        assert_eq!(clamped.run.outcomes, baseline.run.outcomes);
    }

    #[test]
    fn cell_budget_round_trips_and_validates() {
        let mut set = ScenarioSet::single(base());
        set.cell_budget_s = Some(1.5);
        let text = set.render();
        assert!(text.contains("cell_budget_s = 1.5"), "{text}");
        assert_eq!(ScenarioSet::parse(&text).unwrap(), set);
        // Absent key defaults to none; `none` parses back explicitly.
        assert_eq!(
            ScenarioSet::parse(&base().render()).unwrap().cell_budget_s,
            None
        );
        set.cell_budget_s = None;
        assert_eq!(ScenarioSet::parse(&set.render()).unwrap(), set);
        // Zero is a valid (degenerate) budget; negatives and non-finite
        // values are rejected.
        let zero = format!("{}cell_budget_s = 0\n", base().render());
        assert_eq!(ScenarioSet::parse(&zero).unwrap().cell_budget_s, Some(0.0));
        for bad in ["-1", "inf", "nan", "soon"] {
            let text = format!("{}cell_budget_s = {bad}\n", base().render());
            assert!(ScenarioSet::parse(&text).is_err(), "{bad} must be rejected");
        }
        // Scenario::parse treats the key as campaign-only.
        let campaign = format!("{}cell_budget_s = 2\n", base().render());
        let err = Scenario::parse(&campaign).unwrap_err().to_string();
        assert!(err.contains("cell_budget_s"), "{err}");
    }

    #[test]
    fn swf_dir_axis_round_trips_and_requires_swf_workload() {
        let mut sc = base();
        sc.workload = WorkloadSpec::Swf {
            path: PathBuf::from("traces"),
            clean: true,
        };
        let set = ScenarioSet {
            base: sc,
            axes: vec![SweepAxis::new(SWF_DIR, ["traces"])],
            replications: 1,
            cell_budget_s: None,
        };
        let text = set.render();
        assert!(text.contains("sweep.swf_dir = traces"), "{text}");
        assert_eq!(ScenarioSet::parse(&text).unwrap(), set);
        // Paths with spaces survive: the value is not whitespace-split.
        let spaced = ScenarioSet {
            axes: vec![SweepAxis::new(SWF_DIR, ["my traces/dir"])],
            ..set.clone()
        };
        assert_eq!(ScenarioSet::parse(&spaced.render()).unwrap(), spaced);
        // A synthetic base rejects the axis at parse time...
        let synth = format!("{}sweep.swf_dir = traces\n", base().render());
        let err = ScenarioSet::parse(&synth).unwrap_err().to_string();
        assert!(err.contains("workload = swf"), "{err}");
        // ...and at expand time for programmatically built sets.
        let prog = ScenarioSet {
            base: base(),
            ..set.clone()
        };
        assert!(prog.expand().is_err());
        // Duplicate axis is rejected like any other.
        let dup = format!("{}sweep.swf_dir = b\n", set.render());
        let err = ScenarioSet::parse(&dup).unwrap_err().to_string();
        assert!(err.contains("duplicate sweep axis sweep.swf_dir"), "{err}");
    }

    #[test]
    fn swf_dir_expands_one_cell_per_trace_sorted_by_name() {
        let dir = std::env::temp_dir().join(format!("bsld_swfdir_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Write three tiny traces out of name order plus a decoy.
        let w = TraceProfile::ctc().scaled_cpus(16).generate(3, 5);
        let swf = bsld_swf::write_swf(&w.to_swf());
        for name in ["b.swf", "a.swf", "c.SWF"] {
            std::fs::write(dir.join(name), &swf).unwrap();
        }
        std::fs::write(dir.join("notes.txt"), "not a trace").unwrap();

        let mut sc = base();
        sc.workload = WorkloadSpec::Swf {
            path: dir.clone(),
            clean: false,
        };
        let set = ScenarioSet {
            base: sc,
            axes: vec![SweepAxis::new(SWF_DIR, [dir.display()])],
            replications: 1,
            cell_budget_s: None,
        };
        let cells = set.expand().unwrap();
        assert_eq!(cells.len(), 3);
        assert_eq!(set.cell_count().unwrap(), Some(3), "counts the traces");
        let names: Vec<&str> = cells.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["t-a", "t-b", "t-c"], "sorted by file name");
        for (cell, file) in cells.iter().zip(["a.swf", "b.swf", "c.SWF"]) {
            match &cell.workload {
                WorkloadSpec::Swf { path, clean } => {
                    assert_eq!(path, &dir.join(file));
                    assert!(!clean, "base cleaning flag is kept");
                }
                other => panic!("expected SWF cell, got {other:?}"),
            }
            // Each expanded cell runs (tiny 5-job traces).
            assert_eq!(cell.run(&RunCtx::default()).unwrap().run.outcomes.len(), 5);
        }
        // An empty directory is an error, not an empty sweep.
        let empty = dir.join("empty");
        std::fs::create_dir_all(&empty).unwrap();
        let bad = ScenarioSet {
            axes: vec![SweepAxis::new(SWF_DIR, [empty.display()])],
            ..set.clone()
        };
        let err = bad.expand().unwrap_err().to_string();
        assert!(err.contains("no .swf files"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn model_key_round_trips_and_stays_absent_by_default() {
        // No model ⇒ no `model` line at all: files (and campaign cell
        // ids) from before the key existed are byte-identical.
        let sc = base();
        assert!(!sc.render().contains("model"), "{}", sc.render());
        // `model = none` parses back to the absent default.
        let none = format!("{}model = none\n", sc.render());
        assert_eq!(Scenario::parse(&none).unwrap(), sc);
        // Every variant round-trips.
        for spec in [
            PowerModelSpec::Paper,
            PowerModelSpec::Constant,
            PowerModelSpec::Linear,
            PowerModelSpec::Cubic,
            PowerModelSpec::Empirical(PathBuf::from("data/rail points.csv")),
        ] {
            let mut sc = base();
            sc.power.model = Some(spec.clone());
            let text = sc.render();
            assert!(
                text.contains(&format!("model = {}", spec.render())),
                "{text}"
            );
            assert_eq!(Scenario::parse(&text).unwrap(), sc);
        }
        // Bad values are rejected with the menu.
        let bad = format!("{}model = quadratic\n", base().render());
        let err = ScenarioSet::parse(&bad).unwrap_err().to_string();
        assert!(err.contains("paper | constant | linear | cubic"), "{err}");
        let bare = format!("{}model = empirical:\n", base().render());
        assert!(ScenarioSet::parse(&bare).is_err(), "empty CSV path");
    }

    #[test]
    fn sweep_model_axis_round_trips_and_expands() {
        let set = ScenarioSet {
            base: base(),
            axes: vec![SweepAxis::new(
                "model",
                ["paper", "constant", "linear", "cubic"],
            )],
            replications: 1,
            cell_budget_s: None,
        };
        let text = set.render();
        assert!(
            text.contains("sweep.model = paper constant linear cubic"),
            "{text}"
        );
        assert_eq!(ScenarioSet::parse(&text).unwrap(), set);
        let cells = set.expand().unwrap();
        assert_eq!(cells.len(), 4);
        let names: Vec<&str> = cells.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["t-mpaper", "t-mconstant", "t-mlinear", "t-mcubic"]);
        for (cell, spec) in cells.iter().zip([
            PowerModelSpec::Paper,
            PowerModelSpec::Constant,
            PowerModelSpec::Linear,
            PowerModelSpec::Cubic,
        ]) {
            assert_eq!(cell.power.model, Some(spec));
            assert!(cell.power.instrumented(), "model selection instruments");
        }
        // Duplicate axis rejected like any other.
        let dup = format!(
            "{}sweep.model = paper\nsweep.model = cubic\n",
            base().render()
        );
        let err = ScenarioSet::parse(&dup).unwrap_err().to_string();
        assert!(err.contains("duplicate sweep axis sweep.model"), "{err}");
        // Unknown model names inside the axis are rejected.
        let bad = format!("{}sweep.model = paper warp9\n", base().render());
        assert!(ScenarioSet::parse(&bad).is_err());
    }

    #[test]
    fn model_scenario_reports_three_rails() {
        let mut sc = base();
        sc.power.model = Some(PowerModelSpec::Linear);
        let res = sc.run(&RunCtx::default()).unwrap();
        let p = res.power.expect("a model selection instruments the run");
        assert_eq!(p.rails.len(), 3, "cpu + mem + net rails");
        let sum: f64 = p.rails.iter().map(|r| r.energy).sum();
        assert!((sum - p.energy).abs() <= 1e-9 * p.energy.max(1.0));
    }

    #[test]
    fn empirical_model_reads_csv_at_simulator_build() {
        let dir = std::env::temp_dir();
        let csv = dir.join(format!("bsld_model_{}.csv", std::process::id()));
        std::fs::write(&csv, "utilization,watts\n0.0,2.0\n1.0,9.0\n").unwrap();
        let mut sc = base();
        sc.power.model = Some(PowerModelSpec::Empirical(csv.clone()));
        assert!(sc.run(&RunCtx::default()).is_ok());
        // A missing file surfaces as an Io error, not a panic.
        sc.power.model = Some(PowerModelSpec::Empirical(dir.join("does_not_exist.csv")));
        match sc.run(&RunCtx::default()) {
            Err(ScenarioError::Io(msg)) => assert!(msg.contains("does_not_exist"), "{msg}"),
            other => panic!("expected Io error, got {other:?}"),
        }
        std::fs::remove_file(&csv).ok();
    }

    #[test]
    fn no_model_run_is_identical_to_seed_path() {
        // The refactor's central promise: a spec that never mentions a
        // model behaves exactly as before the subsystem existed, and
        // `model = paper` changes only the reporting (three rails), not
        // the schedule.
        let mut sc = base();
        sc.power.observe = true;
        let default_run = sc.run(&RunCtx::default()).unwrap();
        sc.power.model = Some(PowerModelSpec::Paper);
        let paper_run = sc.run(&RunCtx::default()).unwrap();
        assert_eq!(default_run.run.outcomes, paper_run.run.outcomes);
        let d = default_run.power.unwrap();
        let p = paper_run.power.unwrap();
        assert_eq!(d.rails.len(), 1);
        assert_eq!(p.rails.len(), 3);
        // The CPU rail prices the same paper model either way.
        assert_eq!(d.rails[0].energy.to_bits(), p.rails[0].energy.to_bits());
    }

    #[test]
    fn expand_rejects_profile_axis_on_swf() {
        let mut sc = base();
        sc.workload = WorkloadSpec::Swf {
            path: PathBuf::from("x.swf"),
            clean: true,
        };
        let set = ScenarioSet {
            base: sc,
            axes: vec![SweepAxis::new("profile", ["ctc"])],
            replications: 1,
            cell_budget_s: None,
        };
        assert!(set.expand().is_err());
    }
}
