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
//! through `bsld-par`.
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
//!     axes: vec![SweepAxis::BsldThreshold(vec![1.5, 2.0, 3.0])],
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

    /// Short cell-name suffix used by [`SweepAxis::Model`].
    pub fn label(&self) -> String {
        match self {
            PowerModelSpec::Empirical(p) => {
                let stem = p.file_stem().and_then(|s| s.to_str()).unwrap_or("csv");
                format!("emp-{}", line_safe(stem))
            }
            other => other.render(),
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

/// One sweep dimension of a [`ScenarioSet`].
#[derive(Debug, Clone, PartialEq)]
pub enum SweepAxis {
    /// Vary the synthetic workload profile.
    Profile(Vec<ProfileName>),
    /// Vary `BSLD_threshold` (forces the policy to BSLD-threshold; keeps
    /// the base `WQ_threshold`, defaulting to no limit).
    BsldThreshold(Vec<f64>),
    /// Vary `WQ_threshold` (forces the policy to BSLD-threshold; keeps the
    /// base threshold, defaulting to 2.0).
    Wq(Vec<WqThreshold>),
    /// Vary the power-cap fraction.
    CapFraction(Vec<f64>),
    /// Vary the machine enlargement.
    EnlargePct(Vec<u32>),
    /// Vary the workload seed.
    Seed(Vec<u64>),
    /// Vary the power model ([`PowerSpec::model`]); every cell gets an
    /// explicit model and therefore the three-rail machine layout with
    /// per-rail energy columns.
    Model(Vec<PowerModelSpec>),
    /// One cell per `.swf` file in a directory (sorted by file name, so
    /// expansion order — and therefore cell naming — is deterministic).
    /// Requires an SWF base workload; the base `swf_path` and `swf_clean`
    /// act as defaults, with each cell's path replaced by one trace file.
    /// The directory is read at expansion time.
    SwfDir(PathBuf),
}

impl SweepAxis {
    fn key(&self) -> &'static str {
        match self {
            SweepAxis::Profile(_) => "profile",
            SweepAxis::BsldThreshold(_) => "bsld_th",
            SweepAxis::Wq(_) => "wq",
            SweepAxis::CapFraction(_) => "cap",
            SweepAxis::EnlargePct(_) => "enlarge_pct",
            SweepAxis::Seed(_) => "seed",
            SweepAxis::Model(_) => "model",
            SweepAxis::SwfDir(_) => "swf_dir",
        }
    }

    fn len(&self) -> usize {
        match self {
            SweepAxis::Profile(v) => v.len(),
            SweepAxis::BsldThreshold(v) => v.len(),
            SweepAxis::Wq(v) => v.len(),
            SweepAxis::CapFraction(v) => v.len(),
            SweepAxis::EnlargePct(v) => v.len(),
            SweepAxis::Seed(v) => v.len(),
            SweepAxis::Model(v) => v.len(),
            // Resolved at expansion time (the directory is read there);
            // `expand` never consults `len` for this axis.
            SweepAxis::SwfDir(_) => 0,
        }
    }

    /// Applies value `i` of this axis to a scenario clone, appending a
    /// name suffix.
    fn apply(&self, sc: &mut Scenario, i: usize) -> Result<(), ScenarioError> {
        match self {
            SweepAxis::Profile(v) => {
                let p = v[i];
                match &mut sc.workload {
                    WorkloadSpec::Synthetic { profile, .. } => *profile = p,
                    WorkloadSpec::Swf { .. } => {
                        return Err(ScenarioError::Workload(
                            "sweep.profile cannot apply to an SWF workload".into(),
                        ))
                    }
                }
                sc.name.push('-');
                sc.name.push_str(p.key());
            }
            SweepAxis::BsldThreshold(v) => {
                let th = v[i];
                let wq = match sc.policy {
                    PolicySpec::BsldThreshold { wq, .. } => wq,
                    _ => WqThreshold::NoLimit,
                };
                sc.policy = PolicySpec::BsldThreshold { th, wq };
                sc.name.push_str(&format!("-th{th}"));
            }
            SweepAxis::Wq(v) => {
                let wq = v[i];
                let th = match sc.policy {
                    PolicySpec::BsldThreshold { th, .. } => th,
                    _ => 2.0,
                };
                sc.policy = PolicySpec::BsldThreshold { th, wq };
                sc.name.push_str(&format!("-wq{}", wq.label()));
            }
            SweepAxis::CapFraction(v) => {
                sc.power.cap_fraction = Some(v[i]);
                sc.name.push_str(&format!("-cap{}", v[i]));
            }
            SweepAxis::EnlargePct(v) => {
                sc.cluster.enlarge_pct = v[i];
                sc.name.push_str(&format!("-x{}", v[i]));
            }
            SweepAxis::Seed(v) => {
                match &mut sc.workload {
                    WorkloadSpec::Synthetic { seed, .. } => *seed = v[i],
                    WorkloadSpec::Swf { .. } => {
                        return Err(ScenarioError::Workload(
                            "sweep.seed cannot apply to an SWF workload".into(),
                        ))
                    }
                }
                sc.name.push_str(&format!("-s{}", v[i]));
            }
            SweepAxis::Model(v) => {
                sc.power.model = Some(v[i].clone());
                sc.name.push_str(&format!("-m{}", v[i].label()));
            }
            // Handled directly by `ScenarioSet::expand` (the axis values
            // are directory entries, resolved there).
            SweepAxis::SwfDir(_) => unreachable!("SwfDir is expanded by ScenarioSet::expand"),
        }
        Ok(())
    }
}

/// The `.swf` files of `dir`, sorted by file name — the deterministic cell
/// order of a [`SweepAxis::SwfDir`] expansion.
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

    /// Expands the axes' cartesian product into concrete scenarios (the
    /// base alone when there are no axes). Repeated axes are an error —
    /// a later axis would overwrite the earlier one's value while both
    /// name suffixes stick, mislabelling every cell.
    pub fn expand(&self) -> Result<Vec<Scenario>, ScenarioError> {
        for (i, axis) in self.axes.iter().enumerate() {
            if self.axes[..i].iter().any(|a| a.key() == axis.key()) {
                return Err(ScenarioError::Parse {
                    line: 0,
                    msg: format!("duplicate sweep axis sweep.{}", axis.key()),
                });
            }
        }
        let mut out = vec![self.base.clone()];
        for axis in &self.axes {
            if let SweepAxis::SwfDir(dir) = axis {
                // The axis values are directory entries, resolved here
                // (sorted by file name): one cell per trace, each keeping
                // the base's cleaning flag. Only meaningful over an SWF
                // base — a synthetic base has no path to replace.
                if matches!(self.base.workload, WorkloadSpec::Synthetic { .. }) {
                    return Err(ScenarioError::Workload(
                        "sweep.swf_dir requires `workload = swf`".into(),
                    ));
                }
                let files = list_swf_files(dir)?;
                let mut next = Vec::with_capacity(out.len() * files.len());
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
                out = next;
                continue;
            }
            if axis.len() == 0 {
                return Err(ScenarioError::Parse {
                    line: 0,
                    msg: format!("sweep.{} has no values", axis.key()),
                });
            }
            let mut next = Vec::with_capacity(out.len() * axis.len());
            for sc in &out {
                for i in 0..axis.len() {
                    let mut cell = sc.clone();
                    axis.apply(&mut cell, i)?;
                    next.push(cell);
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

/// Normalises a string field for the line-oriented format: newlines become
/// spaces and surrounding whitespace is dropped, exactly what the parser's
/// trim would do. Rendered files therefore always re-parse; specs whose
/// strings are already line-safe round-trip unchanged.
fn line_safe(s: &str) -> String {
    s.replace(['\n', '\r'], " ").trim().to_string()
}

fn render_beta(b: &BetaSpec) -> String {
    match b {
        BetaSpec::Fixed(v) => format!("{v}"),
        BetaSpec::PerJob { mean, spread } => format!("{mean}~{spread}"),
    }
}

fn parse_beta(s: &str) -> Result<BetaSpec, String> {
    let parse_f = |t: &str| {
        t.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("bad β component {t:?}"))
    };
    match s.split_once('~') {
        Some((m, sp)) => Ok(BetaSpec::PerJob {
            mean: parse_f(m)?,
            spread: parse_f(sp)?,
        }),
        None => Ok(BetaSpec::Fixed(parse_f(s)?)),
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
        let th: f64 = th
            .parse()
            .ok()
            .filter(|v: &f64| v.is_finite())
            .ok_or_else(|| format!("bad BSLD threshold {th:?}"))?;
        return Ok(PolicySpec::BsldThreshold {
            th,
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

fn parse_opt<T: std::str::FromStr>(s: &str, what: &str) -> Result<Option<T>, String> {
    if s == "none" {
        return Ok(None);
    }
    s.parse()
        .map(Some)
        .map_err(|_| format!("bad {what} value {s:?}"))
}

impl Scenario {
    /// Renders the canonical text form (every key, canonical order); the
    /// exact inverse of [`Scenario::parse`] for any spec whose string
    /// fields (name, paths) are *line-safe* — trimmed and newline-free.
    /// Other strings are normalised on the way out (newlines → spaces,
    /// surrounding whitespace dropped, matching the parser's trim), so the
    /// rendered file always re-parses.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("# bsld scenario v1\n");
        let _ = writeln!(out, "scenario = {}", line_safe(&self.name));
        match &self.workload {
            WorkloadSpec::Synthetic {
                profile,
                jobs,
                seed,
                scale_cpus,
                beta,
            } => {
                out.push_str("workload = synthetic\n");
                let _ = writeln!(out, "profile = {}", profile.key());
                let _ = writeln!(out, "jobs = {jobs}");
                let _ = writeln!(out, "seed = {seed}");
                if let Some(c) = scale_cpus {
                    let _ = writeln!(out, "scale_cpus = {c}");
                }
                if let Some(b) = beta {
                    let _ = writeln!(out, "beta = {}", render_beta(b));
                }
            }
            WorkloadSpec::Swf { path, clean } => {
                out.push_str("workload = swf\n");
                let _ = writeln!(out, "swf_path = {}", line_safe(&path.display().to_string()));
                let _ = writeln!(out, "swf_clean = {clean}");
            }
        }
        let _ = writeln!(out, "enlarge_pct = {}", self.cluster.enlarge_pct);
        match self.cluster.gears {
            GearSpec::Paper => out.push_str("gears = paper\n"),
            GearSpec::Interpolated(n) => {
                let _ = writeln!(out, "gears = interp:{}", n.max(2));
            }
        }
        let _ = writeln!(out, "policy = {}", render_policy(&self.policy));
        let _ = writeln!(out, "cap = {}", fmt_opt(&self.power.cap_fraction));
        let _ = writeln!(out, "soft_escape = {}", fmt_opt(&self.power.soft_wq_escape));
        let _ = writeln!(out, "sleep = {}", render_sleep(&self.power.sleep));
        let _ = writeln!(out, "boost = {}", fmt_opt(&self.power.boost));
        // Rendered only when set: files that never mention a model keep
        // their exact byte sequence (and so their campaign cell ids).
        if let Some(m) = &self.power.model {
            let _ = writeln!(out, "model = {}", m.render());
        }
        let _ = writeln!(out, "observe = {}", self.power.observe);
        let mode = match self.engine.mode {
            SchedMode::Easy => "easy",
            SchedMode::Conservative => "conservative",
        };
        let _ = writeln!(out, "mode = {mode}");
        let _ = writeln!(out, "backfill = {}", self.engine.backfill);
        // `incremental` is a retired key; the constant line stays because
        // campaign cell ids hash this text.
        out.push_str("incremental = true\n");
        let selection = match self.engine.selection {
            SelectionPolicy::FirstFit => "firstfit",
            SelectionPolicy::LastFit => "lastfit",
            SelectionPolicy::ContiguousFirstFit => "contiguous",
        };
        let _ = writeln!(out, "selection = {selection}");
        let _ = writeln!(out, "trace = {}", self.engine.trace);
        match &self.output.out_dir {
            Some(dir) => {
                // A directory literally named "none" is escaped as
                // "./none" so it cannot collide with the absent-value
                // keyword; the parser maps that form back.
                let text = line_safe(&dir.display().to_string());
                let text = if text == "none" {
                    "./none".into()
                } else {
                    text
                };
                let _ = writeln!(out, "out_dir = {text}");
            }
            None => out.push_str("out_dir = none\n"),
        }
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

impl ScenarioSet {
    /// Renders the set: the base scenario, the replication count, then one
    /// `sweep.<axis>` line per axis.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = self.base.render();
        let _ = writeln!(out, "replications = {}", self.replications);
        let _ = writeln!(out, "cell_budget_s = {}", fmt_opt(&self.cell_budget_s));
        for axis in &self.axes {
            let values = match axis {
                SweepAxis::Profile(v) => v.iter().map(|p| p.key().to_string()).collect::<Vec<_>>(),
                SweepAxis::BsldThreshold(v) => v.iter().map(|x| x.to_string()).collect(),
                SweepAxis::Wq(v) => v.iter().map(|w| w.label()).collect(),
                SweepAxis::CapFraction(v) => v.iter().map(|x| x.to_string()).collect(),
                SweepAxis::EnlargePct(v) => v.iter().map(|x| x.to_string()).collect(),
                SweepAxis::Seed(v) => v.iter().map(|x| x.to_string()).collect(),
                // Values are whitespace-split on the way back in, so an
                // empirical CSV path containing spaces cannot ride this
                // axis (use per-scenario `model =` lines instead).
                SweepAxis::Model(v) => v.iter().map(|m| m.render()).collect(),
                // A single path value (may contain spaces — it is not
                // whitespace-split on the way back in).
                SweepAxis::SwfDir(dir) => vec![line_safe(&dir.display().to_string())],
            };
            let _ = writeln!(out, "sweep.{} = {}", axis.key(), values.join(" "));
        }
        out
    }

    /// Parses a scenario file, sweep axes included. Unknown keys are
    /// errors; missing keys take the documented defaults (workload keys
    /// are required).
    pub fn parse(text: &str) -> Result<ScenarioSet, ScenarioError> {
        let err = |line: usize, msg: String| ScenarioError::Parse { line, msg };

        let mut name: Option<String> = None;
        let mut workload_kind: Option<(usize, String)> = None;
        let mut profile: Option<ProfileName> = None;
        let mut jobs: Option<usize> = None;
        let mut seed: Option<u64> = None;
        let mut scale_cpus: Option<u32> = None;
        let mut beta: Option<BetaSpec> = None;
        let mut swf_path: Option<PathBuf> = None;
        let mut swf_clean: Option<bool> = None;
        let mut cluster = ClusterSpec::default();
        let mut policy = PolicySpec::Baseline;
        let mut power = PowerSpec::off();
        let mut engine = EngineSpec::default();
        let mut output = OutputSpec::default();
        let mut axes: Vec<SweepAxis> = Vec::new();
        let mut replications: Option<(usize, u32)> = None;
        let mut cell_budget_s: Option<f64> = None;

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err(lineno, format!("expected `key = value`, got {line:?}")))?;
            let key = key.trim();
            let value = value.trim();
            let e = |msg: String| err(lineno, msg);
            if let Some(axis_key) = key.strip_prefix("sweep.") {
                // swf_dir takes a single path operand — paths may contain
                // spaces, so it is exempt from the whitespace split below.
                if axis_key == "swf_dir" {
                    if value.is_empty() {
                        return Err(e("sweep.swf_dir needs a directory".into()));
                    }
                    if axes.iter().any(|a| a.key() == "swf_dir") {
                        return Err(e("duplicate sweep axis sweep.swf_dir".into()));
                    }
                    axes.push(SweepAxis::SwfDir(PathBuf::from(value)));
                    continue;
                }
                let parts: Vec<&str> = value.split_whitespace().collect();
                if parts.is_empty() {
                    return Err(e(format!("sweep.{axis_key} has no values")));
                }
                let axis = match axis_key {
                    "profile" => SweepAxis::Profile(
                        parts
                            .iter()
                            .map(|p| ProfileName::parse(p))
                            .collect::<Result<_, _>>()
                            .map_err(e)?,
                    ),
                    "bsld_th" => SweepAxis::BsldThreshold(
                        parts
                            .iter()
                            .map(|p| {
                                p.parse::<f64>()
                                    .ok()
                                    .filter(|v| v.is_finite())
                                    .ok_or_else(|| format!("bad BSLD threshold {p:?}"))
                            })
                            .collect::<Result<_, _>>()
                            .map_err(e)?,
                    ),
                    "wq" => SweepAxis::Wq(
                        parts
                            .iter()
                            .map(|p| WqThreshold::parse(p))
                            .collect::<Result<_, _>>()
                            .map_err(e)?,
                    ),
                    "cap" => SweepAxis::CapFraction(
                        parts
                            .iter()
                            .map(|p| {
                                p.parse::<f64>()
                                    .ok()
                                    .filter(|v| v.is_finite() && *v > 0.0)
                                    .ok_or_else(|| {
                                        format!("bad cap fraction {p:?} (must be positive)")
                                    })
                            })
                            .collect::<Result<_, _>>()
                            .map_err(e)?,
                    ),
                    "enlarge_pct" => SweepAxis::EnlargePct(
                        parts
                            .iter()
                            .map(|p| {
                                p.parse::<u32>()
                                    .map_err(|_| format!("bad enlargement {p:?}"))
                            })
                            .collect::<Result<_, _>>()
                            .map_err(e)?,
                    ),
                    "seed" => SweepAxis::Seed(
                        parts
                            .iter()
                            .map(|p| p.parse::<u64>().map_err(|_| format!("bad seed {p:?}")))
                            .collect::<Result<_, _>>()
                            .map_err(e)?,
                    ),
                    "model" => SweepAxis::Model(
                        parts
                            .iter()
                            .map(|p| PowerModelSpec::parse(p))
                            .collect::<Result<_, _>>()
                            .map_err(e)?,
                    ),
                    other => return Err(e(format!(
                        "unknown sweep axis {other:?} (profile, bsld_th, wq, cap, enlarge_pct, seed, model, swf_dir)"
                    ))),
                };
                // A repeated axis would cartesian-multiply with itself:
                // later applications overwrite the earlier value while both
                // name suffixes stick, silently mislabelling every cell.
                if axes.iter().any(|a: &SweepAxis| a.key() == axis.key()) {
                    return Err(err(
                        lineno,
                        format!("duplicate sweep axis sweep.{}", axis.key()),
                    ));
                }
                axes.push(axis);
                continue;
            }
            match key {
                "scenario" => name = Some(value.to_string()),
                "workload" => workload_kind = Some((lineno, value.to_string())),
                "profile" => profile = Some(ProfileName::parse(value).map_err(e)?),
                "jobs" => {
                    jobs = Some(
                        value
                            .parse()
                            .map_err(|_| e(format!("bad jobs {value:?}")))?,
                    )
                }
                "seed" => {
                    seed = Some(
                        value
                            .parse()
                            .map_err(|_| e(format!("bad seed {value:?}")))?,
                    )
                }
                "scale_cpus" => {
                    scale_cpus = Some(
                        value
                            .parse()
                            .map_err(|_| e(format!("bad scale_cpus {value:?}")))?,
                    )
                }
                "beta" => beta = Some(parse_beta(value).map_err(e)?),
                "swf_path" => swf_path = Some(PathBuf::from(value)),
                "swf_clean" => swf_clean = Some(parse_bool(value).map_err(e)?),
                "enlarge_pct" => {
                    cluster.enlarge_pct = value
                        .parse()
                        .map_err(|_| e(format!("bad enlarge_pct {value:?}")))?
                }
                "gears" => {
                    cluster.gears = if value == "paper" {
                        GearSpec::Paper
                    } else if let Some(n) = value.strip_prefix("interp:") {
                        let n: u8 = n.parse().map_err(|_| e(format!("bad gear count {n:?}")))?;
                        // Below-2 counts behave as 2 (mirrors `build`), so
                        // the clamped render form always re-parses to the
                        // same spec.
                        GearSpec::Interpolated(n.max(2))
                    } else {
                        return Err(e(format!("bad gears {value:?} (paper | interp:<n>)")));
                    }
                }
                "policy" => policy = parse_policy(value).map_err(e)?,
                "cap" => {
                    power.cap_fraction = parse_opt::<f64>(value, "cap").map_err(e)?;
                    if let Some(f) = power.cap_fraction {
                        if !f.is_finite() || f <= 0.0 {
                            return Err(e(format!("cap fraction must be positive, got {f}")));
                        }
                    }
                }
                "soft_escape" => {
                    power.soft_wq_escape = parse_opt(value, "soft_escape").map_err(e)?
                }
                "sleep" => power.sleep = parse_sleep(value).map_err(e)?,
                "boost" => power.boost = parse_opt(value, "boost").map_err(e)?,
                "model" => {
                    power.model = if value == "none" {
                        None
                    } else {
                        Some(PowerModelSpec::parse(value).map_err(e)?)
                    }
                }
                "observe" => power.observe = parse_bool(value).map_err(e)?,
                "mode" => {
                    engine.mode = match value {
                        "easy" => SchedMode::Easy,
                        "conservative" => SchedMode::Conservative,
                        other => {
                            return Err(e(format!("bad mode {other:?} (easy | conservative)")))
                        }
                    }
                }
                "backfill" => engine.backfill = parse_bool(value).map_err(e)?,
                // A retired key: still validated as a bool, then ignored.
                "incremental" => {
                    parse_bool(value).map_err(e)?;
                }
                "selection" => {
                    engine.selection = match value {
                        "firstfit" => SelectionPolicy::FirstFit,
                        "lastfit" => SelectionPolicy::LastFit,
                        "contiguous" => SelectionPolicy::ContiguousFirstFit,
                        other => {
                            return Err(e(format!(
                                "bad selection {other:?} (firstfit | lastfit | contiguous)"
                            )))
                        }
                    }
                }
                "trace" => engine.trace = parse_bool(value).map_err(e)?,
                "replications" => {
                    let n: u32 = value
                        .parse()
                        .map_err(|_| e(format!("bad replications {value:?}")))?;
                    if n == 0 {
                        return Err(e("replications must be at least 1".into()));
                    }
                    replications = Some((lineno, n));
                }
                "cell_budget_s" => {
                    cell_budget_s = parse_opt::<f64>(value, "cell_budget_s").map_err(e)?;
                    if let Some(b) = cell_budget_s {
                        // Zero is allowed (a degenerate "fail every unit
                        // instantly" budget the tests rely on); negatives
                        // and non-finite values are nonsense.
                        if !b.is_finite() || b < 0.0 {
                            return Err(e(format!(
                                "cell_budget_s must be a finite non-negative number, got {b}"
                            )));
                        }
                    }
                }
                "out_dir" => {
                    output.out_dir = match value {
                        "none" => None,
                        // The render-side escape for a directory literally
                        // named "none".
                        "./none" => Some(PathBuf::from("none")),
                        other => Some(PathBuf::from(other)),
                    }
                }
                other => return Err(e(format!("unknown key {other:?}"))),
            }
        }

        let (wl_line, kind) =
            workload_kind.ok_or_else(|| err(0, "missing `workload = synthetic|swf`".into()))?;
        // Keys that belong to the other workload kind are errors, not
        // silently discarded advice: `jobs = 100` next to `workload = swf`
        // would otherwise read as a truncated replay that never happens.
        let reject_keys = |present: &[(&str, bool)], kind: &str| -> Result<(), ScenarioError> {
            for (key, set) in present {
                if *set {
                    return Err(err(
                        wl_line,
                        format!("`{key}` does not apply to a {kind} workload"),
                    ));
                }
            }
            Ok(())
        };
        let workload = match kind.as_str() {
            "synthetic" => {
                reject_keys(
                    &[
                        ("swf_path", swf_path.is_some()),
                        ("swf_clean", swf_clean.is_some()),
                    ],
                    "synthetic",
                )?;
                WorkloadSpec::Synthetic {
                    profile: profile
                        .ok_or_else(|| err(wl_line, "synthetic workload needs `profile`".into()))?,
                    jobs: jobs
                        .ok_or_else(|| err(wl_line, "synthetic workload needs `jobs`".into()))?,
                    seed: seed
                        .ok_or_else(|| err(wl_line, "synthetic workload needs `seed`".into()))?,
                    scale_cpus,
                    beta,
                }
            }
            "swf" => {
                reject_keys(
                    &[
                        ("profile", profile.is_some()),
                        ("jobs", jobs.is_some()),
                        ("seed", seed.is_some()),
                        ("scale_cpus", scale_cpus.is_some()),
                        ("beta", beta.is_some()),
                    ],
                    "swf",
                )?;
                WorkloadSpec::Swf {
                    path: swf_path
                        .ok_or_else(|| err(wl_line, "swf workload needs `swf_path`".into()))?,
                    clean: swf_clean.unwrap_or(true),
                }
            }
            other => {
                return Err(err(
                    wl_line,
                    format!("bad workload kind {other:?} (synthetic | swf)"),
                ))
            }
        };

        // A trace-directory sweep only makes sense over an SWF base: the
        // synthetic keys (profile/jobs/seed) have nothing to say about the
        // files, and silently switching workload kinds per cell would hide
        // a spec error.
        if axes.iter().any(|a| matches!(a, SweepAxis::SwfDir(_)))
            && matches!(workload, WorkloadSpec::Synthetic { .. })
        {
            return Err(err(
                wl_line,
                "sweep.swf_dir requires `workload = swf` (the synthetic keys do not apply)".into(),
            ));
        }

        // Replicating a deterministic SWF replay would repeat one number N
        // times and report a zero-width interval around it — reject rather
        // than hand out fake statistics.
        let replications = match replications {
            Some((line, n)) => {
                if n > 1 && matches!(workload, WorkloadSpec::Swf { .. }) {
                    return Err(err(
                        line,
                        "replications > 1 requires a synthetic workload \
                         (an SWF replay has no seed to vary)"
                            .into(),
                    ));
                }
                n
            }
            None => 1,
        };

        Ok(ScenarioSet {
            base: Scenario {
                name: name.unwrap_or_else(|| "scenario".into()),
                workload,
                cluster,
                policy,
                power,
                engine,
                output,
            },
            axes,
            replications,
            cell_budget_s,
        })
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
                SweepAxis::BsldThreshold(vec![1.5, 3.0]),
                SweepAxis::Wq(vec![WqThreshold::Limit(0), WqThreshold::NoLimit]),
                SweepAxis::EnlargePct(vec![0, 50]),
            ],
            replications: 1,
            cell_budget_s: None,
        };
        assert_eq!(ScenarioSet::parse(&set.render()).unwrap(), set);
        let cells = set.expand().unwrap();
        assert_eq!(cells.len(), 8);
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
                SweepAxis::BsldThreshold(vec![1.5]),
                SweepAxis::BsldThreshold(vec![3.0]),
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
            axes: vec![SweepAxis::SwfDir(PathBuf::from("traces"))],
            replications: 1,
            cell_budget_s: None,
        };
        let text = set.render();
        assert!(text.contains("sweep.swf_dir = traces"), "{text}");
        assert_eq!(ScenarioSet::parse(&text).unwrap(), set);
        // Paths with spaces survive: the value is not whitespace-split.
        let spaced = ScenarioSet {
            axes: vec![SweepAxis::SwfDir(PathBuf::from("my traces/dir"))],
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
            axes: vec![SweepAxis::SwfDir(dir.clone())],
            replications: 1,
            cell_budget_s: None,
        };
        let cells = set.expand().unwrap();
        assert_eq!(cells.len(), 3);
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
            axes: vec![SweepAxis::SwfDir(empty)],
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
            axes: vec![SweepAxis::Model(vec![
                PowerModelSpec::Paper,
                PowerModelSpec::Constant,
                PowerModelSpec::Linear,
                PowerModelSpec::Cubic,
            ])],
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
            axes: vec![SweepAxis::Profile(vec![ProfileName::Ctc])],
            replications: 1,
            cell_budget_s: None,
        };
        assert!(set.expand().is_err());
    }
}
