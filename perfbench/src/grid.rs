//! `grid_5k`: the paper's Fig. 3–5 grid, run the way `bsld-repro fig3` to
//! `fig5` run it; each request is one whole 65-cell pass, on each of
//! [`SEEDS`] seed-derived grids in turn.

use bsld_core::experiments::grid::{
    self, GridCell, OriginalSizeGrid, BSLD_THRESHOLDS, WQ_THRESHOLDS,
};
use bsld_core::experiments::ExpOptions;
use bsld_core::scenario::{PolicySpec, ProfileName, Scenario};
use bsld_core::PowerAwareConfig;
use bsld_metrics::RunMetrics;
use bsld_obs::Stopwatch;

use crate::cell::{self, LayerSums};
use crate::host::Host;
use crate::out::{peak_rss_mib, EndToEnd, Layers, Report};
use crate::spans::Trace;
use crate::stats::median;
use crate::{RunConfig, TRACE_DIR};

/// Generated jobs per cell (the paper's scale).
const JOBS: usize = 5000;
/// Grids per run, each its own workload seed. A pass's time moves by up
/// to a fifth with the seed, so a run takes its passes over several grids.
pub const SEEDS: usize = 3;

/// The options of grid `k` of a run with seed `seed`: one simulation
/// thread, no files. Runs with different seeds share no grid.
fn options(seed: u64, k: usize) -> ExpOptions {
    ExpOptions {
        seed: seed.wrapping_mul(SEEDS as u64).wrapping_add(k as u64),
        jobs: JOBS,
        threads: 1,
        out_dir: None,
        trace_out: None,
    }
}

/// The Fig. 3–5 tables, as `bsld-repro all` prints them.
fn render(g: &OriginalSizeGrid) -> String {
    [
        g.render_fig3(false),
        g.render_fig3(true),
        g.render_summary(),
        g.render_fig4(),
        g.render_fig5(),
    ]
    .join("\n")
}

/// One grid cell: its profile, its policy (`None` = the baseline) and
/// its scenario.
struct Cell {
    profile: ProfileName,
    policy: Option<PowerAwareConfig>,
    scenario: Scenario,
}

/// The cells in the order `grid::run` runs them: per profile, the
/// baseline first, then thresholds × WQ limits. Only the traced pass
/// runs them one by one; the timed passes call `grid::run` itself.
fn cells(opts: &ExpOptions) -> Vec<Cell> {
    let mut policies = vec![None];
    for &bsld_threshold in &BSLD_THRESHOLDS {
        for &wq_threshold in &WQ_THRESHOLDS {
            policies.push(Some(PowerAwareConfig {
                bsld_threshold,
                wq_threshold,
            }));
        }
    }
    let mut out = Vec::new();
    for profile in ProfileName::ALL {
        for &policy in &policies {
            let mut scenario = Scenario::synthetic(
                format!("{}-x0", profile.key()),
                profile,
                opts.jobs,
                opts.seed,
            );
            scenario.policy = policy.map_or(PolicySpec::Baseline, PolicySpec::from);
            out.push(Cell {
                profile,
                policy,
                scenario,
            });
        }
    }
    out
}

/// Normalises each cell against its profile's baseline, as `grid::run`
/// does, and returns the grid the figures render from.
fn assemble(cells: &[Cell], metrics: Vec<RunMetrics>) -> Result<OriginalSizeGrid, String> {
    let mut g = OriginalSizeGrid {
        cells: Vec::new(),
        baselines: Vec::new(),
    };
    for (c, m) in cells.iter().zip(metrics) {
        let name = c.profile.display_name();
        let Some(cfg) = c.policy else {
            g.baselines.push((name.to_string(), m));
            continue;
        };
        let base = &g
            .baselines
            .iter()
            .find(|(n, _)| n == name)
            .ok_or("a baseline precedes its cells")?
            .1;
        g.cells.push(GridCell {
            workload: name.to_string(),
            cfg,
            norm_e_comp: m.energy.normalized_computational(&base.energy),
            norm_e_idle: m.energy.normalized_with_idle(&base.energy),
            reduced_jobs: m.reduced_jobs,
            avg_bsld: m.avg_bsld,
            avg_wait: m.avg_wait_secs,
        });
    }
    Ok(g)
}

/// One whole pass, as `bsld-repro fig3`-`fig5` make it: `grid::run` on
/// one thread, then the tables. Returns them and the pass time.
fn pass(opts: &ExpOptions) -> (String, f64) {
    let sw = Stopwatch::start();
    let tables = render(&grid::run(opts));
    (tables, sw.elapsed_s())
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let opts: Vec<ExpOptions> = (0..SEEDS).map(|k| options(cfg.seed, k)).collect();
    // The grid has no set-up of its own: set-up is the warm-up before the
    // first timed pass, one pass of each grid. Their tables are the
    // references every later pass of the same grid must reproduce.
    let mut host = Host::new();
    let mut setup = Vec::new();
    let mut references = Vec::new();
    for o in &opts {
        let (tables, t) = pass(o);
        setup.push(t * host.scale());
        references.push(tables);
    }
    if cfg.trace {
        return run_traced(cfg, &opts, &references);
    }

    let mut report = Report::default();
    let mut times = Vec::new();
    let clock = Stopwatch::start();
    let mut k = 0;
    while clock.elapsed_s() < cfg.seconds as f64 {
        let (tables, t) = pass(&opts[k]);
        times.push(t * host.scale());
        report.request(tables == references[k]);
        k = (k + 1) % SEEDS;
    }
    report.end_to_end(&EndToEnd {
        request_ms: median(&times).ok_or("no pass completed")? * 1e3,
        setup_s: median(&setup).ok_or("no set-up ran")?,
        peak_rss_mib: peak_rss_mib(None)?,
    });
    Ok(report)
}

/// Layer totals of one traced pass: its cells, their generation and the
/// rendering.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct PassLayers {
    cells: LayerSums,
    generate_s: f64,
    render_s: f64,
}

/// One pass with each layer timed: generation, the traced cell, and the
/// figure rendering.
fn pass_traced(
    cells: &[Cell],
    trace: &mut Trace,
    req: Option<u64>,
) -> Result<(String, PassLayers), String> {
    let mut layers = PassLayers::default();
    let mut metrics = Vec::with_capacity(cells.len());
    for c in cells {
        let label = c.policy.map_or("baseline".to_string(), |p| p.label());
        let cid = trace.enter(format!("cell.{} {label}", c.profile.key()), req);
        let sc = &c.scenario;
        let (w, d) = trace.time("workload.generate", req, |_| sc.workload.build());
        layers.generate_s += d;
        let w = w.map_err(|e| e.to_string())?;
        let (res, l) = cell::execute_traced(sc, &w, trace, req).map_err(|e| e.to_string())?;
        trace.exit(cid);
        layers.cells.add(&l);
        metrics.push(res.run.metrics);
    }
    let g = assemble(cells, metrics)?;
    let (tables, d) = trace.time("core.report.render", req, |_| render(&g));
    layers.render_s = d;
    Ok((tables, layers))
}

/// Traced passes per run: a fixed count, a whole number of turns over the
/// grids, so counts repeat exactly.
fn traced_passes(seconds: u64) -> usize {
    SEEDS * (seconds / 15).max(1) as usize
}

fn run_traced(
    cfg: &RunConfig,
    opts: &[ExpOptions],
    references: &[String],
) -> Result<Report, String> {
    // The pass rebuilt from public calls, so that each layer can be timed;
    // its tables must equal `grid::run`'s.
    let cells: Vec<Vec<Cell>> = opts.iter().map(cells).collect();
    let mut trace = Trace::default();
    let mut report = Report::default();
    let mut layers: Vec<PassLayers> = Vec::new();
    let (mut traced_wall, mut plain_wall) = (Vec::new(), Vec::new());
    for p in 0..traced_passes(cfg.seconds) {
        let req = Some(p as u64);
        let k = p % SEEDS;
        let (plain, t) = pass(&opts[k]);
        plain_wall.push(t);
        let rid = trace.enter("request", req);
        let (tables, l) = pass_traced(&cells[k], &mut trace, req)?;
        traced_wall.push(trace.exit(rid).duration_s());
        trace.record("grid", req, l.cells);
        let same_counts = p
            .checked_sub(SEEDS)
            .is_none_or(|earlier| layers[earlier].cells.counts == l.cells.counts);
        report.request(tables == plain && plain == references[k] && same_counts);
        layers.push(l);
    }

    let of = |f: fn(&PassLayers) -> f64| {
        median(&layers.iter().map(f).collect::<Vec<_>>()).ok_or("no traced pass ran")
    };
    let cells: Vec<LayerSums> = layers.iter().map(|l| l.cells).collect();
    let ratio = median(&traced_wall).zip(median(&plain_wall));
    let (t, u) = ratio.ok_or("no traced pass ran")?;
    report.layers(&Layers {
        workload_build_s: of(|l| l.generate_s)?,
        render_s: of(|l| l.render_s)?,
        obs_overhead: t / u,
        ..Layers::of_cells(&cells)?
    });
    trace.write(std::path::Path::new(TRACE_DIR), "grid_5k", cfg.seed)?;
    Ok(report)
}
