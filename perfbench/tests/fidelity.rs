//! The traced run must measure the schedule the untraced run produces.
//!
//! `TimedPolicy` and `TimedHook` forward every trait method; a method left
//! to the trait default silently changes the schedule. Each traced leg is
//! therefore compared with the untraced leg outcome by outcome, together
//! with its pass counters, metrics and power report, on scenarios that
//! need each forwarded method: pass elision (`pass_elision_safe`),
//! conservative reservations (`reserve_gear`), sleep retries
//! (`next_power_event`) and capped admissions (`admission_declined`).

use std::path::PathBuf;

use bsld_core::scenario::Scenario;
use bsld_model::GearId;
use bsld_sched::{simulate, DecisionCtx, FrequencyPolicy};
use bsld_simkernel::Time;
use perfbench::cell;
use perfbench::replay;
use perfbench::spans::Trace;

/// A small seeded `gen-swf` trace in a directory of its own.
fn trace_file(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perfbench-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the test directory");
    let path = dir.join("trace.swf");
    replay::write_trace(&path, 3000, 7, 128).expect("write the test trace");
    path
}

/// The replay legs' scenarios over the trace at `path`.
fn legs(path: &std::path::Path) -> Vec<Scenario> {
    replay::LEGS
        .iter()
        .map(|(name, _)| replay::leg_scenario(name, path).expect("leg parses"))
        .collect()
}

fn scenario(name: &str, path: &std::path::Path, keys: &str) -> Scenario {
    let text = format!(
        "scenario = {name}\nworkload = swf\nswf_path = {}\n{keys}",
        path.display()
    );
    Scenario::parse(&text).expect("test scenario parses")
}

#[test]
fn traced_cells_reproduce_untraced_cells() {
    let path = trace_file("fidelity");
    let mut scenarios = legs(&path);
    scenarios.push(scenario(
        "conservative-bsld",
        &path,
        "policy = bsld:2/NO\nmode = conservative\n",
    ));
    scenarios.push(scenario(
        "capped",
        &path,
        "policy = bsld:2/NO\ncap = 0.6\nsleep = paper\n",
    ));
    scenarios.push(scenario(
        "soft-capped",
        &path,
        "policy = bsld:1.5/NO\ncap = 0.5\nsoft_escape = 4\n",
    ));
    let w = scenarios[0].workload.build().expect("trace loads");
    let mut trace = Trace::default();
    for sc in &scenarios {
        let sim = sc.simulator(&w).expect("simulator builds");
        let plain = sc.run_prepared(&sim, &w.jobs).expect("untraced run");
        let (traced, layers) = cell::execute_traced(sc, &w, &mut trace, None).expect("traced run");
        let name = &sc.name;
        assert_eq!(traced.run.outcomes, plain.run.outcomes, "{name}: outcomes");
        assert_eq!(
            traced.run.pass_stats, plain.run.pass_stats,
            "{name}: passes"
        );
        assert_eq!(
            format!("{:?}", traced.run.metrics),
            format!("{:?}", plain.run.metrics),
            "{name}: metrics"
        );
        assert_eq!(
            format!("{:?}", traced.power),
            format!("{:?}", plain.power),
            "{name}: power report"
        );
        assert_eq!(
            cell::render(name, &traced),
            cell::render(name, &plain),
            "{name}: rendered row"
        );
        // A hook is attached exactly when the program's own run attaches
        // one (it reports power only then).
        assert_eq!(
            layers.hook.is_some(),
            plain.power.is_some(),
            "{name}: hook attachment"
        );
        assert!(layers.policy.calls > 0, "{name}: the policy was timed");
        assert!(layers.policy.probes > 0, "{name}: the probes were timed");
        if let Some(h) = layers.hook {
            assert!(h.tally.calls > 0, "{name}: the hook was timed");
            assert!(h.ledger_steps > 0, "{name}: the ledger stepped");
        }
    }
    std::fs::remove_dir_all(path.parent().expect("trace has a directory")).ok();
}

#[test]
fn unhooked_easy_legs_keep_pass_elision() {
    // The elided passes are what a missing `pass_elision_safe` forward
    // (or a stray hook) would lose; the fidelity test above only has
    // teeth if the legs actually elide.
    let path = trace_file("elision");
    let legs = legs(&path);
    let w = legs[0].workload.build().expect("trace loads");
    for sc in &legs[..2] {
        let (res, layers) =
            cell::execute_traced(sc, &w, &mut Trace::default(), None).expect("traced run");
        assert!(layers.hook.is_none(), "{}: no hook", sc.name);
        assert!(
            res.run.pass_stats.passes_skipped > 0,
            "{}: passes are elided",
            sc.name
        );
    }
    std::fs::remove_dir_all(path.parent().expect("trace has a directory")).ok();
}

/// Forwards only the required methods: `pass_elision_safe` falls back to
/// the trait default.
struct Forgetful<P>(P);

impl<P: FrequencyPolicy> FrequencyPolicy for Forgetful<P> {
    fn head_gear(&self, ctx: &DecisionCtx<'_>, start: Time) -> GearId {
        self.0.head_gear(ctx, start)
    }

    fn backfill_gear(
        &self,
        ctx: &DecisionCtx<'_>,
        fits: &mut dyn FnMut(GearId) -> bool,
    ) -> Option<GearId> {
        self.0.backfill_gear(ctx, fits)
    }
}

#[test]
fn a_missed_forward_changes_the_pass_counters() {
    // Negative control: the comparison above catches a wrapper that
    // forgets a method, because the counters move.
    let path = trace_file("forgetful");
    let legs = legs(&path);
    let w = legs[0].workload.build().expect("trace loads");
    let sim = legs[0].simulator(&w).expect("simulator builds");
    let top = sim.time_model.gears().top();
    let faithful = simulate(
        &sim.cluster,
        &w.jobs,
        &bsld_sched::FixedGearPolicy::new(top),
        &sim.time_model,
        &sim.engine,
    )
    .expect("faithful run");
    let forgetful = simulate(
        &sim.cluster,
        &w.jobs,
        &Forgetful(bsld_sched::FixedGearPolicy::new(top)),
        &sim.time_model,
        &sim.engine,
    )
    .expect("forgetful run");
    assert_ne!(faithful.stats, forgetful.stats);
    std::fs::remove_dir_all(path.parent().expect("trace has a directory")).ok();
}
