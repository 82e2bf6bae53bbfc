//! A/B oracle for the pluggable power-model subsystem.
//!
//! The pre-refactor simulator priced power with one hard-wired formula:
//! dynamic `A·C·f·V²` (running activity 2.5× idle) plus static `α·V`
//! with α pinning the static share to 25 % of total active power at the
//! top gear. These tests pin the refactor against that original formula:
//!
//! * [`PaperDvfs`]'s gear tables are **bit-identical** to an inline
//!   longhand re-derivation, both directly and behind the trait object;
//! * the single-rail [`RailSet`] aggregate — the new default machine
//!   layout — reproduces the bare model's draw bit for bit;
//! * on the paper's grid experiment shape (reduced scale, as in
//!   `reference_ab.rs`) splitting the machine into CPU/memory/
//!   interconnect rails never perturbs the schedule;
//! * a scenario that selects `model = paper` produces the same outcomes
//!   and the same CPU-rail energy, bit for bit, as a spec that never
//!   mentions a model.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use bsld::cluster::GearSet;
use bsld::core::scenario::{
    PolicySpec, PowerModelSpec, ProfileName, RunCtx, Scenario, WorkloadSpec,
};
use bsld::core::{PowerAwareConfig, WqThreshold};
use bsld::power::{Constant, Linear, PaperDvfs, PowerModel, Rail, RailKind, RailSet};

const AB_JOBS: usize = 250;
const AB_SEED: u64 = 2010;

/// The original formula, written out longhand with the paper's numbers
/// (activity ratio 2.5, static share 25 %, normalised `A_idle·C = 1`).
/// Returns the per-gear active table (ascending) and the idle draw.
fn oracle_tables(gears: &GearSet) -> (Vec<f64>, f64) {
    let top = gears.get(gears.top());
    let act_idle_c = 1.0;
    let act_run_c = act_idle_c * 2.5;
    let alpha = 0.25 / (1.0 - 0.25) * act_run_c * top.freq_ghz * top.voltage;
    let p_active = gears
        .ascending()
        .map(|(_, g)| act_run_c * g.freq_ghz * g.voltage * g.voltage + alpha * g.voltage)
        .collect();
    let low = gears.get(gears.lowest());
    let p_idle = act_idle_c * low.freq_ghz * low.voltage * low.voltage + alpha * low.voltage;
    (p_active, p_idle)
}

#[test]
fn paper_model_bit_identical_to_inline_oracle() {
    let gears = GearSet::paper();
    let (active, idle) = oracle_tables(&gears);
    let m = PaperDvfs::paper(gears.clone());
    for ((id, _), want) in gears.ascending().zip(&active) {
        assert_eq!(m.p_active(id).to_bits(), want.to_bits(), "gear {id}");
    }
    assert_eq!(m.p_idle().to_bits(), idle.to_bits());

    // The same bits again behind the trait object…
    let boxed: Box<dyn PowerModel> = Box::new(PaperDvfs::paper(gears.clone()));
    // …and through the single-rail aggregate the simulator defaults to
    // (a one-element sum starts at 0.0, and 0.0 + x == x exactly).
    let rail = RailSet::cpu(boxed.clone());
    for ((id, _), want) in gears.ascending().zip(&active) {
        assert_eq!(boxed.p_active(id).to_bits(), want.to_bits(), "gear {id}");
        assert_eq!(
            PowerModel::p_active(&rail, id).to_bits(),
            want.to_bits(),
            "rail aggregate, gear {id}"
        );
    }
    assert_eq!(boxed.p_idle().to_bits(), idle.to_bits());
    assert_eq!(PowerModel::p_idle(&rail).to_bits(), idle.to_bits());
}

/// The three-rail layout a `model = …` scenario builds: the chosen CPU
/// model plus memory/interconnect rails anchored to the paper's
/// endpoints.
fn three_rail(gears: &GearSet) -> RailSet {
    let paper = PaperDvfs::paper(gears.clone());
    let idle = paper.p_idle();
    let full = paper.p_active(gears.top());
    RailSet::new(vec![
        Rail::new(RailKind::Cpu, Box::new(paper)),
        Rail::new(
            RailKind::Memory,
            Box::new(Linear::new(gears.clone(), 0.30 * idle, 0.30 * full)),
        ),
        Rail::new(
            RailKind::Interconnect,
            Box::new(Constant::new(gears.clone(), 0.15 * full)),
        ),
    ])
    .expect("static three-rail layout is valid")
}

#[test]
fn grid_outcomes_unchanged_by_rail_split() {
    // The grid sweep shape at reduced scale: every workload × BSLD
    // threshold × WQ threshold, plus the no-DVFS baseline. Splitting the
    // machine into rails changes reporting only, never the schedule.
    let thresholds = [1.5, 3.0];
    let wqs = [
        WqThreshold::Limit(0),
        WqThreshold::Limit(16),
        WqThreshold::NoLimit,
    ];
    for profile in ProfileName::ALL {
        let mut sc = Scenario::synthetic("ab", profile, AB_JOBS, AB_SEED);
        let w = sc.build_workload().unwrap();
        let sim = sc.simulator(&w).unwrap();
        let mut railed = sim.clone();
        railed.power = three_rail(&GearSet::paper());
        // Both machines run the same scenario kernel over the same jobs.
        let both = |sc: &Scenario| {
            (
                sc.run_prepared(&sim, &w.jobs).unwrap().run,
                sc.run_prepared(&railed, &w.jobs).unwrap().run,
            )
        };

        let (a, b) = both(&sc);
        assert_eq!(
            a.outcomes, b.outcomes,
            "{}: baseline diverged",
            w.cluster_name
        );

        for bt in thresholds {
            for wq in wqs {
                let cfg = PowerAwareConfig {
                    bsld_threshold: bt,
                    wq_threshold: wq,
                };
                sc.policy = PolicySpec::from(cfg);
                let (a, b) = both(&sc);
                assert_eq!(
                    a.outcomes,
                    b.outcomes,
                    "{}: diverged at {}",
                    w.cluster_name,
                    cfg.label()
                );
            }
        }
    }
}

#[test]
fn scenario_model_paper_is_reporting_only() {
    // Scenario-level A/B across profiles and thresholds: `model = paper`
    // against a spec with no model line. Outcomes identical; the CPU
    // rail's energy identical bit for bit; the extra rails sum into the
    // aggregate.
    for (profile, th) in [
        (ProfileName::SdscBlue, 1.5),
        (ProfileName::Ctc, 3.0),
        (ProfileName::Sdsc, 2.0),
    ] {
        let mut sc = Scenario::synthetic("ab", profile, 200, AB_SEED).map_workload(|w| {
            if let WorkloadSpec::Synthetic { scale_cpus, .. } = w {
                *scale_cpus = Some(64);
            }
        });
        sc.policy = PolicySpec::BsldThreshold {
            th,
            wq: WqThreshold::NoLimit,
        };
        sc.power.observe = true;

        let default_run = sc.run(&RunCtx::default()).unwrap();
        sc.power.model = Some(PowerModelSpec::Paper);
        let paper_run = sc.run(&RunCtx::default()).unwrap();

        assert_eq!(
            default_run.run.outcomes, paper_run.run.outcomes,
            "{profile:?} th={th}: schedule diverged"
        );
        let d = default_run.power.expect("observed run reports power");
        let p = paper_run.power.expect("observed run reports power");
        assert_eq!(d.rails.len(), 1);
        assert_eq!(p.rails.len(), 3);
        assert_eq!(
            d.rails[0].energy.to_bits(),
            p.rails[0].energy.to_bits(),
            "{profile:?} th={th}: CPU rail repriced"
        );
        assert_eq!(d.energy.to_bits(), d.rails[0].energy.to_bits());
        let rail_sum: f64 = p.rails.iter().map(|r| r.energy).sum();
        assert!(
            (rail_sum - p.energy).abs() <= 1e-9 * p.energy.max(1.0),
            "{profile:?} th={th}: rails do not sum to aggregate ({rail_sum} vs {})",
            p.energy
        );
    }
}
