//! Property tests for the scenario text format: `parse(render(s)) == s`
//! over randomized specs — every sub-spec variant, SWF paths, custom sleep
//! ladders and sweep axes included.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use std::path::PathBuf;

use bsld::core::scenario::{
    ClusterSpec, EngineSpec, GearSpec, OutputSpec, PolicySpec, PowerModelSpec, PowerSpec,
    ProfileName, Scenario, ScenarioSet, SleepSpec, SweepAxis, WorkloadSpec,
};
use bsld::core::WqThreshold;
use bsld::powercap::{SleepConfig, SleepState};
use bsld::sched::SchedMode;
use bsld::workload::profiles::BetaSpec;
use proptest::prelude::*;

fn profile_of(i: u8) -> ProfileName {
    ProfileName::ALL[i as usize % ProfileName::ALL.len()]
}

fn arb_wq() -> BoxedStrategy<WqThreshold> {
    (0u8..4, 0usize..64)
        .prop_map(|(k, n)| {
            if k == 0 {
                WqThreshold::NoLimit
            } else {
                WqThreshold::Limit(n)
            }
        })
        .boxed()
}

fn arb_policy() -> BoxedStrategy<PolicySpec> {
    (0u8..3, 10u32..400, 0u8..16, arb_wq())
        .prop_map(|(kind, th10, gear, wq)| match kind {
            0 => PolicySpec::Baseline,
            1 => PolicySpec::FixedGear(gear),
            _ => PolicySpec::BsldThreshold {
                th: th10 as f64 / 10.0,
                wq,
            },
        })
        .boxed()
}

fn arb_beta() -> BoxedStrategy<Option<BetaSpec>> {
    (0u8..3, 0u32..=100, 0u32..=50)
        .prop_map(|(kind, mean, spread)| match kind {
            0 => None,
            1 => Some(BetaSpec::Fixed(mean as f64 / 100.0)),
            _ => Some(BetaSpec::PerJob {
                mean: mean as f64 / 100.0,
                spread: spread as f64 / 100.0,
            }),
        })
        .boxed()
}

fn arb_synthetic() -> BoxedStrategy<WorkloadSpec> {
    (
        0u8..5,
        0usize..20_000,
        proptest::num::u64::ANY,
        (proptest::bool::ANY, 1u32..4096),
        arb_beta(),
    )
        .prop_map(
            |(prof, jobs, seed, (scaled, cpus), beta)| WorkloadSpec::Synthetic {
                profile: profile_of(prof),
                jobs,
                seed,
                scale_cpus: scaled.then_some(cpus),
                beta,
            },
        )
        .boxed()
}

fn arb_workload() -> BoxedStrategy<WorkloadSpec> {
    (
        proptest::bool::ANY,
        arb_synthetic(),
        (proptest::num::u64::ANY, proptest::bool::ANY),
    )
        .prop_map(|(synthetic, w, (path_bits, clean))| {
            if synthetic {
                w
            } else {
                WorkloadSpec::Swf {
                    path: PathBuf::from(format!("traces/t{path_bits:016x}.swf")),
                    clean,
                }
            }
        })
        .boxed()
}

fn arb_cluster() -> BoxedStrategy<ClusterSpec> {
    (0u32..300, proptest::bool::ANY, 2u8..32)
        .prop_map(|(enlarge_pct, paper, n)| ClusterSpec {
            enlarge_pct,
            gears: if paper {
                GearSpec::Paper
            } else {
                GearSpec::Interpolated(n)
            },
        })
        .boxed()
}

/// A valid random sleep ladder: timeouts strictly increase, power
/// fractions are products of factors ≤ 1 so they never grow with depth.
fn arb_sleep() -> BoxedStrategy<SleepSpec> {
    (
        0u8..3,
        proptest::collection::vec((1u64..500, 0u64..30, 0u32..100, 0u32..100), 1..4),
    )
        .prop_map(|(kind, parts)| match kind {
            0 => SleepSpec::None,
            1 => SleepSpec::Paper,
            _ => {
                let mut timeout = 0u64;
                let mut frac = 1.0f64;
                let states = parts
                    .into_iter()
                    .map(|(dt, lat, energy, f)| {
                        timeout += dt;
                        frac *= f as f64 / 100.0;
                        SleepState {
                            idle_timeout_s: timeout,
                            wake_latency_s: lat,
                            wake_energy: energy as f64 / 10.0,
                            power_fraction: frac,
                        }
                    })
                    .collect();
                SleepSpec::Custom(SleepConfig::new(states).expect("constructed ladder is valid"))
            }
        })
        .boxed()
}

/// A power-model spec with a line-safe empirical path (the format
/// normalises other paths on the way out, like SWF paths).
fn model_of(kind: u8, path_bits: u64) -> PowerModelSpec {
    match kind % 5 {
        0 => PowerModelSpec::Paper,
        1 => PowerModelSpec::Constant,
        2 => PowerModelSpec::Linear,
        3 => PowerModelSpec::Cubic,
        _ => PowerModelSpec::Empirical(PathBuf::from(format!("curves/m{path_bits:016x}.csv"))),
    }
}

fn arb_model() -> BoxedStrategy<Option<PowerModelSpec>> {
    (proptest::bool::ANY, 0u8..5, proptest::num::u64::ANY)
        .prop_map(|(some, kind, bits)| some.then(|| model_of(kind, bits)))
        .boxed()
}

fn arb_power() -> BoxedStrategy<PowerSpec> {
    (
        (proptest::bool::ANY, 1u32..=20),
        (proptest::bool::ANY, 0usize..64),
        arb_sleep(),
        (proptest::bool::ANY, 0usize..64),
        arb_model(),
        proptest::bool::ANY,
    )
        .prop_map(
            |((capped, cap20), (soft, escape), sleep, (boosted, limit), model, observe)| {
                PowerSpec {
                    cap_fraction: capped.then_some(cap20 as f64 / 20.0),
                    soft_wq_escape: soft.then_some(escape),
                    sleep,
                    boost: boosted.then_some(limit),
                    model,
                    observe,
                }
            },
        )
        .boxed()
}

fn arb_engine() -> BoxedStrategy<EngineSpec> {
    (
        proptest::bool::ANY,
        proptest::bool::ANY,
        0u8..3,
        proptest::bool::ANY,
    )
        .prop_map(|(conservative, backfill, sel, trace)| EngineSpec {
            mode: if conservative {
                SchedMode::Conservative
            } else {
                SchedMode::Easy
            },
            backfill,
            selection: match sel {
                0 => bsld::cluster::SelectionPolicy::FirstFit,
                1 => bsld::cluster::SelectionPolicy::LastFit,
                _ => bsld::cluster::SelectionPolicy::ContiguousFirstFit,
            },
            trace,
        })
        .boxed()
}

fn arb_scenario() -> BoxedStrategy<Scenario> {
    (
        proptest::num::u64::ANY,
        arb_workload(),
        arb_cluster(),
        arb_policy(),
        arb_power(),
        arb_engine(),
        (proptest::bool::ANY, proptest::num::u64::ANY),
    )
        .prop_map(
            |(name_bits, workload, cluster, policy, power, engine, (with_out, out_bits))| {
                Scenario {
                    name: format!("s{name_bits:x}"),
                    workload,
                    cluster,
                    policy,
                    power,
                    engine,
                    output: OutputSpec {
                        out_dir: with_out.then(|| PathBuf::from(format!("results/r{out_bits:x}"))),
                    },
                }
            },
        )
        .boxed()
}

/// Every key `sweep.<key>` accepts but `swf_dir`, whose cells come from a
/// real directory (dedicated unit tests cover it).
const SWEEPABLE: [&str; 15] = [
    "profile",
    "seed",
    "beta",
    "enlarge_pct",
    "gears",
    "policy",
    "cap",
    "sleep",
    "boost",
    "model",
    "mode",
    "backfill",
    "selection",
    "bsld_th",
    "wq",
];

/// The value of `key` in the rendered scenario (`none` when the line is
/// omitted): canonical text, as a sweep axis holds it.
fn value_of(sc: &Scenario, key: &str) -> String {
    let prefix = format!("{key} = ");
    sc.render()
        .lines()
        .find_map(|line| line.strip_prefix(&prefix).map(str::to_string))
        .unwrap_or_else(|| "none".to_string())
}

/// An axis over a random sweepable key. Its values come from random
/// scenarios (`bsld_th` and `wq`, which files write inside `policy`, from
/// random thresholds); none holds whitespace, since axis values are
/// whitespace-split on re-parse.
fn arb_axis() -> BoxedStrategy<SweepAxis> {
    (
        0..SWEEPABLE.len(),
        proptest::collection::vec(
            (arb_scenario(), arb_synthetic(), 10u32..400, arb_wq()),
            1..4,
        ),
    )
        .prop_map(|(k, raw)| {
            let key = SWEEPABLE[k];
            let values = raw.into_iter().map(|(mut sc, w, th10, wq)| match key {
                "bsld_th" => (th10 as f64 / 10.0).to_string(),
                "wq" => wq.label(),
                _ => {
                    sc.workload = w;
                    value_of(&sc, key)
                }
            });
            SweepAxis::new(key, values)
        })
        .boxed()
}

/// Keeps the first axis of each key — the text format forbids repeats.
fn dedup_axes(axes: Vec<SweepAxis>) -> Vec<SweepAxis> {
    let mut out: Vec<SweepAxis> = Vec::new();
    for a in axes {
        if !out.iter().any(|b| b.key == a.key) {
            out.push(a);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The single-scenario format is a bijection on the spec space.
    #[test]
    fn scenario_parse_inverts_render(sc in arb_scenario()) {
        let text = sc.render();
        let parsed = Scenario::parse(&text).map_err(TestCaseError::fail)?;
        prop_assert_eq!(parsed, sc);
    }

    /// The set format round-trips, sweep axes, replication counts and
    /// cell budgets included. Axis keys are deduplicated (first wins):
    /// the parser rejects repeated axes.
    #[test]
    fn scenario_set_parse_inverts_render(
        sc in arb_scenario(),
        axes in proptest::collection::vec(arb_axis(), 0..5),
        reps in 1u32..=8,
        budget in (proptest::bool::ANY, 0u32..=1_000_000),
    ) {
        // Replications > 1 require a synthetic workload (the parser
        // rejects replicated SWF replays — they are deterministic).
        let reps = match sc.workload {
            WorkloadSpec::Swf { .. } => 1,
            WorkloadSpec::Synthetic { .. } => reps,
        };
        let set = ScenarioSet {
            base: sc,
            axes: dedup_axes(axes),
            replications: reps,
            cell_budget_s: budget.0.then(|| budget.1 as f64 / 100.0),
        };
        let text = set.render();
        let parsed = ScenarioSet::parse(&text).map_err(TestCaseError::fail)?;
        prop_assert_eq!(parsed, set);
    }

    /// Expansion over a synthetic base yields exactly the cartesian
    /// product, and every expanded cell still round-trips.
    #[test]
    fn expansion_is_cartesian_and_cells_round_trip(
        sc in arb_scenario(),
        axes in proptest::collection::vec(arb_axis(), 0..4),
    ) {
        let axes = dedup_axes(axes);
        let mut base = sc;
        // Profile/seed axes only apply to synthetic workloads.
        if let WorkloadSpec::Swf { .. } = base.workload {
            base.workload = WorkloadSpec::Synthetic {
                profile: ProfileName::Ctc,
                jobs: 10,
                seed: 1,
                scale_cpus: None,
                beta: None,
            };
        }
        let set = ScenarioSet { base, axes, replications: 1, cell_budget_s: None };
        let cells = set.expand().map_err(TestCaseError::fail)?;
        let expected: usize = set.axes.iter().map(|a| a.values.len()).product();
        prop_assert_eq!(cells.len(), expected);
        for cell in cells {
            let parsed = Scenario::parse(&cell.render()).map_err(TestCaseError::fail)?;
            prop_assert_eq!(parsed, cell);
        }
    }

    /// Empirical CSV paths are normalised exactly like SWF paths: newlines
    /// become spaces and surrounding whitespace is dropped on the way out,
    /// and the normalised form is a fixed point of parse ∘ render.
    #[test]
    fn empirical_paths_normalise_like_swf_paths(bits in proptest::num::u64::ANY) {
        let mut sc = Scenario::synthetic("p", ProfileName::Ctc, 10, 1);
        let odd = format!("  curves/\nm{bits:x}.csv ");
        sc.power.model = Some(PowerModelSpec::Empirical(PathBuf::from(odd)));
        let reparsed = Scenario::parse(&sc.render()).map_err(TestCaseError::fail)?;
        let expect = format!("curves/ m{bits:x}.csv");
        prop_assert_eq!(
            &reparsed.power.model,
            &Some(PowerModelSpec::Empirical(PathBuf::from(expect)))
        );
        let again = Scenario::parse(&reparsed.render()).map_err(TestCaseError::fail)?;
        prop_assert_eq!(again, reparsed);
    }
}

#[test]
fn every_sweepable_key_is_generated() {
    let base = Scenario::synthetic("r", ProfileName::Ctc, 10, 1).render();
    let err = ScenarioSet::parse(&format!("{base}sweep.bogus = 1\n"))
        .unwrap_err()
        .to_string();
    let listed = err.rsplit_once('(').unwrap().1.trim_end_matches(')');
    let mut keys: Vec<&str> = listed.split(", ").collect();
    keys.sort_unstable();
    let mut expected: Vec<&str> = SWEEPABLE.iter().copied().chain(["swf_dir"]).collect();
    expected.sort_unstable();
    assert_eq!(keys, expected, "{err}");
}

#[test]
fn model_rejections() {
    let base = Scenario::synthetic("r", ProfileName::Ctc, 10, 1).render();
    // Unknown model names are rejected with the menu, on the key and on
    // the sweep axis alike.
    for line in ["model = warp9", "sweep.model = paper warp9"] {
        let err = ScenarioSet::parse(&format!("{base}{line}\n"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("paper | constant | linear | cubic"), "{err}");
    }
    // A duplicate model axis is rejected like every other axis.
    let dup = format!("{base}sweep.model = paper\nsweep.model = linear\n");
    let err = ScenarioSet::parse(&dup).unwrap_err().to_string();
    assert!(err.contains("duplicate sweep axis sweep.model"), "{err}");
}
