//! Bench: the per-rail power ledger.
//!
//! Drives a scripted start/finish/gear-change event walk through a
//! [`PowerLedger`] built three ways — the default single CPU rail, the
//! three-rail CPU/memory/interconnect split, and the split priced by the
//! cubic model — isolating what per-rail attribution costs on top of the
//! aggregate bookkeeping. A fourth case runs the full observed simulation
//! with the three-rail machine so the rail overhead is also measured in
//! situ. Run with `cargo bench -p bsld-bench --bench rail_ledger`.

use bsld_bench::{scenario, workload};
use bsld_cluster::GearSet;
use bsld_core::scenario::ProfileName;
use bsld_model::GearId;
use bsld_power::{Constant, Cubic, Linear, PaperDvfs, PowerModel, Rail, RailKind, RailSet};
use bsld_powercap::PowerLedger;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const CPUS: u32 = 256;
const EVENTS: usize = 40_000;

/// A deterministic event script: interleaved starts and finishes across
/// gears, the occasional in-flight gear change.
fn script() -> Vec<(u8, u8, u32, u64)> {
    (0..EVENTS)
        .map(|i| {
            let op = (i % 7 < 3) as u8 + (i % 7 == 6) as u8 * 2; // starts, finishes, changes
            let gear = (i % 5) as u8;
            let cpus = 1 + (i % 8) as u32;
            let dt = 1 + (i % 13) as u64;
            (op, gear, cpus, dt)
        })
        .collect()
}

fn walk(ledger: &mut PowerLedger, gears: &GearSet, script: &[(u8, u8, u32, u64)]) -> f64 {
    let mut t = 0u64;
    let mut open: Vec<(u32, GearId)> = Vec::new();
    for &(op, gear, cpus, dt) in script {
        t += dt;
        let g = GearId(gear % gears.len() as u8);
        match op {
            0 if ledger.busy() + cpus <= ledger.total_cpus() => {
                ledger.start(t, cpus, g);
                open.push((cpus, g));
            }
            1 | 0 => {
                if let Some((c, og)) = open.pop() {
                    ledger.finish(t, c, og);
                }
            }
            _ => {
                if let Some((c, og)) = open.last().copied() {
                    ledger.gear_change(t, c, og, g);
                    open.last_mut().unwrap().1 = g;
                }
            }
        }
    }
    ledger.advance(t + 1);
    ledger.energy()
}

fn three_rail(cpu: Box<dyn PowerModel>) -> RailSet {
    let gs = cpu.gears().clone();
    let paper = PaperDvfs::paper(gs.clone());
    let idle = paper.p_idle();
    let full = paper.p_active(gs.top());
    RailSet::new(vec![
        Rail::new(RailKind::Cpu, cpu),
        Rail::new(
            RailKind::Memory,
            Box::new(Linear::new(gs.clone(), 0.30 * idle, 0.30 * full)),
        ),
        Rail::new(
            RailKind::Interconnect,
            Box::new(Constant::new(gs.clone(), 0.15 * full)),
        ),
    ])
    .expect("static three-rail layout is valid")
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("rail_ledger");
    g.sample_size(20);
    let gears = GearSet::paper();
    let events = script();

    let single = RailSet::cpu(Box::new(PaperDvfs::paper(gears.clone())));
    let split = three_rail(Box::new(PaperDvfs::paper(gears.clone())));
    let paper = PaperDvfs::paper(gears.clone());
    let cubic = three_rail(Box::new(Cubic::new(
        gears.clone(),
        paper.p_idle(),
        paper.p_active(gears.top()),
    )));

    let cases: [(&str, &RailSet); 3] = [
        ("walk_single_rail", &single),
        ("walk_three_rails", &split),
        ("walk_three_rails_cubic", &cubic),
    ];
    for (name, rails) in cases {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut ledger = PowerLedger::with_rails(black_box(rails), CPUS);
                black_box(walk(&mut ledger, &gears, &events))
            })
        });
    }

    // The in-situ cost: a full observed run on the three-rail machine.
    let mut sc = scenario(ProfileName::SdscBlue);
    sc.power.observe = true;
    let w = workload(&sc);
    let mut sim = sc.simulator(&w).expect("simulator builds");
    sim.power = three_rail(Box::new(PaperDvfs::paper(gears.clone())));
    g.bench_function("observe_three_rails", |b| {
        b.iter(|| {
            let r = sc.run_prepared(&sim, black_box(&w.jobs)).unwrap();
            let power = r.power.expect("observed runs report power");
            black_box((power.energy, power.rails.len()))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
