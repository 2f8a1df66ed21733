//! Property-based tests for the virtual-time simulator: clocks never run
//! backwards, accounting is complete, messages respect link physics.

use base::prop::{self, Gen};
use simnet::{Activity, NetSim};
use topology::link::Link;
use topology::{ProcId, SimTime, SystemBuilder, TrafficModel};

#[derive(Clone, Debug)]
enum Op {
    Compute(u8, u16),
    Send(u8, u8, u32),
    Barrier,
    GroupReduce(bool),
    AllReduce,
}

fn arb_op(g: &mut Gen) -> Op {
    match g.usize(0..5) {
        0 => Op::Compute(g.u32(0..4) as u8, g.u32(1..5000) as u16),
        1 => Op::Send(g.u32(0..4) as u8, g.u32(0..4) as u8, g.u32(0..5_000_000)),
        2 => Op::Barrier,
        3 => Op::GroupReduce(g.bool()),
        _ => Op::AllReduce,
    }
}

fn sys() -> topology::DistributedSystem {
    let intra = Link::dedicated("intra", SimTime::from_micros(10), 1e9);
    let wan = Link::shared(
        "wan",
        SimTime::from_millis(5),
        2e7,
        TrafficModel::Bursty {
            low: 0.1,
            high: 0.8,
            p_on: 0.5,
            slot: SimTime::from_secs(1),
            seed: 99,
        },
    );
    SystemBuilder::new()
        .group("A", 2, 1.0, intra.clone())
        .group("B", 2, 1.0, intra)
        .connect(0, 1, wan)
        .build()
}

fn apply(sim: &mut NetSim, op: &Op) {
    match *op {
        Op::Compute(p, ms) => sim.compute(ProcId(p as usize), ms as f64 * 1e-3),
        Op::Send(a, b, n) => {
            let (src, dst) = (ProcId(a as usize), ProcId(b as usize));
            let act = if sim.is_remote(src, dst) {
                Activity::RemoteComm
            } else {
                Activity::LocalComm
            };
            // fault-free system: sends cannot fail
            sim.send(src, dst, n as u64, act).unwrap();
        }
        Op::Barrier => {
            sim.barrier_all();
        }
        Op::GroupReduce(b) => {
            sim.allreduce_group(topology::GroupId(b as usize), 64, Activity::LoadBalance)
                .unwrap();
        }
        Op::AllReduce => {
            sim.allreduce_all(64, Activity::LoadBalance).unwrap();
        }
    }
}

const CASES: u32 = 128;

#[test]
fn clocks_never_go_backwards() {
    prop::check(
        CASES,
        |g| g.vec(0..40, arb_op),
        |ops| {
            let mut sim = NetSim::new(sys());
            let mut prev = [SimTime::ZERO; 4];
            for op in &ops {
                apply(&mut sim, op);
                for (p, prev_t) in prev.iter_mut().enumerate() {
                    let now = sim.now(ProcId(p));
                    assert!(now >= *prev_t, "clock {p} went backwards");
                    *prev_t = now;
                }
            }
        },
    );
}

#[test]
fn accounting_is_complete() {
    prop::check(
        CASES,
        |g| g.vec(0..40, arb_op),
        |ops| {
            // every nanosecond of every clock is attributed to exactly one bucket
            let mut sim = NetSim::new(sys());
            for op in &ops {
                apply(&mut sim, op);
            }
            for p in 0..4 {
                let total = sim.stats().procs[p].total();
                assert_eq!(total, sim.now(ProcId(p)), "proc {p}");
            }
        },
    );
}

#[test]
fn replay_is_deterministic() {
    prop::check(
        CASES,
        |g| g.vec(0..30, arb_op),
        |ops| {
            let run = |ops: &[Op]| {
                let mut sim = NetSim::new(sys());
                for op in ops {
                    apply(&mut sim, op);
                }
                (sim.elapsed(), sim.stats().msgs)
            };
            assert_eq!(run(&ops), run(&ops));
        },
    );
}

#[test]
fn elapsed_is_max_clock() {
    prop::check(
        CASES,
        |g| g.vec(0..30, arb_op),
        |ops| {
            let mut sim = NetSim::new(sys());
            for op in &ops {
                apply(&mut sim, op);
            }
            let max = (0..4).map(|p| sim.now(ProcId(p))).max().unwrap();
            assert_eq!(sim.elapsed(), max);
        },
    );
}

#[test]
fn send_pays_at_least_latency_and_size() {
    prop::check(
        CASES,
        |g| (g.u64(0..50_000_000), g.bool()),
        |(bytes, from_a)| {
            let mut sim = NetSim::new(sys());
            let (src, dst) = if from_a {
                (ProcId(0), ProcId(2))
            } else {
                (ProcId(3), ProcId(1))
            };
            sim.send(src, dst, bytes, Activity::RemoteComm).unwrap();
            let t = sim.now(dst);
            // latency 5ms; best-case bandwidth 2e7 B/s
            let floor = 0.005 + bytes as f64 / 2e7;
            assert!(
                t.as_secs_f64() >= floor - 1e-9,
                "{} < {floor}",
                t.as_secs_f64()
            );
            assert_eq!(sim.stats().msgs.remote_bytes, bytes);
        },
    );
}

#[test]
fn barrier_idempotent() {
    prop::check(
        CASES,
        |g| g.vec(0..20, arb_op),
        |ops| {
            let mut sim = NetSim::new(sys());
            for op in &ops {
                apply(&mut sim, op);
            }
            let t1 = sim.barrier_all();
            let t2 = sim.barrier_all();
            assert_eq!(t1, t2, "second barrier is free");
        },
    );
}
