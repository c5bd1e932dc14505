//! Property-based tests for the virtual-time scheduler: determinism,
//! mutual exclusion and clock monotonicity under randomized programs —
//! and for the WAN fault lottery: combined profiles replay exactly and
//! delivery-order permutations conserve datagrams.

use std::sync::{Arc, Mutex};

use parquake_fabric::fault::{FaultConfig, FaultDir, FaultLottery};
use parquake_fabric::{Fabric, FabricKind, VirtualSmpConfig};
use proptest::prelude::*;

/// A small random program step executed by a task.
#[derive(Clone, Debug)]
enum Step {
    Charge(u32),
    Lock(u8),
    Sleep(u32),
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            (1u32..5000).prop_map(Step::Charge),
            (0u8..3).prop_map(Step::Lock),
            (1u32..20_000).prop_map(Step::Sleep),
        ],
        1..12,
    )
}

fn fabric() -> Arc<dyn Fabric> {
    FabricKind::VirtualSmp(VirtualSmpConfig {
        hyperthreading: false,
        mem_penalty: 0.0,
        link_latency_ns: 100,
        ..VirtualSmpConfig::default()
    })
    .build()
}

/// Execute a program of tasks; return a per-event trace and verify
/// lock-based mutual exclusion as we go.
fn execute(programs: &[Vec<Step>]) -> Vec<(u32, u64)> {
    let f = fabric();
    let locks: Vec<_> = (0..3).map(|_| f.alloc_lock()).collect();
    let trace = Arc::new(Mutex::new(Vec::new()));
    let in_cs = Arc::new(Mutex::new([false; 3]));
    for (id, prog) in programs.iter().enumerate() {
        let prog = prog.clone();
        let locks = locks.clone();
        let trace = trace.clone();
        let in_cs = in_cs.clone();
        f.spawn(
            &format!("t{id}"),
            None,
            Box::new(move |ctx| {
                for step in &prog {
                    match step {
                        Step::Charge(ns) => {
                            ctx.charge(*ns as u64);
                        }
                        Step::Sleep(ns) => {
                            let t = ctx.now() + *ns as u64;
                            ctx.sleep_until(t);
                        }
                        Step::Lock(l) => {
                            ctx.lock(locks[*l as usize]);
                            {
                                let mut cs = in_cs.lock().unwrap();
                                assert!(!cs[*l as usize], "two tasks inside CS {l}");
                                cs[*l as usize] = true;
                            }
                            ctx.charge(100);
                            {
                                let mut cs = in_cs.lock().unwrap();
                                cs[*l as usize] = false;
                            }
                            ctx.unlock(locks[*l as usize]);
                        }
                    }
                    trace.lock().unwrap().push((id as u32, ctx.now()));
                }
            }),
        );
    }
    f.run();
    let t = trace.lock().unwrap().clone();
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn scheduler_is_deterministic(programs in prop::collection::vec(arb_steps(), 1..5)) {
        let a = execute(&programs);
        let b = execute(&programs);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn per_task_clocks_are_monotone(programs in prop::collection::vec(arb_steps(), 1..5)) {
        let trace = execute(&programs);
        let mut last = vec![0u64; programs.len()];
        for (id, t) in trace {
            prop_assert!(t >= last[id as usize], "task {id} clock went backwards");
            last[id as usize] = t;
        }
    }

    #[test]
    fn charges_accumulate_exactly_without_contention(steps in prop::collection::vec(1u64..10_000, 1..20)) {
        // A single task with no contention: final clock == Σ charges
        // == Σ of what each charge reports it advanced the clock by.
        let f = fabric();
        let total: u64 = steps.iter().sum();
        let out = Arc::new(Mutex::new((0u64, 0u64)));
        let o = out.clone();
        f.spawn(
            "solo",
            Some(0),
            Box::new(move |ctx| {
                let returned: u64 = steps.iter().map(|s| ctx.charge(*s)).sum();
                *o.lock().unwrap() = (ctx.now(), returned);
            }),
        );
        f.run();
        prop_assert_eq!(*out.lock().unwrap(), (total, total));
    }
}

/// An arbitrary *combined* WAN profile: independent drop, duplication,
/// floored delay, Gilbert–Elliott bursty loss, per-copy jitter and
/// one-way lag, all at once. Always satisfies
/// [`FaultConfig::validate`] by construction.
fn arb_wan_config() -> impl Strategy<Value = FaultConfig> {
    (
        0.0f32..0.4,                                // drop
        0.0f32..0.4,                                // duplicate
        0.0f32..1.0,                                // delay probability
        (0u64..20_000_000u64, 0u64..40_000_000u64), // delay floor + span
        0.0f32..0.8,                                // burst_loss
        1.0f32..8.0,                                // burst_len
        0u64..30_000_000u64,                        // jitter_ns
        0u64..30_000_000u64,                        // oneway_delay_ns
        any::<bool>(),                              // oneway direction
        any::<u64>(),                               // seed
    )
        .prop_map(
            |(
                drop,
                duplicate,
                delay,
                (dmin, dspan),
                burst_loss,
                burst_len,
                jitter_ns,
                oneway_delay_ns,
                sc,
                seed,
            )| {
                FaultConfig {
                    drop,
                    duplicate,
                    delay,
                    min_delay_ns: dmin,
                    max_delay_ns: dmin + dspan,
                    burst_loss,
                    burst_len,
                    jitter_ns,
                    oneway_delay_ns,
                    oneway_dir: if sc {
                        FaultDir::ServerToClient
                    } else {
                        FaultDir::ClientToServer
                    },
                    seed,
                    ..FaultConfig::none()
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Satellite: a combined drop+dup+delay+jitter+burst+one-way
    /// lottery under one seed is replay-deterministic — the entire
    /// fate stream *and* the accounting replay bit-for-bit, including
    /// direction-dependent one-way lag.
    #[test]
    fn combined_wan_lotteries_replay_deterministically(
        cfg in arb_wan_config(),
        dirs in prop::collection::vec(any::<bool>(), 1..200),
    ) {
        let run = || {
            let mut l = FaultLottery::new(cfg.clone());
            let fates: Vec<Vec<u64>> = dirs
                .iter()
                .map(|&sc| {
                    l.draw_dir(if sc {
                        FaultDir::ServerToClient
                    } else {
                        FaultDir::ClientToServer
                    })
                })
                .collect();
            (fates, l.stats())
        };
        prop_assert_eq!(run(), run());
    }

    /// Satellite: no delivery-order permutation loses or invents a
    /// datagram. The lottery's accounting identity closes (every
    /// datagram drawn has exactly one fate, every surviving copy is
    /// accounted), and replaying the delivery schedule through a
    /// due-time queue under an arbitrary tie-break permutation hands
    /// the receiver exactly the same multiset of copies.
    #[test]
    fn delivery_permutations_conserve_datagrams(
        cfg in arb_wan_config(),
        n in 1usize..200,
        perm_seed in any::<u64>(),
    ) {
        let mut l = FaultLottery::new(cfg.clone());
        let fates: Vec<Vec<u64>> = (0..n).map(|_| l.draw()).collect();
        let stats = l.stats();

        // Accounting identity: one fate per datagram, every copy
        // accounted.
        prop_assert_eq!(
            stats.passed + stats.dropped + stats.burst_dropped,
            n as u64,
            "fates: {:?}",
            stats
        );
        let copies: u64 = fates.iter().map(|f| f.len() as u64).sum();
        prop_assert_eq!(copies, stats.passed + stats.duplicated, "copies: {:?}", stats);

        // The delivery schedule: copy of datagram `id`, sent at a
        // 30 ms cadence, arrives at send time + drawn extra delay.
        let sched: Vec<(u64, usize)> = fates
            .iter()
            .enumerate()
            .flat_map(|(id, f)| f.iter().map(move |&extra| (id as u64 * 30_000_000 + extra, id)))
            .collect();

        // Jitter and delay reorder arrivals; equal due times are a
        // scheduler tie. Deliver under an arbitrary permutation of
        // the tie-break (seeded Fisher–Yates, then a stable sort by
        // due time) and require the received multiset unchanged.
        let mut permuted = sched.clone();
        let mut s = perm_seed | 1;
        for i in (1..permuted.len()).rev() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = ((s >> 33) as usize) % (i + 1);
            permuted.swap(i, j);
        }
        permuted.sort_by_key(|&(at, _)| at);

        let mut expect: Vec<usize> = sched.iter().map(|&(_, id)| id).collect();
        let mut got: Vec<usize> = permuted.iter().map(|&(_, id)| id).collect();
        expect.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(expect, got, "a delivery permutation lost or invented a copy");
    }
}
