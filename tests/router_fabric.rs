//! Integration + property tests for the cycle-level router fabric:
//! no-loss/no-duplication under random load, per-VC ordering (the fence
//! foundation), and latency consistency with the calibrated formulas.

use anton3::net::router::{build_row, Flit};
use anton3::sim::rng::SplitMix64;
use proptest::prelude::*;

fn flit(packet: u64, dest: u32, vc: u8) -> Flit {
    Flit {
        packet,
        index: 0,
        of: 1,
        dest,
        vc,
        tag: 0,
    }
}

#[test]
fn unloaded_row_latency_matches_formula() {
    // The path formulas charge 2 cycles per Core-Network U hop; the
    // cycle-accurate fabric must agree under zero load.
    for routers_crossed in 2..=8usize {
        let mut fabric = build_row(routers_crossed, 2, 2);
        assert!(fabric
            .inject(0, 0, flit(1, routers_crossed as u32 - 1, 0))
            .is_ok());
        assert!(fabric.run_until_drained(300));
        // Injected at cycle 0, the delivery cycle is the latency.
        let (cycle, _) = fabric.delivered()[0];
        assert_eq!(
            cycle,
            2 * routers_crossed as u64,
            "{routers_crossed} routers"
        );
    }
}

#[test]
fn loaded_row_throughput_approaches_one_flit_per_cycle() {
    // Virtual cut-through with 8-flit queues must sustain line rate on a
    // pipelined row once the pipeline fills.
    let mut fabric = build_row(4, 2, 2);
    let total = 200u64;
    let mut next = 0u64;
    for _ in 0..2000 {
        if next < total && fabric.inject(0, 0, flit(next, 3, 0)).is_ok() {
            next += 1;
        }
        fabric.step();
        if next == total {
            break;
        }
    }
    assert!(fabric.run_until_drained(2000));
    let delivered = fabric.delivered();
    assert_eq!(delivered.len(), total as usize);
    let first = delivered.first().unwrap().0;
    let last = delivered.last().unwrap().0;
    let cycles_per_flit = (last - first) as f64 / (total - 1) as f64;
    assert!(
        cycles_per_flit < 1.2,
        "sustained rate {cycles_per_flit:.2} cycles/flit is below line rate"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_traffic_is_never_lost_or_reordered(
        seed in any::<u64>(),
        n_packets in 1usize..60,
        row_len in 2usize..7,
    ) {
        let mut rng = SplitMix64::new(seed);
        let mut fabric = build_row(row_len, 2, 2);
        // Random destinations and VCs, injected as fast as credits allow.
        let mut pending: Vec<Flit> = (0..n_packets as u64)
            .map(|p| {
                flit(
                    p,
                    rng.next_below(row_len as u64) as u32,
                    rng.next_below(2) as u8,
                )
            })
            .collect();
        pending.reverse();
        for _ in 0..10_000 {
            if let Some(f) = pending.last().copied() {
                if fabric.inject(0, 0, f).is_ok() {
                    pending.pop();
                }
            } else {
                break;
            }
            fabric.step();
        }
        prop_assert!(pending.is_empty(), "all packets must inject eventually");
        prop_assert!(fabric.run_until_drained(10_000), "fabric must drain");
        // Exactly-once delivery.
        let mut ids: Vec<u64> = fabric.delivered().iter().map(|(_, f)| f.packet).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..n_packets as u64).collect::<Vec<_>>());
        // Per-(VC, destination) order preservation: packets injected in
        // increasing id order must be delivered in increasing id order
        // within each (vc, dest) class.
        for vc in 0..2u8 {
            for dest in 0..row_len as u32 {
                let class: Vec<u64> = fabric
                    .delivered()
                    .iter()
                    .filter(|(_, f)| f.vc == vc && f.dest == dest)
                    .map(|(_, f)| f.packet)
                    .collect();
                let mut sorted = class.clone();
                sorted.sort_unstable();
                prop_assert_eq!(class, sorted, "vc {} dest {} reordered", vc, dest);
            }
        }
    }

    #[test]
    fn two_flit_packets_never_interleave(
        seed in any::<u64>(),
        n_packets in 1usize..30,
    ) {
        let mut rng = SplitMix64::new(seed);
        let mut fabric = build_row(5, 2, 2);
        let mut pending: Vec<Flit> = Vec::new();
        for p in (0..n_packets as u64).rev() {
            let dest = rng.next_below(5) as u32;
            let vc = rng.next_below(2) as u8;
            pending.push(Flit { packet: p, index: 1, of: 2, dest, vc, tag: 0 });
            pending.push(Flit { packet: p, index: 0, of: 2, dest, vc, tag: 0 });
        }
        for _ in 0..20_000 {
            if let Some(f) = pending.last().copied() {
                if fabric.inject(0, 0, f).is_ok() {
                    pending.pop();
                }
            } else {
                break;
            }
            fabric.step();
        }
        prop_assert!(pending.is_empty());
        prop_assert!(fabric.run_until_drained(20_000));
        // At every destination, each packet's tail directly follows its
        // head (cut-through without interleaving on a VC).
        for dest in 0..5u32 {
            let stream: Vec<(u64, u8)> = fabric
                .delivered()
                .iter()
                .filter(|(_, f)| f.dest == dest)
                .map(|(_, f)| (f.packet, f.index))
                .collect();
            let mut open: Option<u64> = None;
            for (packet, index) in stream {
                match (open, index) {
                    (None, 0) => open = Some(packet),
                    (Some(p), 1) => {
                        prop_assert_eq!(p, packet, "tail of wrong packet at dest {}", dest);
                        open = None;
                    }
                    other => prop_assert!(false, "interleaved flits: {:?}", other),
                }
            }
            prop_assert!(open.is_none(), "dangling head at dest {}", dest);
        }
    }
}
