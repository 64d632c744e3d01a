//! Property tests for the two-slice, two-class torus fabric (paper
//! §III-B2 / §V-C): with response traffic enabled — every delivered
//! request spawning a reply to its source — the fabric always drains
//! once injection stops, i.e. there is no VC dependency cycle between
//! the request and response classes; and each class keeps its dateline
//! invariant on random torus shapes (at most one wraparound crossing
//! per dimension for requests, none at all for responses). The check
//! that every delivered flit rides its class's VC lives in the scenario
//! driver (`traffic::sweep`), as a debug assertion on each delivery, so
//! the drain property below exercises it on every flit.

use anton3::model::latency::LatencyModel;
use anton3::model::topology::{DimOrder, NodeId, Torus};
use anton3::net::fabric3d::{FabricParams, PacketSpec, TorusFabric, SLICES};
use anton3::net::routing::{self, RESPONSE_VC};
use anton3::traffic::patterns::UniformRandom;
use anton3::traffic::sweep::{run_scenario, SweepConfig};
use anton3::traffic::workload::SyntheticWorkload;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Overload a random-shape fabric with request traffic whose
    /// deliveries spawn responses, stop injecting, and require a full
    /// drain: a request/response dependency cycle would leave packets
    /// undelivered and flits resident forever. With no warmup every
    /// packet is tracked, so a full drain is every request and its one
    /// reply delivered and an empty fabric.
    #[test]
    fn overloaded_mixed_class_fabric_drains(
        dims in (2u8..=4, 2u8..=4, 2u8..=5),
        seed in any::<u64>(),
        inject_cycles in 40u64..150,
    ) {
        let cfg = SweepConfig {
            warmup_cycles: 0,
            measure_cycles: inject_cycles,
            drain_cycles: 200_000,
            seed,
            ..SweepConfig::new([dims.0, dims.1, dims.2])
        };
        let params = FabricParams::calibrated(&LatencyModel::default());
        let mut workload = SyntheticWorkload::new(&UniformRandom, 2, true);
        let run = run_scenario(&mut workload, &cfg, params, 1.0, 0);
        let req = run.point.request;
        let rsp = run.point.response.expect("respond mode");
        prop_assert_eq!(req.packets_incomplete, 0, "requests left undelivered");
        prop_assert_eq!(
            rsp.packets_incomplete, 0,
            "replies left undelivered (dependency cycle between classes?)"
        );
        prop_assert_eq!(
            rsp.packets_measured, req.packets_measured,
            "one reply per delivered request"
        );
        prop_assert_eq!(
            run.fabric.occupancy(), 0,
            "flits still resident after the drain"
        );
    }

    /// Per-class dateline invariants on random shapes: request plans
    /// cross each dimension's wraparound at most once (any order, any
    /// base VC), and response routes — checked on the fabric itself via
    /// the per-slice link counters — never touch a wraparound link.
    #[test]
    fn dateline_crossings_bounded_per_class(
        dims in (2u8..=4, 2u8..=4, 2u8..=5),
        src_ix in any::<u16>(),
        dst_ix in any::<u16>(),
        order_idx in 0usize..6,
        base_vc in 0u8..2,
        slice in 0usize..SLICES,
    ) {
        let torus = Torus::new([dims.0, dims.1, dims.2]);
        let n = torus.node_count() as u16;
        let (src, dst) = (NodeId(src_ix % n), NodeId(dst_ix % n));
        let params = FabricParams::calibrated(&LatencyModel::default());

        // Request class: plan-level walk, one crossing per dimension max.
        let plan = routing::plan_request_fixed(
            &torus,
            torus.coord(src),
            torus.coord(dst),
            DimOrder::ALL[order_idx],
            slice,
            base_vc,
        );
        let mut wraps = [0u32; 3];
        let mut cur = torus.coord(src);
        for hop in &plan.hops {
            if routing::crosses_dateline(&torus, cur, hop.dir) {
                wraps[hop.dir.dim().index()] += 1;
            }
            prop_assert!(hop.vc < RESPONSE_VC, "request plan uses the response VC");
            cur = torus.neighbor(cur, hop.dir);
        }
        for (k, &w) in wraps.iter().enumerate() {
            prop_assert!(w <= 1, "request crossed dimension {k} dateline {w} times");
        }

        // Response class: run it through the fabric and assert zero
        // traffic on every wraparound slice link.
        let mut fabric = TorusFabric::new(torus, params);
        fabric
            .inject(PacketSpec::response(src, dst, 1, 2).with_slice(slice))
            .expect("empty fabric");
        prop_assert!(fabric.run_until_drained(1_000_000), "response must drain");
        for node in torus.nodes() {
            for dir in anton3::model::topology::Direction::ALL {
                if routing::crosses_dateline(&torus, torus.coord(node), dir) {
                    for s in 0..SLICES {
                        prop_assert_eq!(
                            fabric.link_stats(node, dir, s).packets,
                            0,
                            "response crossed the {} dateline at {:?}",
                            dir,
                            node
                        );
                    }
                }
            }
        }
    }
}
