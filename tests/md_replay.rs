//! MD-shaped replay on the cycle fabric with Figure 9a wire-byte
//! typing, reconciled exactly — the same conservation style as the
//! PR 2 replayed-trace test, now per [`ByteKind`].
//!
//! An [`MdHaloWorkload`] built from a real spatial decomposition runs
//! through the shared scenario driver ([`run_scenario`]): position
//! exports (request class, [`ByteKind::Position`]) to the import-region
//! neighborhood, each delivered export spawning a force return (response
//! class, [`ByteKind::Force`]). A recording wrapper keeps every spec the
//! workload emits; each one's [`RoutePlan`] is walked independently to
//! build the expected per-(link, slice, kind) flit counts. After the
//! drain, the fabric's typed [`LinkStats`] must match them **exactly**,
//! link by link, and the machine-wide totals must conserve wire bytes
//! per kind under the same `PacketKind -> ByteKind` mapping the analytic
//! channel adapters use.
//!
//! [`RoutePlan`]: anton3::net::routing::RoutePlan

use anton3::md::decomp::Decomposition;
use anton3::model::latency::LatencyModel;
use anton3::model::topology::{Direction, NodeId, Torus};
use anton3::net::channel::{ByteKind, LinkStats};
use anton3::net::fabric3d::{FabricParams, PacketSpec, FLIT_BYTES, SLICES};
use anton3::net::packet::PacketKind;
use anton3::sim::rng::SplitMix64;
use anton3::traffic::sweep::{run_scenario, SweepConfig};
use anton3::traffic::workload::{MdHaloWorkload, Workload};
use std::collections::HashMap;

/// Passes every call through to `inner`, keeping a copy of each spec it
/// emits — generated exports and spawned force returns alike.
struct Recording<W> {
    inner: W,
    emitted: Vec<PacketSpec>,
}

impl<W: Workload> Workload for Recording<W> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_packets(
        &mut self,
        torus: &Torus,
        src: NodeId,
        cycle: u64,
        rng: &mut SplitMix64,
        out: &mut Vec<PacketSpec>,
    ) {
        let start = out.len();
        self.inner.next_packets(torus, src, cycle, rng, out);
        self.emitted.extend_from_slice(&out[start..]);
    }

    fn on_delivered(
        &mut self,
        torus: &Torus,
        delivered: &PacketSpec,
        cycle: u64,
        rng: &mut SplitMix64,
        out: &mut Vec<PacketSpec>,
    ) {
        let start = out.len();
        self.inner.on_delivered(torus, delivered, cycle, rng, out);
        self.emitted.extend_from_slice(&out[start..]);
    }

    fn spawns(&self) -> bool {
        self.inner.spawns()
    }
}

#[test]
fn md_halo_replay_reconciles_per_kind_link_stats_exactly() {
    // A 3x3x3 machine over a 30 A box: 10 A home boxes with a 3.25 A
    // import radius (the midpoint-method half-cutoff of the 6.5 A water
    // model), so exports reach face/edge/corner sharers only.
    let torus = Torus::new([3, 3, 3]);
    let decomp = Decomposition::new(torus, [30.0; 3], 3.25);
    let mut workload = Recording {
        inner: MdHaloWorkload::from_decomposition(&decomp, 48, 2, 42),
        emitted: Vec::new(),
    };
    let params = FabricParams::calibrated(&LatencyModel::default());
    // 400 generation cycles at a 0.10 per-node packet probability (0.2
    // flits/node/cycle over 2-flit packets): low enough to drain, high
    // enough to exercise every link kind. No warm-up, so every export
    // and every force return is tracked, and the driver stops only once
    // all of them have landed.
    let cfg = SweepConfig {
        flits_per_packet: 2,
        warmup_cycles: 0,
        measure_cycles: 400,
        drain_cycles: 100_000,
        seed: 0x4D44,
        loads: vec![],
        ..SweepConfig::new([3, 3, 3])
    };
    let run = run_scenario(&mut workload, &cfg, params, 0.2, 0);
    let (request, response) = (
        run.point.request,
        run.point
            .response
            .expect("halo replay spawns force returns"),
    );
    assert_eq!(request.packets_incomplete, 0, "replay failed to drain");
    assert_eq!(response.packets_incomplete, 0, "replay failed to drain");
    assert_eq!(run.fabric.occupancy(), 0, "replay failed to drain");
    assert!(
        request.packets_measured > 200,
        "replay must carry real traffic"
    );
    assert_eq!(
        response.packets_measured, request.packets_measured,
        "every delivered position export owes exactly one force return"
    );
    assert_eq!(
        workload.emitted.len() as u64,
        request.packets_measured + response.packets_measured,
        "every emitted spec is tracked"
    );
    let fabric = run.fabric;

    // Every spec was injected, so walking its route plan gives the
    // expected per-kind link counts.
    // (node, dir index, slice, kind index) -> expected flits.
    let mut expected: HashMap<(u16, usize, usize, usize), u64> = HashMap::new();
    for spec in &workload.emitted {
        let mut cur = torus.coord(spec.src);
        for hop in &fabric.plan(spec).hops {
            *expected
                .entry((
                    torus.node_id(cur).0,
                    hop.dir.index(),
                    spec.slice,
                    spec.kind.index(),
                ))
                .or_insert(0) += spec.nflits as u64;
            cur = torus.neighbor(cur, hop.dir);
        }
        assert_eq!(
            cur,
            torus.coord(spec.dst),
            "plan must reach its destination"
        );
    }

    // Exact reconciliation, link by link and kind by kind, against the
    // independently walked route plans.
    let mut total = LinkStats::default();
    for node in torus.nodes() {
        for dir in Direction::ALL {
            for s in 0..SLICES {
                let stats = fabric.link_stats(node, dir, s);
                assert!(stats.kinds_conserve_wire());
                for kind in ByteKind::ALL {
                    let flits = expected
                        .get(&(node.0, dir.index(), s, kind.index()))
                        .copied()
                        .unwrap_or(0);
                    assert_eq!(
                        stats.kind_bytes(kind),
                        flits * FLIT_BYTES,
                        "link ({node:?}, {dir}, slice {s}) {kind:?} bytes diverged"
                    );
                }
                total.merge(&stats);
            }
        }
    }

    // Machine-wide: the halo replay is typed exactly like the analytic
    // channel adapters type the same MD packet kinds — position exports
    // under `PacketKind::Position.byte_kind()`, force returns under
    // `PacketKind::Force.byte_kind()`, nothing untyped.
    assert_eq!(PacketKind::Position.byte_kind(), ByteKind::Position);
    assert_eq!(
        PacketKind::CompressedPosition.byte_kind(),
        ByteKind::Position
    );
    assert_eq!(PacketKind::Force.byte_kind(), ByteKind::Force);
    assert!(total.position_bytes > 0 && total.force_bytes > 0);
    assert_eq!(
        total.other_bytes, 0,
        "halo replay carries only typed traffic"
    );
    assert!(total.kinds_conserve_wire());
    let expected_total: u64 = expected.values().sum();
    assert_eq!(total.wire_bytes, expected_total * FLIT_BYTES);
}
