//! A traced copy of the scenario driver's loop.
//!
//! `traffic::sweep::run_scenario` runs its generate / inject / step /
//! collect loop in a private function, so spans cannot be placed around
//! the fabric calls it makes. This module repeats that loop call for
//! call with the same RNG draws, the same injection order and the same
//! stepping choice, and records a span around every `TorusFabric` call.
//! Workload calls are spanned by the [`crate::fabric::Recorder`] passed
//! in as the workload. The caller asserts that the copy lands on
//! `run_scenario`'s simulated endpoint (cycles, flit-hops, packets and
//! latency histograms); if the driver changes, that check fails and
//! this copy must follow it.

use crate::trace;
use anton_model::topology::{NodeId, Torus};
use anton_net::fabric3d::{decode_tag, FabricParams, PacketSpec, TorusFabric, TrafficClass};
use anton_net::routing;
use anton_net::telemetry::TelemetryConfig;
use anton_sim::rng::SplitMix64;
use anton_traffic::sweep::{LatencyStats, SweepConfig};
use anton_traffic::workload::Workload;
use std::collections::VecDeque;

const PENDING: u64 = u64::MAX;

/// Per-packet bookkeeping, as the driver keeps it.
struct PacketInfo {
    generated_at: u64,
    delivered_at: u64,
    tracked: bool,
}

/// The source queues and packet table of the driver.
struct Sources {
    specs: Vec<PacketSpec>,
    packets: Vec<PacketInfo>,
    req: Vec<VecDeque<u64>>,
    resp: Vec<VecDeque<u64>>,
    outstanding: u64,
    queued: u64,
}

impl Sources {
    fn enqueue(&mut self, torus: &Torus, spec: PacketSpec, at: u64, tracked: bool) {
        let id = self.specs.len() as u64;
        let spec = PacketSpec { id, ..spec };
        // The driver computes each route length here for its hop
        // statistics; do the same work.
        let (src, dst) = (torus.coord(spec.src), torus.coord(spec.dst));
        std::hint::black_box(match spec.class {
            TrafficClass::Request => torus.hop_distance(src, dst),
            TrafficClass::Response => routing::mesh_distance(src, dst),
        });
        self.packets.push(PacketInfo {
            generated_at: at,
            delivered_at: PENDING,
            tracked,
        });
        if tracked {
            self.outstanding += 1;
        }
        self.queued += 1;
        match spec.class {
            TrafficClass::Request => self.req[spec.src.index()].push_back(id),
            TrafficClass::Response => self.resp[spec.src.index()].push_back(id),
        }
        self.specs.push(spec);
    }
}

/// Where the copied loop ended.
pub struct ReplicaEnd {
    pub fabric: TorusFabric,
    /// Packets generated or spawned.
    pub packets: u64,
    pub inject_attempts: u64,
    pub inject_accepted: u64,
    /// `memory_report().bytes_per_router` of the freshly built fabric.
    pub fresh_bytes_per_router: usize,
    pub stats: LatencyStats,
}

/// Builds the fabric exactly as the scenario driver does.
pub fn build_fabric(
    cfg: &SweepConfig,
    params: FabricParams,
    telemetry: Option<TelemetryConfig>,
) -> TorusFabric {
    let mut fabric = TorusFabric::new(Torus::new(cfg.dims), params);
    if let Some(tel) = telemetry {
        fabric.enable_telemetry(tel);
    }
    if cfg.shards > 1 {
        fabric
            .set_shards_with_lookahead(cfg.shards, cfg.lookahead)
            .unwrap_or_else(|e| panic!("cannot shard the benchmark fabric: {e}"));
    }
    fabric
}

/// Runs the driver's loop on `workload` with a span around every fabric
/// call; the arguments mean what they mean to `run_scenario_with`.
pub fn run<W: Workload + ?Sized>(
    workload: &mut W,
    cfg: &SweepConfig,
    params: FabricParams,
    offered: f64,
    stream: u64,
    telemetry: Option<TelemetryConfig>,
) -> ReplicaEnd {
    let mut fabric = trace::span("net.fabric3d.new", || build_fabric(cfg, params, telemetry));
    let fresh_bytes_per_router = fabric.memory_report().bytes_per_router;
    let torus = *fabric.torus();
    let n = torus.node_count();
    let p_packet = offered / cfg.flits_per_packet as f64;
    let root = SplitMix64::new(cfg.seed).split(stream);
    let mut node_rng: Vec<SplitMix64> = (0..n as u64).map(|i| root.split(i)).collect();
    let mut src = Sources {
        specs: Vec::new(),
        packets: Vec::new(),
        req: vec![VecDeque::new(); n],
        resp: vec![VecDeque::new(); n],
        outstanding: 0,
        queued: 0,
    };
    let mut emitted: Vec<PacketSpec> = Vec::new();
    let window = cfg.warmup_cycles..cfg.warmup_cycles + cfg.measure_cycles;
    let gen_end = window.end;
    let horizon = gen_end + cfg.drain_cycles;
    let (mut attempts, mut accepted) = (0u64, 0u64);
    // The driver's window counters: flits by class and slice.
    let mut window_flits = [0u64; 4];

    let spawning = workload.spawns();
    let stats = trace::span("traffic.sweep", || {
        let mut cycle = 0u64;
        while cycle < horizon {
            if cycle < gen_end {
                for (node, rng) in node_rng.iter_mut().enumerate() {
                    if rng.next_f64() >= p_packet {
                        continue;
                    }
                    let from = NodeId(node as u16);
                    workload.next_packets(&torus, from, cycle, rng, &mut emitted);
                    let tracked = window.contains(&cycle);
                    for spec in emitted.drain(..) {
                        src.enqueue(&torus, spec, cycle, tracked);
                    }
                }
            }

            if src.queued > 0 {
                for queue in src.resp.iter_mut().chain(src.req.iter_mut()) {
                    let Some(&id) = queue.front() else {
                        continue;
                    };
                    attempts += 1;
                    let spec = src.specs[id as usize];
                    if trace::span("net.fabric3d.inject", || fabric.inject(spec)).is_ok() {
                        accepted += 1;
                        queue.pop_front();
                        src.queued -= 1;
                    }
                }
            }

            trace::span("net.router.step", || {
                if cycle >= gen_end && src.queued == 0 {
                    if spawning {
                        fabric.step_next_event(horizon)
                    } else {
                        fabric.step_batched(horizon)
                    }
                } else {
                    fabric.step()
                }
            });
            cycle = fabric.cycle();

            if !fabric.delivered().is_empty() || cycle >= horizon {
                let delivered =
                    trace::span("net.fabric3d.take_delivered", || fabric.take_delivered());
                for (at, flit) in delivered {
                    let tag = decode_tag(flit.tag);
                    if window.contains(&at) {
                        let class = (tag.class == TrafficClass::Response) as usize;
                        window_flits[class * 2 + tag.slice] += 1;
                    }
                    if !flit.is_tail() {
                        continue;
                    }
                    let id = flit.packet as usize;
                    src.packets[id].delivered_at = at;
                    let tracked = src.packets[id].tracked;
                    if tracked {
                        src.outstanding -= 1;
                    }
                    let spec = src.specs[id];
                    workload.on_delivered(
                        &torus,
                        &spec,
                        at,
                        &mut node_rng[spec.dst.index()],
                        &mut emitted,
                    );
                    for spawned in emitted.drain(..) {
                        src.enqueue(&torus, spawned, at, tracked);
                    }
                }
                if cycle >= gen_end && src.outstanding == 0 {
                    break;
                }
            }
        }
        std::hint::black_box(window_flits);

        let mut stats = LatencyStats::default();
        for (info, spec) in src.packets.iter().zip(&src.specs) {
            if info.tracked && info.delivered_at != PENDING {
                stats.record(spec.class, spec.kind, info.delivered_at - info.generated_at);
            }
        }
        stats
    });

    ReplicaEnd {
        fabric,
        packets: src.specs.len() as u64,
        inject_attempts: attempts,
        inject_accepted: accepted,
        fresh_bytes_per_router,
        stats,
    }
}
