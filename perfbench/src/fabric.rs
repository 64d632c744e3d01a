//! The three cycle-fabric workloads.
//!
//! Each runs one open-loop scenario through `traffic::sweep`: every node
//! draws a Bernoulli generation opportunity per simulated cycle and
//! queues what the workload emits at its own source; latency counts
//! from generation, so it includes the wait in that queue. The
//! untraced run repeats the scenario for the time budget and reports
//! host rate, set-up time, memory and the simulated outcome; the traced
//! run adds the replica driver's per-layer split.

use crate::report::Report;
use crate::{median, order_stat, peak_rss_mb, repeat, replica, trace, write_trace};
use anton_machine::mdrun::MdNetworkRun;
use anton_model::latency::LatencyModel;
use anton_model::topology::{NodeId, Torus};
use anton_model::MachineConfig;
use anton_net::channel::LinkStats;
use anton_net::fabric3d::{
    FabricParams, PacketSpec, TorusFabric, TrafficClass, FLIT_BYTES, SLICES,
};
use anton_net::telemetry::TelemetryConfig;
use anton_sim::rng::SplitMix64;
use anton_traffic::patterns::UniformRandom;
use anton_traffic::sweep::{
    run_scenario, run_scenario_instrumented, LatencyStats, LoadPoint, ScenarioRun, SweepConfig,
};
use anton_traffic::workload::{SyntheticWorkload, Workload};
use std::ops::Range;
use std::time::Instant;

/// The RNG stream of the single offered-load point each workload runs.
const STREAM: u64 = 1;

/// Where the traffic comes from.
#[derive(Clone, Copy, Debug)]
pub enum Traffic {
    /// Uniform random destinations.
    Uniform,
    /// Position exports and force returns of an MD water box decomposed
    /// over the torus (`MdNetworkRun::halo_workload`).
    Halo {
        atoms: usize,
        water_seed: u64,
        halo_seed: u64,
    },
}

/// One fabric workload: a scenario configuration and its traffic.
#[derive(Clone, Debug)]
pub struct FabricCase {
    pub cfg: SweepConfig,
    pub offered: f64,
    pub traffic: Traffic,
    pub telemetry: Option<TelemetryConfig>,
}

impl FabricCase {
    /// The named workload with its inputs drawn from `seed`.
    pub fn named(name: &str, seed: u64) -> Option<Self> {
        let mut case = match name {
            // The CI overload point: serial, force returns on, far past
            // the ~0.53 saturation of uniform traffic on this shape.
            "uniform_8x8x8_overload" => FabricCase {
                cfg: SweepConfig {
                    warmup_cycles: 300,
                    measure_cycles: 900,
                    drain_cycles: 6_000,
                    ..SweepConfig::new([8, 8, 8])
                },
                offered: 0.9,
                traffic: Traffic::Uniform,
                telemetry: None,
            },
            // Requests only on 4096 nodes split over two shards. The
            // warm-up outlasts the ~1,200-cycle zero-load latency, so the
            // window opens at steady state.
            "uniform_16x16x16_sharded" => FabricCase {
                cfg: SweepConfig {
                    respond: false,
                    shards: 2,
                    warmup_cycles: 1_700,
                    measure_cycles: 250,
                    drain_cycles: 10_000,
                    ..SweepConfig::new([16, 16, 16])
                },
                offered: 0.3,
                traffic: Traffic::Uniform,
                telemetry: None,
            },
            // The halo replay of a 40,000-atom water box on the paper's
            // 128-node machine, with full telemetry recording.
            "md_halo_4x4x8_telemetry" => {
                let mut s = SplitMix64::new(seed);
                FabricCase {
                    cfg: SweepConfig {
                        warmup_cycles: 3_000,
                        measure_cycles: 15_000,
                        ..SweepConfig::new([4, 4, 8])
                    },
                    offered: 0.3,
                    traffic: Traffic::Halo {
                        atoms: 40_000,
                        water_seed: s.next_u64(),
                        halo_seed: s.next_u64(),
                    },
                    telemetry: Some(TelemetryConfig::default()),
                }
            }
            _ => return None,
        };
        case.cfg.seed = seed;
        case.cfg.loads.clear();
        Some(case)
    }

    /// Builds the workload's traffic source; returns it with the host
    /// seconds spent building the MD system behind it.
    fn workload(&self) -> (Box<dyn Workload>, f64) {
        let nflits = self.cfg.flits_per_packet;
        match self.traffic {
            Traffic::Uniform => (
                Box::new(SyntheticWorkload::new(
                    &UniformRandom,
                    nflits,
                    self.cfg.respond,
                )),
                0.0,
            ),
            Traffic::Halo {
                atoms,
                water_seed,
                halo_seed,
            } => {
                let t = Instant::now();
                let machine = MachineConfig::torus(self.cfg.dims).without_compression();
                let run = MdNetworkRun::new(machine, atoms, water_seed, false);
                let md_s = t.elapsed().as_secs_f64();
                (Box::new(run.halo_workload(64, halo_seed)), md_s)
            }
        }
    }

    fn run_scenario(&self, workload: &mut dyn Workload, params: FabricParams) -> ScenarioRun {
        let (cfg, offered) = (&self.cfg, self.offered);
        match self.telemetry {
            Some(tel) => run_scenario_instrumented(workload, cfg, params, offered, STREAM, tel),
            None => run_scenario(workload, cfg, params, offered, STREAM),
        }
    }
}

/// Per-packet record kept by [`Recorder`].
#[derive(Clone, Copy)]
struct Rec {
    generated: u64,
    delivered: Option<u64>,
    tracked: bool,
    request: bool,
}

/// Wraps the workload handed to the scenario driver. It records every
/// packet's generation and delivery cycle, so the benchmark computes
/// exact latency percentiles to check the driver's histograms against,
/// and spans every workload call when tracing is on. The driver numbers
/// packets in the order the workload emits them, which is how records
/// and packet ids line up.
pub struct Recorder<'a> {
    inner: &'a mut dyn Workload,
    window: Range<u64>,
    packets: Vec<Rec>,
    /// A delivery named a packet id the recorder never saw emitted.
    id_mismatch: bool,
}

impl<'a> Recorder<'a> {
    pub fn new(inner: &'a mut dyn Workload, cfg: &SweepConfig) -> Self {
        Recorder {
            inner,
            window: cfg.warmup_cycles..cfg.warmup_cycles + cfg.measure_cycles,
            packets: Vec::new(),
            id_mismatch: false,
        }
    }

    fn record(&mut self, emitted: &[PacketSpec], at: u64, tracked: bool) {
        self.packets.extend(emitted.iter().map(|spec| Rec {
            generated: at,
            delivered: None,
            tracked,
            request: spec.class == TrafficClass::Request,
        }));
    }

    /// Generation-to-delivery latencies of tracked, delivered requests,
    /// sorted.
    fn request_latencies(&self) -> Vec<u64> {
        let mut l: Vec<u64> = self
            .packets
            .iter()
            .filter(|r| r.tracked && r.request)
            .filter_map(|r| r.delivered.map(|d| d - r.generated))
            .collect();
        l.sort_unstable();
        l
    }
}

impl Workload for Recorder<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn spawns(&self) -> bool {
        self.inner.spawns()
    }

    fn next_packets(
        &mut self,
        torus: &Torus,
        src: NodeId,
        cycle: u64,
        rng: &mut SplitMix64,
        out: &mut Vec<PacketSpec>,
    ) {
        let before = out.len();
        trace::span("traffic.workload", || {
            self.inner.next_packets(torus, src, cycle, rng, out)
        });
        let tracked = self.window.contains(&cycle);
        self.record(&out[before..], cycle, tracked);
    }

    fn on_delivered(
        &mut self,
        torus: &Torus,
        delivered: &PacketSpec,
        cycle: u64,
        rng: &mut SplitMix64,
        out: &mut Vec<PacketSpec>,
    ) {
        // Follow-on packets inherit their parent's tracking.
        let tracked = match self.packets.get_mut(delivered.id as usize) {
            Some(rec) => {
                rec.delivered = Some(cycle);
                rec.tracked
            }
            None => {
                self.id_mismatch = true;
                false
            }
        };
        let before = out.len();
        trace::span("traffic.workload", || {
            self.inner.on_delivered(torus, delivered, cycle, rng, out)
        });
        self.record(&out[before..], cycle, tracked);
    }
}

/// Wire traffic of every slice link, machine-wide.
fn wire_totals(fabric: &TorusFabric) -> LinkStats {
    let mut total = LinkStats::default();
    for s in 0..SLICES {
        total.merge(&fabric.slice_stats(s));
    }
    total
}

/// The quantile `q` of sorted whole-cycle latencies read continuously:
/// the samples at one cycle count `L` are spread evenly over
/// `[L - 1/2, L + 1/2)`. Unlike the order statistic it moves with the
/// sample when many packets share a latency, and it stays within half a
/// cycle of it.
fn continuous_quantile(v: &[u64], q: f64) -> f64 {
    let at = order_stat(v, q);
    let below = v.partition_point(|&x| x < at) as f64;
    let ties = v.partition_point(|&x| x <= at) as f64 - below;
    let frac = ((q * v.len() as f64 - below) / ties).clamp(0.0, 1.0);
    at as f64 - 0.5 + frac
}

/// Whether a histogram quantile `reported` is the upper bound of the
/// bucket holding the exact value: at most 1/32 of it above.
fn within_bucket(exact: u64, reported: f64) -> bool {
    let exact = exact as f64;
    reported >= exact && reported <= exact + exact / 32.0 + 1.0
}

/// Wire bytes split by `ByteKind` must add up to the wire total; halo
/// traffic is all typed.
fn check_wire(case: &FabricCase, wire: &LinkStats, report: &mut Report) {
    report.check(
        "per-ByteKind bytes cover every wire byte",
        wire.kinds_conserve_wire(),
    );
    if matches!(case.traffic, Traffic::Halo { .. }) {
        report.check(
            "halo traffic is all position or force bytes",
            wire.other_bytes == 0 && wire.position_bytes > 0 && wire.force_bytes > 0,
        );
    }
}

/// What one untraced scenario produced. The fabric itself is not kept:
/// at 4096 nodes it holds hundreds of MB.
struct Outcome {
    /// Host seconds of each set-up sample.
    setup_s: Vec<f64>,
    run_s: f64,
    md_setup_s: f64,
    point: LoadPoint,
    stats: LatencyStats,
    cycles: u64,
    flit_hops: u64,
    packets: u64,
    tracked: u64,
    incomplete: u64,
    /// Continuous request-latency percentiles, cycles.
    p50: f64,
    p99: f64,
    fresh_bytes_per_router: usize,
    end_bytes_per_router: usize,
}

impl Outcome {
    /// The simulated statistics two runs of one seed must agree on.
    fn signature(&self) -> String {
        format!(
            "{:?} cycles={} flit_hops={} packets={}",
            self.point, self.cycles, self.flit_hops, self.packets
        )
    }
}

fn params() -> FabricParams {
    FabricParams::calibrated(&LatencyModel::default())
}

/// Sets up and runs `case` once, untraced, and records its checks;
/// returns the outcome and the fabric after the run.
fn run_once(case: &FabricCase, report: &mut Report) -> (Outcome, TorusFabric) {
    let params = params();
    // Set-up: everything before the first simulated cycle. The probe
    // fabric is built as the driver builds its own, so its cost and its
    // fresh memory audit are the driver's. A uniform set-up takes a
    // millisecond or so, so it is sampled up to 25 times; one MD water
    // box takes a third of a second, so sampling stops after 0.2 s.
    let mut setup_s = Vec::new();
    let sampling = Instant::now();
    let (mut workload, md_setup_s, fresh_bytes_per_router) = loop {
        let t0 = Instant::now();
        let (workload, md_setup_s) = case.workload();
        let probe = replica::build_fabric(&case.cfg, params, case.telemetry);
        let fresh = probe.memory_report().bytes_per_router;
        setup_s.push(t0.elapsed().as_secs_f64());
        drop(probe);
        if setup_s.len() >= 25 || sampling.elapsed().as_secs_f64() >= 0.2 {
            break (workload, md_setup_s, fresh);
        }
    };

    let mut rec = Recorder::new(workload.as_mut(), &case.cfg);
    let t1 = Instant::now();
    let run = case.run_scenario(&mut rec, params);
    let run_s = t1.elapsed().as_secs_f64();
    let outcome = check_run(case, &run, &rec, report);
    let outcome = Outcome {
        setup_s,
        run_s,
        md_setup_s,
        fresh_bytes_per_router,
        ..outcome
    };
    (outcome, run.fabric)
}

/// The output checks every run makes; returns the outcome with its
/// host timings and fresh memory audit unset.
fn check_run(case: &FabricCase, run: &ScenarioRun, rec: &Recorder, report: &mut Report) -> Outcome {
    let p = &run.point;
    let classes = || std::iter::once(&p.request).chain(&p.response);
    let tracked: u64 = classes().map(|c| c.packets_measured).sum();
    let incomplete: u64 = classes().map(|c| c.packets_incomplete).sum();
    report.check(
        "the driver numbers packets in emission order",
        !rec.id_mismatch,
    );
    let recorded = |f: fn(&Rec) -> bool| rec.packets.iter().filter(|r| f(r)).count() as u64;
    report.check(
        "tracked packets counted by the driver match the recorder",
        tracked == recorded(|r| r.tracked)
            && incomplete == recorded(|r| r.tracked && r.delivered.is_none()),
    );
    let lat = rec.request_latencies();
    report.check(
        "request latency histogram holds every tracked delivery",
        !lat.is_empty() && run.stats.class_hist[0].count() == lat.len() as u64,
    );
    // Exact and continuous percentiles; an empty sample failed above.
    let pct = |q| match lat.is_empty() {
        true => (0, 0.0),
        false => (order_stat(&lat, q), continuous_quantile(&lat, q)),
    };
    let (p50, p99) = (pct(0.50), pct(0.99));
    report.check(
        "reported p50/p99 are the buckets of the exact percentiles",
        within_bucket(p50.0, p.request.p50_latency_cycles)
            && within_bucket(p99.0, p.request.p99_latency_cycles),
    );
    let exact_mean = lat.iter().sum::<u64>() as f64 / lat.len().max(1) as f64;
    report.check(
        "reported mean latency matches the recorded deliveries",
        (p.request.mean_latency_cycles - exact_mean).abs() <= 1e-9 * exact_mean.max(1.0),
    );
    let wire = wire_totals(&run.fabric);
    check_wire(case, &wire, report);
    report.check("the fabric delivered traffic", p.delivered > 0.0);
    Outcome {
        setup_s: Vec::new(),
        run_s: 0.0,
        md_setup_s: 0.0,
        point: *p,
        stats: run.stats.clone(),
        cycles: run.fabric.cycle(),
        flit_hops: wire.wire_bytes / FLIT_BYTES,
        packets: rec.packets.len() as u64,
        tracked,
        incomplete,
        p50: p50.1,
        p99: p99.1,
        fresh_bytes_per_router: 0,
        end_bytes_per_router: run.fabric.memory_report().bytes_per_router,
    }
}

/// The untraced measurement: repeats the scenario for `seconds` (at
/// least twice, to compare the repeats) and reports medians.
pub fn measure(case: &FabricCase, seconds: f64) -> Report {
    let mut report = Report::new(false);
    let outs = repeat(seconds, || run_once(case, &mut report).0);
    let first = &outs[0];
    report.check(
        "every repeat of the seed gives the same simulated statistics",
        repeats_agree(&outs),
    );
    let rss = peak_rss_mb();
    println!(
        "memory: {} B/router fresh, {} B/router after the run, peak RSS {rss:.1} MB",
        first.fresh_bytes_per_router, first.end_bytes_per_router
    );
    report.attempted = outs.iter().map(|o| o.tracked).sum();
    report.failed = outs.iter().map(|o| o.incomplete).sum();
    let rate: Vec<f64> = outs.iter().map(|o| o.cycles as f64 / o.run_s).collect();
    println!("simulated cycles per host second, per repeat: {rate:.0?}");
    report.set("sim_cycles_per_s", median(&rate));
    report.set(
        "setup_s",
        median(
            &outs
                .iter()
                .flat_map(|o| o.setup_s.clone())
                .collect::<Vec<_>>(),
        ),
    );
    report.set("peak_rss_mb", rss);
    report.set("sim_latency_p50_cycles", first.p50);
    report.set("sim_latency_p99_cycles", first.p99);
    report.set("delivered_flits_per_node_cycle", first.point.delivered);
    report.set("sim_mean_latency_ns", first.point.request.mean_latency_ns);
    println!(
        "{} repeats, {} simulated cycles, {} packets, {} flit-hops each",
        outs.len(),
        first.cycles,
        first.packets,
        first.flit_hops
    );
    report
}

/// Whether the replica reached the untraced run's simulated endpoint:
/// cycles, flit-hops, packets and every latency histogram.
fn replica_matches(base: &Outcome, end: &replica::ReplicaEnd) -> bool {
    end.fabric.cycle() == base.cycles
        && wire_totals(&end.fabric).wire_bytes / FLIT_BYTES == base.flit_hops
        && end.packets == base.packets
        && end.stats.class_hist == base.stats.class_hist
        && end.stats.kind_hist == base.stats.kind_hist
}

/// Whether every repeat of one seed gave the same simulated statistics.
fn repeats_agree(outs: &[Outcome]) -> bool {
    outs.iter().all(|o| o.signature() == outs[0].signature())
}

/// The traced run: one untraced scenario for reference (and, with
/// telemetry, one with recording off to price it), then the real driver
/// with the workload hooks timed, then the replica driver with a span
/// around every fabric call; reports the per-layer split.
pub fn traced(case: &FabricCase, name: &str, seed: u64) -> Report {
    let mut report = Report::new(true);
    let params = params();
    let (base, base_fabric) = run_once(case, &mut report);
    report.attempted = base.tracked;
    report.failed = base.incomplete;

    let (mut workload, _) = case.workload();
    if case.telemetry.is_some() {
        // The same scenario with recording off prices telemetry.
        let mut rec = Recorder::new(workload.as_mut(), &case.cfg);
        let t = Instant::now();
        let off = run_scenario(&mut rec, &case.cfg, params, case.offered, STREAM);
        let off_s = t.elapsed().as_secs_f64();
        report.check(
            "telemetry does not change the simulated run",
            format!("{:?}", off.point) == format!("{:?}", base.point),
        );
        report.set("net.telemetry.overhead_ratio", base.run_s / off_s);
        let t = Instant::now();
        let summary = base_fabric.telemetry_summary();
        report.set("net.telemetry.summary_s", t.elapsed().as_secs_f64());
        report.check("telemetry recorded a summary", summary.is_some());
    }
    drop(base_fabric);

    trace::start();
    // The real driver, timed only inside the workload wrapper.
    let mut rec = Recorder::new(workload.as_mut(), &case.cfg);
    let hooked = trace::span("bench.run_scenario", || case.run_scenario(&mut rec, params));
    report.check(
        "timing the workload hooks does not change the simulated run",
        format!("{:?}", hooked.point) == format!("{:?}", base.point),
    );
    drop(hooked);
    // The replica, with a span around every fabric call.
    let mut rec = Recorder::new(workload.as_mut(), &case.cfg);
    let end = trace::span("bench.replica", || {
        replica::run(
            &mut rec,
            &case.cfg,
            params,
            case.offered,
            STREAM,
            case.telemetry,
        )
    });
    let paths = trace::by_path(trace::stop().spans());
    let flit_hops = wire_totals(&end.fabric).wire_bytes / FLIT_BYTES;
    report.check(
        "the traced replica lands on run_scenario's endpoint",
        replica_matches(&base, &end),
    );

    let get = |path: &str| paths.get(path).copied().unwrap_or_default();
    let in_sweep = |name: &str| get(&format!("bench.replica/traffic.sweep/{name}"));
    let workload_t = get("bench.run_scenario/traffic.workload");
    let sweep = get("bench.replica/traffic.sweep");
    let (inject, step, take) = (
        in_sweep("net.fabric3d.inject"),
        in_sweep("net.router.step"),
        in_sweep("net.fabric3d.take_delivered"),
    );
    report.set("traffic.workload.self_s", workload_t.self_s);
    report.set("traffic.workload.calls", workload_t.calls as f64);
    report.set("traffic.sweep.self_s", sweep.self_s);
    report.set("traffic.sweep.packets", end.packets as f64);
    report.set("net.fabric3d.inject_s", inject.total_s);
    report.set("net.fabric3d.inject_attempts", end.inject_attempts as f64);
    report.set(
        "net.fabric3d.inject_accept_ratio",
        end.inject_accepted as f64 / end.inject_attempts.max(1) as f64,
    );
    report.set("net.fabric3d.take_delivered_s", take.total_s);
    report.set(
        "net.fabric3d.backpressure_rejections",
        base.point.backpressure_rejections as f64,
    );
    report.set(
        "net.fabric3d.bytes_per_router_fresh",
        end.fresh_bytes_per_router as f64,
    );
    report.set(
        "net.fabric3d.bytes_per_router_end",
        end.fabric.memory_report().bytes_per_router as f64,
    );
    report.set("net.router.step_s", step.total_s);
    report.set("net.router.step_calls", step.calls as f64);
    report.set(
        "net.router.host_ns_per_flit_hop",
        step.total_s * 1e9 / flit_hops.max(1) as f64,
    );
    report.set("net.link.flit_hops", flit_hops as f64);
    let f = &end.fabric;
    report.set(
        "net.router.shard.sync_ops_per_cycle",
        f.sync_ops() as f64 / f.cycle().max(1) as f64,
    );
    report.set("net.router.shard.epochs", f.epochs() as f64);
    report.set(
        "net.router.shard.mean_window_cycles",
        if f.epochs() > 0 {
            f.cycles_stepped() as f64 / f.epochs() as f64
        } else {
            0.0
        },
    );
    report.set("md.setup_s", base.md_setup_s);
    report.set(
        "trace.overhead_ratio",
        get("bench.replica").total_s / base.run_s,
    );
    write_trace(name, seed, &paths);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The named workload at a size a unit test can afford.
    fn tiny(name: &str) -> FabricCase {
        let mut c = FabricCase::named(name, 5).expect("known workload");
        c.cfg.dims = [2, 2, 4];
        c.cfg.warmup_cycles = 100;
        c.cfg.measure_cycles = 200;
        if let Traffic::Halo { ref mut atoms, .. } = c.traffic {
            *atoms = 3_000;
        }
        c
    }

    const NAMES: [&str; 3] = [
        "uniform_8x8x8_overload",
        "uniform_16x16x16_sharded",
        "md_halo_4x4x8_telemetry",
    ];

    #[test]
    fn tiny_runs_pass_every_check_and_report_every_metric() {
        for name in NAMES {
            let case = tiny(name);
            let r = measure(&case, 0.0);
            assert!(r.correct(), "{name}: {:?}", r.failures());
            assert!(r.attempted > 0 && r.failed == 0, "{name}");
            r.json();
            let t = traced(&case, &format!("test-{name}"), 5);
            assert!(t.correct(), "{name} traced: {:?}", t.failures());
            let line = t.json();
            assert!(!line.contains("\"net.router.step_calls\": {\"value\": 0,"));
        }
    }

    #[test]
    fn checks_fire_on_wrong_outputs() {
        let case = tiny("md_halo_4x4x8_telemetry");
        let (mut workload, _) = case.workload();
        let mut rec = Recorder::new(workload.as_mut(), &case.cfg);
        let run = case.run_scenario(&mut rec, params());
        // A recorder that missed a packet and saw a delivery of one it
        // never recorded.
        rec.packets.pop();
        rec.id_mismatch = true;
        let mut bad = Report::new(false);
        check_run(&case, &run, &rec, &mut bad);
        let failures = bad.failures().join("; ");
        assert!(failures.contains("emission order"), "{failures}");
        assert!(failures.contains("match the recorder"), "{failures}");

        // Wire bytes that the kinds do not cover, or untyped halo bytes.
        let mut wire = LinkStats {
            wire_bytes: 48,
            position_bytes: 24,
            force_bytes: 24,
            ..LinkStats::default()
        };
        let mut ok = Report::new(false);
        check_wire(&case, &wire, &mut ok);
        assert!(ok.correct(), "{:?}", ok.failures());
        wire.wire_bytes += 24;
        let mut bad = Report::new(false);
        check_wire(&case, &wire, &mut bad);
        assert_eq!(bad.failures().len(), 1);
        wire.other_bytes = 24;
        let mut bad = Report::new(false);
        check_wire(&case, &wire, &mut bad);
        assert_eq!(bad.failures().len(), 1, "{:?}", bad.failures());

        // Bucket tolerance and continuous percentiles.
        assert!(!within_bucket(100, 99.0) && !within_bucket(100, 105.0));
        assert!(within_bucket(100, 103.0));
        // Ties spread over their cycle: half of [5, 5, 5, 9] lies at
        // 2/3 of the way through cycle 5.
        let c = continuous_quantile(&[5, 5, 5, 9], 0.5);
        assert!((c - (4.5 + 2.0 / 3.0)).abs() < 1e-12, "{c}");
        // Distinct samples: the CDF reaches 1/2 at the top of cycle 2.
        assert_eq!(continuous_quantile(&[1, 2, 3, 4], 0.5), 2.5);
    }

    #[test]
    fn determinism_and_replica_checks_fire_on_another_seed() {
        let case = tiny("uniform_8x8x8_overload");
        let mut other = case.clone();
        other.cfg.seed += 1;
        let mut r = Report::new(false);
        let outs = [&case, &case, &other].map(|c| run_once(c, &mut r).0);
        assert!(r.correct(), "{:?}", r.failures());
        assert!(repeats_agree(&outs[..2]));
        assert!(!repeats_agree(&outs));

        let (mut workload, _) = other.workload();
        let mut rec = Recorder::new(workload.as_mut(), &other.cfg);
        let end = replica::run(&mut rec, &other.cfg, params(), other.offered, STREAM, None);
        assert!(replica_matches(&outs[2], &end));
        assert!(!replica_matches(&outs[0], &end));
    }
}
