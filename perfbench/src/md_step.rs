//! The compressed MD step workload: `MdNetworkRun` on the paper's
//! 8-node (2x2x2) machine with INZ and the particle cache, a fixed
//! number of `step()` calls after a cache warm-up. It is the only
//! workload that runs `md`, `compress` and `machine`, and it produces
//! the paper's application-level number, the simulated step time.

use crate::report::Report;
use crate::{median, order_stat, peak_rss_mb, repeat, trace, write_trace};
use anton_machine::mdrun::MdNetworkRun;
use anton_md::force::compute_forces;
use anton_model::units::PS_PER_CORE_CYCLE;
use anton_model::MachineConfig;
use anton_net::fabric3d::FLIT_BYTES;
use anton_sim::rng::SplitMix64;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct MdStepCase {
    pub dims: [u8; 3],
    pub atoms: usize,
    pub water_seed: u64,
    /// Unmeasured steps that fill the particle caches.
    pub warmup: usize,
    pub measure: usize,
}

impl MdStepCase {
    pub fn new(seed: u64) -> Self {
        MdStepCase {
            dims: [2, 2, 2],
            atoms: 32_751,
            water_seed: SplitMix64::new(seed).next_u64(),
            warmup: 3,
            measure: 6,
        }
    }
}

/// One set-up plus `warmup + measure` steps.
struct Outcome {
    setup_s: f64,
    /// Host seconds of each measured step.
    step_s: Vec<f64>,
    /// Host seconds of the warm-up steps.
    warmup_s: f64,
    /// Simulated core cycles of each measured application step.
    step_cycles: Vec<f64>,
    sim_cycles: f64,
    wire_flits: f64,
    nodes: usize,
    wire_reduction: f64,
    pcache_hit_rate: f64,
    signature: String,
}

/// Runs `case` once; with `probe_forces`, runs an extra `compute_forces`
/// after every measured step inside an `md.force` span.
fn run_once(case: &MdStepCase, probe_forces: bool, report: &mut Report) -> Outcome {
    let t0 = Instant::now();
    let mut run = trace::span("md.setup", || {
        MdNetworkRun::new(
            MachineConfig::torus(case.dims),
            case.atoms,
            case.water_seed,
            false,
        )
    });
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    for _ in 0..case.warmup {
        trace::span("machine.mdrun.warmup_step", || run.step());
    }
    let warmup_s = t1.elapsed().as_secs_f64();
    let (stats0, clock0) = (run.machine.total_stats(), run.clock());
    let mut steps = Vec::with_capacity(case.measure);
    let mut step_s = Vec::with_capacity(case.measure);
    for _ in 0..case.measure {
        let t = Instant::now();
        steps.push(trace::span("machine.mdrun.step", || run.step()));
        step_s.push(t.elapsed().as_secs_f64());
        if probe_forces {
            std::hint::black_box(trace::span("md.force", || {
                compute_forces(&run.sim.system, &run.sim.params)
            }));
        }
    }
    let stats = run.machine.total_stats().since(&stats0);
    let sim_cycles = (run.clock().0 - clock0.0) as f64 / PS_PER_CORE_CYCLE as f64;
    let step_cycles: Vec<f64> = steps
        .iter()
        .map(|s| s.app_step.0 as f64 / PS_PER_CORE_CYCLE as f64)
        .collect();
    report.check(
        "particle caches stay synchronized on every link",
        catch_unwind(AssertUnwindSafe(|| {
            run.machine.assert_pcaches_synchronized()
        }))
        .is_ok(),
    );
    report.check(
        "per-ByteKind bytes cover every wire byte",
        stats.kinds_conserve_wire(),
    );
    report.check(
        "compression removes wire bytes",
        stats.wire_bytes > 0 && stats.wire_bytes < stats.baseline_bytes,
    );
    report.check(
        "steps advance the simulated clock by their application time",
        (step_cycles.iter().sum::<f64>() - sim_cycles).abs() < 1e-6 * sim_cycles,
    );
    let pcache_hit_rate = run.machine.pcache_hit_rate().unwrap_or(0.0);
    report.check("the particle cache is on and hits", pcache_hit_rate > 0.0);
    Outcome {
        setup_s,
        step_s,
        warmup_s,
        signature: format!("{steps:?} {stats:?} {pcache_hit_rate}"),
        step_cycles,
        sim_cycles,
        wire_flits: stats.wire_bytes as f64 / FLIT_BYTES as f64,
        nodes: case.dims.iter().map(|&d| d as usize).product(),
        wire_reduction: stats.reduction(),
        pcache_hit_rate,
    }
}

pub fn measure(case: &MdStepCase, seconds: f64) -> Report {
    let mut report = Report::new(false);
    let outs = repeat(seconds, || run_once(case, false, &mut report));
    let first = &outs[0];
    report.check(
        "every repeat of the seed gives the same simulated statistics",
        outs.iter().all(|o| o.signature == first.signature),
    );
    report.attempted = outs.iter().map(|o| o.step_cycles.len() as u64).sum();
    // Per measured step: the median over every step of the run.
    let rate: Vec<f64> = outs
        .iter()
        .flat_map(|o| o.step_cycles.iter().zip(&o.step_s).map(|(c, s)| c / s))
        .collect();
    println!("simulated cycles per host second, per step: {rate:.0?}");
    report.set("sim_cycles_per_s", median(&rate));
    report.set(
        "setup_s",
        median(&outs.iter().map(|o| o.setup_s).collect::<Vec<_>>()),
    );
    report.set("peak_rss_mb", peak_rss_mb());
    let mut steps = first.step_cycles.clone();
    steps.sort_by(f64::total_cmp);
    report.set("sim_latency_p50_cycles", order_stat(&steps, 0.50));
    report.set("sim_latency_p99_cycles", order_stat(&steps, 0.99));
    report.set(
        "delivered_flits_per_node_cycle",
        first.wire_flits / (first.nodes as f64 * first.sim_cycles),
    );
    let mean_cycles = first.sim_cycles / first.step_cycles.len() as f64;
    report.set(
        "sim_mean_latency_ns",
        mean_cycles * PS_PER_CORE_CYCLE as f64 / 1000.0,
    );
    println!(
        "{} repeats of {} measured steps; wire reduction {:.3}, pcache hit rate {:.3}",
        outs.len(),
        first.step_cycles.len(),
        first.wire_reduction,
        first.pcache_hit_rate
    );
    report
}

pub fn traced(case: &MdStepCase, name: &str, seed: u64) -> Report {
    let mut report = Report::new(true);
    let base = run_once(case, false, &mut report);
    trace::start();
    let out = run_once(case, true, &mut report);
    let paths = trace::by_path(trace::stop().spans());
    report.check(
        "the traced run gives the untraced run's simulated statistics",
        out.signature == base.signature,
    );
    report.attempted = out.step_cycles.len() as u64;
    let get = |path: &str| paths.get(path).copied().unwrap_or_default();
    let (setup, warm, step, force) = (
        get("md.setup"),
        get("machine.mdrun.warmup_step"),
        get("machine.mdrun.step"),
        get("md.force"),
    );
    let per_call = |t: trace::Totals| t.total_s / t.calls.max(1) as f64;
    let (step_s, force) = (per_call(step), per_call(force));
    report.set("md.setup_s", setup.total_s);
    report.set("md.force_s", force);
    report.set("machine.mdrun.step_s", step_s);
    report.set("machine.mdrun.network_s", step_s - force);
    report.set("compress.wire_reduction", out.wire_reduction);
    report.set("compress.pcache_hit_rate", out.pcache_hit_rate);
    report.set(
        "trace.overhead_ratio",
        (setup.total_s + warm.total_s + step.total_s)
            / (base.setup_s + base.warmup_s + base.step_s.iter().sum::<f64>()),
    );
    write_trace(name, seed, &paths);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MdStepCase {
        MdStepCase {
            atoms: 3_000,
            warmup: 1,
            measure: 2,
            ..MdStepCase::new(3)
        }
    }

    #[test]
    fn tiny_run_passes_every_check_and_report_every_metric() {
        let r = measure(&tiny(), 0.0);
        assert!(r.correct(), "{:?}", r.failures());
        assert!(r.attempted >= 4 && r.failed == 0);
        r.json();
        let t = traced(&tiny(), "test-md_step", 3);
        assert!(t.correct(), "{:?}", t.failures());
        t.json();
    }

    #[test]
    fn repeats_of_one_seed_agree_and_other_seeds_differ() {
        let mut r = Report::new(false);
        let a = run_once(&tiny(), false, &mut r);
        let b = run_once(&tiny(), false, &mut r);
        let other = MdStepCase {
            water_seed: 4,
            ..tiny()
        };
        let c = run_once(&other, false, &mut r);
        assert!(r.correct(), "{:?}", r.failures());
        assert_eq!(a.signature, b.signature);
        assert_ne!(a.signature, c.signature);
    }
}
