//! Quickstart: build a small Anton 3 machine, send a counted write across
//! it, synchronize with a blocking read, print where the nanoseconds
//! went — then drive the cycle-level torus fabric through the unified
//! `PacketSpec` injection API and read back its typed wire-byte
//! counters.
//!
//! Run with: `cargo run --release --example quickstart`

use anton3::mem::{CountedSram, QuadAddr, ReadOutcome};
use anton3::model::topology::NodeId;
use anton3::model::MachineConfig;
use anton3::net::adapter::Compression;
use anton3::net::channel::{ByteKind, LinkStats};
use anton3::net::chip::ChipLoc;
use anton3::net::fabric3d::{FabricParams, PacketSpec, TorusFabric, SLICES};
use anton3::net::{path, routing};
use anton3::sim::rng::SplitMix64;

fn main() {
    // An 8-node machine (2x2x2 torus), production configuration.
    let cfg = MachineConfig::torus([2, 2, 2]);
    println!("machine: {} ({} nodes)", cfg.torus, cfg.node_count());

    // --- counted-write / blocking-read synchronization (paper §III-A) ---
    // The receiver arms a blocking read expecting two force contributions.
    let mut sram = CountedSram::gc_block();
    let quad = QuadAddr(0x40);
    assert!(matches!(
        sram.blocking_read(quad, 2, 1),
        ReadOutcome::Pending
    ));
    sram.counted_accumulate(quad, [10, 0, 0, 0]);
    let woken = sram.counted_accumulate(quad, [32, 0, 0, 0]);
    println!(
        "blocking read unblocked by write: waiters {woken:?}, quad = {:?}",
        sram.read(quad)
    );

    // --- an end-to-end message between neighboring nodes (§III-C) -------
    let mut rng = SplitMix64::new(7);
    let src = cfg.torus.coord(NodeId(0));
    let dst = cfg.torus.coord(NodeId(1));
    let plan = routing::plan_request(&cfg.torus, src, dst, &mut rng);
    let breakdown = path::one_way(
        &cfg.latency,
        Compression {
            inz: cfg.inz_enabled,
            pcache: cfg.pcache_enabled,
        },
        ChipLoc::gc(2, 3, 0),
        ChipLoc::gc(20, 8, 1),
        &plan,
        4, // one quad of payload
    );
    println!(
        "\ncounted write {} -> {} ({} hop(s), order {}):",
        NodeId(0),
        NodeId(1),
        plan.hop_count(),
        plan.order
    );
    for seg in &breakdown.segments {
        println!("  {:<44} {:>7.2} ns", seg.name, seg.time.as_ns());
    }
    println!(
        "  {:<44} {:>7.2} ns",
        "TOTAL one-way",
        breakdown.total().as_ns()
    );
    println!("\n(the paper's 128-node machine measures 55.9 ns + 34.2 ns/hop)");

    // --- the same machine at cycle granularity (§III-B) -----------------
    // One injection endpoint drives both traffic classes: a PacketSpec
    // carries the destination, class, channel-slice/VC/dimension-order
    // draw, and ByteKind-typed payload; inject() returns the exact
    // route the fabric will walk.
    let params = FabricParams::calibrated(&cfg.latency);
    let mut fabric = TorusFabric::new(cfg.torus, params);
    let spec = PacketSpec::request(NodeId(0), NodeId(7), 1, 2)
        .with_kind(ByteKind::Position)
        .drawn(&mut rng);
    let injected_at = fabric.cycle();
    let fabric_plan = fabric.inject(spec).expect("empty fabric has credits");
    assert!(fabric.run_until_drained(100_000));
    let latency = fabric.delivered()[0].0 - injected_at;
    println!(
        "\ncycle fabric: position packet {} -> {} took {} hops on slice {}, \
         head latency {} cycles ({:.1} ns/hop vs {:.1} analytic)",
        NodeId(0),
        NodeId(7),
        fabric_plan.hop_count(),
        spec.slice,
        latency,
        (latency - params.router_cycles) as f64 / fabric_plan.hop_count() as f64
            * params.per_hop_time().as_ns()
            / params.per_hop_cycles() as f64,
        params.per_hop_time().as_ns(),
    );
    // Every link counter types its wire bytes (Figure 9a categories).
    let mut wire = LinkStats::default();
    for slice in 0..SLICES {
        wire.merge(&fabric.slice_stats(slice));
    }
    println!(
        "link counters: {} position bytes, {} force, {} other ({} packets per link crossed)",
        wire.position_bytes, wire.force_bytes, wire.other_bytes, wire.packets
    );
}
