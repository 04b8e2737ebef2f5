//! Million-node smoke test: one n = 1 000 000 gathering run and one
//! lossy/ARQ run end to end, with a **peak-RSS ceiling** proving the
//! memory story — per-node state is a handful of flat arrays, every
//! aggregated round re-derives its ~3×10⁸ hop charges from O(N)
//! per-position columns instead of recording them, and observation
//! goes through the O(active) [`RingRecorder`], not an O(N) ledger. `#[ignore]`d by default; CI
//! runs it as `cargo test --release -- --ignored scale_smoke`. (Own
//! binary so nothing else inflates the RSS high-water mark.)

use ami_net::{
    agg_engaged_count, agg_fallback_count, reset_agg_counters, GatherSession, LossyConfig,
    LossySession, NetworkConfig, RoutingStrategy, Topology,
};
use ami_sim::fault::FaultSchedule;
use ami_sim::obs::RingRecorder;
use ami_units::Length;
use std::time::{Duration, Instant};

/// Peak resident-set size of this process in kibibytes, from
/// `/proc/self/status` (`VmHWM`). Linux-specific, like CI.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    line.split_whitespace()
        .nth(1)
        .expect("VmHWM value")
        .parse()
        .expect("VmHWM parses")
}

#[test]
#[ignore = "city-scale smoke: run with `cargo test --release -- --ignored scale_smoke`"]
fn scale_smoke_million_nodes_gather_and_lossy_bounded_memory() {
    if cfg!(debug_assertions) {
        eprintln!("scale_smoke_million: skipped (needs the release profile; rerun with --release)");
        return;
    }
    const N: usize = 1_000_000;
    let wall = Instant::now();

    // The bench layout scaled up: constant density (25·√n metre field
    // side), sink at the centre.
    let side = Length::from_meters(25.0 * (N as f64).sqrt());
    let topo = Topology::random(N, side, 2003);
    let config = NetworkConfig::sensor_default();

    // Gathering: two aggregated rounds through the bounded residual
    // sink. Every healthy round must take the aggregated path, and
    // every sensor's residual must fold into the ring's running stats
    // while the ring itself retains only its fixed-capacity tail.
    reset_agg_counters();
    let mut sink = RingRecorder::with_capacity(1024);
    let mut session = GatherSession::new(&topo, RoutingStrategy::MinimumEnergy, &config);
    let report = session.run_faulted_with(2, &FaultSchedule::empty(), &mut sink);
    assert!(report.delivered_packets > 0, "the megacity must deliver");
    assert_eq!(report.first_death_round, None, "two rounds cannot exhaust");
    assert_eq!(agg_engaged_count(), 2, "both rounds aggregate");
    assert_eq!(agg_fallback_count(), 0, "healthy rounds never fall back");
    let stats = sink.stats();
    assert_eq!(
        stats.count,
        (N - 1) as u64,
        "every sensor reports a residual"
    );
    assert_eq!(stats.overdrawn, 0, "no overdraft in two rounds");
    assert!(stats.min > 0.0, "all residuals stay positive");
    assert_eq!(
        sink.recent().count(),
        1024,
        "the ring holds only its capacity"
    );
    assert_eq!(
        sink.packets.delivered, report.delivered_packets,
        "ring counters agree with the report"
    );

    // Lossy/ARQ: one counter-RNG round at the same scale.
    let lossy = LossyConfig::bruised_channel();
    let mut lossy_session = LossySession::new(&topo, &lossy);
    let lossy_report = lossy_session.run(1, 2003);
    assert!(
        lossy_report.delivered > 0,
        "the lossy megacity must deliver"
    );
    assert!(
        lossy_report.delivered < lossy_report.offered,
        "BER 1e-3 must cost packets at this depth"
    );

    // The memory ceiling. Flat per-node state (topology, CSR adjacency,
    // routes, budgets, scratch) totals ~300 MiB measured at n=10⁶, and
    // the observer adds O(1024). 768 MiB is ~2.5× that high-water mark:
    // a recording of the round's hop charges (~2.4 GiB at this hop
    // volume) or any new O(N)-per-round allocation blows it immediately.
    let peak = peak_rss_kib();
    assert!(
        peak < 768 * 1024,
        "peak RSS {peak} KiB exceeds the 768 MiB ceiling"
    );

    let elapsed = wall.elapsed();
    assert!(
        elapsed < Duration::from_secs(300),
        "million-node smoke exceeded its wall-clock budget: {elapsed:?}"
    );
    eprintln!(
        "scale_smoke_million: peak RSS {:.1} MiB, wall {elapsed:?}",
        peak as f64 / 1024.0
    );
}
