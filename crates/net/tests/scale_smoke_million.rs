//! Million-node smoke test: one n = 1 000 000 gathering run and one
//! lossy/ARQ run end to end, with a **peak-RSS ceiling** proving the
//! memory story — per-node state is a handful of flat arrays, every
//! aggregated round re-derives its ~3×10⁸ hop charges from O(N)
//! per-position columns instead of recording them, and observation
//! goes through a [`LedgerRecorder`], whose ledger is one more O(N)
//! table. `#[ignore]`d by default; CI runs it as
//! `cargo test --release -- --ignored scale_smoke`. (Own binary so
//! nothing else inflates the RSS high-water mark.)

use ami_net::{
    agg_engaged_count, agg_fallback_count, reset_agg_counters, GatherSession, LossyConfig,
    LossySession, NetworkConfig, RoutingStrategy, Topology,
};
use ami_sim::fault::FaultSchedule;
use ami_sim::obs::LedgerRecorder;
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

    // Gathering: two aggregated rounds into a ledger. Every healthy
    // round must take the aggregated path, and every sensor's residual
    // must reach the ledger (an unrecorded one reads 0).
    reset_agg_counters();
    let mut observed = LedgerRecorder::with_nodes(N);
    let mut session = GatherSession::new(&topo, RoutingStrategy::MinimumEnergy, &config);
    let report = session.run_faulted_with(2, &FaultSchedule::empty(), &mut observed);
    assert!(report.delivered_packets > 0, "the megacity must deliver");
    assert_eq!(report.first_death_round, None, "two rounds cannot exhaust");
    assert_eq!(agg_engaged_count(), 2, "both rounds aggregate");
    assert_eq!(agg_fallback_count(), 0, "healthy rounds never fall back");
    let residuals = observed.ledger.residuals();
    assert!(
        topo.sensor_ids().all(|id| residuals[id.0] > 0.0),
        "every sensor's residual is recorded and positive"
    );
    assert_eq!(
        observed.ledger.overdraft().as_joules(),
        0.0,
        "no overdraft in two rounds"
    );
    assert_eq!(
        observed.packets.delivered, report.delivered_packets,
        "ledger counters agree with the report"
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
    // routes, budgets, scratch, the ledger) totals ~310 MiB measured at
    // n=10⁶. 768 MiB is ~2.5× that high-water mark:
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
