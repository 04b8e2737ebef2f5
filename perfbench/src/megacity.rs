//! `megacity`: fresh-state gather and lossy rounds over a 3×10⁵-node
//! field on warm sessions, one thread.

use crate::gen::{megacity_inputs, megacity_topology, MegacityInputs, MEGACITY_NODES};
use crate::report::Output;
use crate::stats::{cpus, median, peak_rss_mib, tail_mean, Digest};
use crate::trace::Tracer;
use crate::{overhead_share, Counters, RunConfig};
use ami_net::{
    build_routes, GatherSession, LossyConfig, LossyReport, LossySession, NetworkConfig,
    NetworkReport, RoutingStrategy, Topology,
};
use std::time::Instant;

/// Timed megacity rounds run even when the window is shorter.
const MIN_ROUNDS: usize = 3;

/// What one set-up built, beyond the field itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Built {
    edges: usize,
    connected: u64,
}

/// One set-up: the field, its CSR adjacency and a route build; returns
/// the field, what was built and the seconds it took.
fn set_up(
    tracer: &mut Tracer,
    inputs: &MegacityInputs,
    net: &NetworkConfig,
    strategy: RoutingStrategy,
) -> (Topology, Built, f64) {
    let started = Instant::now();
    let topo = tracer.span("topology.build", |_| megacity_topology(inputs));
    let csr = tracer.span("csr.build", |_| topo.csr_within(net.max_hop));
    let routes = tracer.span("routing.build", |_| {
        build_routes(&topo, strategy, &net.radio, net.max_hop)
    });
    let seconds = started.elapsed().as_secs_f64();
    let built = Built {
        edges: csr.edge_count(),
        connected: routes.iter().filter(|r| r.is_some()).count() as u64,
    };
    (topo, built, seconds)
}

fn digest_reports(gather: &NetworkReport, lossy: &LossyReport) -> String {
    let mut d = Digest::default();
    d.u64(gather.delivered_packets);
    d.f64(gather.delivered_volume.as_bits());
    d.f64(gather.total_energy.as_joules());
    d.u64(gather.first_death_round.map_or(u64::MAX, |r| r));
    d.u64(gather.alive_nodes as u64);
    for r in &gather.residual_energy {
        d.f64(r.as_joules());
    }
    d.u64(lossy.offered);
    d.u64(lossy.delivered);
    d.u64(lossy.transmissions);
    d.u64(lossy.dropped_fault);
    d.f64(lossy.total_energy.as_joules());
    d.hex()
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> (Output, Tracer) {
    let mut out = Output::new("megacity", config.trace);
    let mut tracer = Tracer::new(config.trace);
    let inputs = megacity_inputs(config.seed);
    let net = NetworkConfig::sensor_default();
    let strategy = RoutingStrategy::MinimumEnergy;

    // The first set-up builds the field the sessions run on.
    let (topo, built, seconds) = set_up(&mut tracer, &inputs, &net, strategy);
    let mut setups = vec![seconds];

    // Untimed warm-up: each session's first run builds its routes and
    // sizes its scratch; its report is the reference every timed
    // fresh-state round must reproduce.
    let lossy_config = LossyConfig::bruised_channel();
    let before = Counters::read();
    let warm = Instant::now();
    let mut gather = GatherSession::new(&topo, strategy, &net);
    let mut lossy = LossySession::new(&topo, &lossy_config);
    let gather_ref = gather.run(1);
    let lossy_ref = lossy.run(1, inputs.channel_seed);
    let warmup_s = warm.elapsed().as_secs_f64();
    // Counts of the session runs only: the set-ups between rounds build
    // routes of their own.
    let mut counts = Counters::read() - before;

    let mut gather_s = Vec::new();
    let mut lossy_s = Vec::new();
    let mut traced_pairs = Vec::new();
    let mut untraced_pairs = Vec::new();
    let window = Instant::now();
    while gather_s.len() < MIN_ROUNDS || window.elapsed() < config.window {
        let k = gather_s.len();
        out.attempt(1);
        // In a traced run every other iteration goes untraced, which
        // prices the tracing itself.
        tracer.set_enabled(config.trace && k % 2 == 0);
        tracer.set_request(k as u64);
        // A fresh set-up of the same field before every round, timed
        // and dropped: set-ups and rounds sample the same stretch of the
        // run, so a slow spell of the host weighs on both alike.
        let (again, rebuilt, seconds) = set_up(&mut tracer, &inputs, &net, strategy);
        drop(again);
        setups.push(seconds);
        out.check(rebuilt == built, || {
            format!(
                "set-up {} built {rebuilt:?}, the first built {built:?}",
                k + 1
            )
        });
        let before = Counters::read();
        let t0 = Instant::now();
        let g = tracer.span("gather.round", |_| gather.run(1));
        let t1 = Instant::now();
        let l = tracer.span("lossy.round", |_| lossy.run(1, inputs.channel_seed));
        let t2 = Instant::now();
        counts += Counters::read() - before;
        gather_s.push((t1 - t0).as_secs_f64());
        lossy_s.push((t2 - t1).as_secs_f64());
        if tracer.enabled() {
            traced_pairs.push((t2 - t0).as_secs_f64());
        } else {
            untraced_pairs.push((t2 - t0).as_secs_f64());
        }
        out.check(g == gather_ref && l == lossy_ref, || {
            format!("megacity round {k} differs from the warm-up round")
        });
    }
    tracer.set_enabled(config.trace);
    let rounds = gather_s.len() as u64;
    let session_rounds = 2 * (rounds + 1);
    let engaged = counts.agg_engaged;
    let fallback = counts.agg_fallback;

    // Output checks, outside the timed window.
    out.check(fallback == 0, || {
        format!("{fallback} gather rounds fell back to the hop walk")
    });
    let connected = built.connected;
    out.check(gather_ref.delivered_packets == connected, || {
        format!(
            "gather round delivered {} of {connected} connected sensors",
            gather_ref.delivered_packets
        )
    });
    // Channel drops are not reported separately (they are what offered
    // leaves after delivered and fault drops), so no sum can be checked
    // here; the guards are these bounds, the equality of every round
    // with the warm-up one and the digest.
    out.check(
        lossy_ref.offered == connected
            && lossy_ref.dropped_fault == 0
            && lossy_ref.delivered > 0
            && lossy_ref.delivered <= lossy_ref.offered,
        || {
            format!(
                "lossy counts out of bounds: offered {} delivered {} fault drops {} connected {connected}",
                lossy_ref.offered, lossy_ref.delivered, lossy_ref.dropped_fault
            )
        },
    );

    let pairs: Vec<f64> = gather_s.iter().zip(&lossy_s).map(|(g, l)| g + l).collect();
    let setup_s = median(&setups).expect("set-up ran");
    let engaged_share = engaged as f64 / (engaged + fallback).max(1) as f64;
    let repairs = counts.route_repairs;
    out.note("seed", config.seed);
    out.note("cpus", cpus());
    out.note("threads", 1);
    out.note("connections", 0);
    out.note("nodes", MEGACITY_NODES);
    out.note(
        "rounds attempted",
        format!("{rounds} gather + {rounds} lossy"),
    );
    out.note("set-ups", setups.len());
    out.note("warm-up runs (untimed)", format!("{warmup_s} s"));
    out.note("agg.engaged_share", engaged_share);
    out.note("repairs per round", repairs as f64 / session_rounds as f64);
    out.note("digest", digest_reports(&gather_ref, &lossy_ref));
    out.named("setup_s", setup_s, "s");
    out.named(
        "gather_round_s",
        median(&gather_s).expect("rounds ran"),
        "s",
    );
    out.named("lossy_round_s", median(&lossy_s).expect("rounds ran"), "s");
    let rss = peak_rss_mib("self").unwrap_or(0.0);
    out.named("peak_rss_mib", rss, "MiB");

    out.end_to_end("setup_s", setup_s);
    out.end_to_end("op_p50_ms", 1e3 * median(&pairs).expect("rounds ran"));
    // A run holds only a handful of operations: its tail is the mean of
    // the slowest quarter.
    out.end_to_end(
        "op_tail_ms",
        1e3 * tail_mean(&pairs, 0.75).expect("operations ran"),
    );
    out.end_to_end("ops_per_s", pairs.len() as f64 / pairs.iter().sum::<f64>());
    out.end_to_end("peak_rss_mib", rss);

    if config.trace {
        let med = |name: &str| median(&tracer.durations(name)).unwrap_or(0.0);
        out.layer("topology.build_s", med("topology.build"));
        out.layer("csr.build_s", med("csr.build"));
        out.layer("csr.edges", built.edges as f64);
        out.layer("routing.build_s", med("routing.build"));
        out.layer("routing.builds", counts.route_builds as f64);
        out.layer("routing.repairs", repairs as f64);
        out.layer(
            "routing.repairs_per_round",
            repairs as f64 / session_rounds as f64,
        );
        out.layer("gather.round_s", med("gather.round"));
        out.layer("gather.delivered", gather_ref.delivered_packets as f64);
        out.layer("agg.engaged", engaged as f64 / (rounds + 1) as f64);
        out.layer("agg.fallback", fallback as f64 / (rounds + 1) as f64);
        out.layer("agg.engaged_share", engaged_share);
        out.layer("lossy.round_s", med("lossy.round"));
        out.layer("lossy.offered", lossy_ref.offered as f64);
        out.layer("lossy.delivered", lossy_ref.delivered as f64);
        out.layer("lossy.transmissions", lossy_ref.transmissions as f64);
        out.layer(
            "lossy.tx_per_delivered",
            lossy_ref.transmissions as f64 / lossy_ref.delivered.max(1) as f64,
        );
        out.layer(
            "trace.overhead_share",
            overhead_share(&traced_pairs, &untraced_pairs),
        );
    }
    (out, tracer)
}
