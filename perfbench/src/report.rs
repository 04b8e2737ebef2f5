//! Metric catalogue and the run's output: human-readable lines first,
//! then one JSON object as the last line of standard output.

use std::collections::BTreeMap;

/// Whether a smaller or a larger value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One end-to-end metric: defined on every workload, measured with
/// tracing off.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

/// The end-to-end metrics. Each workload defines its timed operation:
/// a megacity round (one healthy gather round plus one lossy round), a
/// faulted city study, or one request frame to `ami_svcd`.
#[rustfmt::skip]
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower },
    EndToEnd { name: "op_p50_ms", unit: "ms", better: Better::Lower },
    EndToEnd { name: "op_tail_ms", unit: "ms", better: Better::Lower },
    EndToEnd { name: "ops_per_s", unit: "1/s", better: Better::Higher },
    EndToEnd { name: "peak_rss_mib", unit: "MiB", better: Better::Lower },
];

/// One per-layer metric, with the end-to-end metric it should move,
/// the workload it moves on and the workload where it should not.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name, `<layer>.<quantity>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// The module whose public calls are timed or counted.
    pub module: &'static str,
    /// End-to-end metric(s) it should move.
    pub moves: &'static str,
    /// Workload(s) where it should move.
    pub on: &'static str,
    /// Workload where it is predicted not to move.
    pub unchanged_on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    module: &'static str,
    moves: &'static str,
    on: &'static str,
    unchanged_on: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        module,
        moves,
        on,
        unchanged_on,
    }
}

use Better::{Higher, Lower};

const TOPO: &str = "ami_net::topology, ami_net::csr";
const ROUTING: &str = "ami_net::routing";
const GATHER: &str = "ami_net::gather, ami_net::agg";
const LOSSY: &str = "ami_net::lossy";
const PDES: &str = "ami_net::pdes";
const FAULT: &str = "ami_sim::fault";
const SPEC: &str = "ami_scenario::spec, ::json";
const CACHE: &str = "ami_scenario::cache";
const COMPILE: &str = "ami_scenario::compile";
const OBS: &str = "ami_sim::obs";
const SVC: &str = "ami_svc, ::proto, ::server";
const MEGA: &str = "megacity";
const CITY: &str = "city_faulted";
const MIX: &str = "svc_mix";
const MEGA_CITY: &str = "megacity; city_faulted";

/// The per-layer metrics, reported by every traced run. A layer that a
/// workload does not call reads 0.
#[rustfmt::skip]
pub const LAYERS: [Layer; 47] = [
    layer("topology.build_s", "s", Lower, TOPO, "setup_s", MEGA, MIX),
    layer("csr.build_s", "s", Lower, TOPO, "setup_s", MEGA, MIX),
    layer("csr.edges", "count", Lower, TOPO, "setup_s", MEGA, MIX),
    layer("routing.build_s", "s", Lower, ROUTING, "setup_s", MEGA, MIX),
    layer("routing.builds", "count", Lower, ROUTING, "setup_s; scenario_s", MEGA_CITY, MIX),
    layer("routing.repairs", "count", Lower, ROUTING, "setup_s; scenario_s", MEGA_CITY, MIX),
    layer("routing.repairs_per_round", "count", Lower, ROUTING, "scenario_s", MEGA_CITY, MIX),
    layer("gather.round_s", "s", Lower, GATHER, "gather_round_s; scenario_s", MEGA_CITY, MIX),
    layer("gather.delivered", "count", Higher, GATHER, "gather_round_s; scenario_s", MEGA_CITY, MIX),
    layer("agg.engaged", "count", Higher, GATHER, "gather_round_s; scenario_s", MEGA_CITY, MIX),
    layer("agg.fallback", "count", Lower, GATHER, "gather_round_s; scenario_s", MEGA_CITY, MIX),
    layer("agg.engaged_share", "share", Higher, GATHER, "gather_round_s; scenario_s", MEGA_CITY, MIX),
    layer("lossy.round_s", "s", Lower, LOSSY, "lossy_round_s", MEGA, MIX),
    layer("lossy.offered", "count", Higher, LOSSY, "lossy_round_s", MEGA, MIX),
    layer("lossy.delivered", "count", Higher, LOSSY, "lossy_round_s", MEGA, MIX),
    layer("lossy.transmissions", "count", Lower, LOSSY, "lossy_round_s", MEGA, MIX),
    layer("lossy.tx_per_delivered", "count", Lower, LOSSY, "lossy_round_s", MEGA, MIX),
    layer("pdes.engaged", "count", Higher, PDES, "scenario_s", CITY, MEGA),
    layer("pdes.serial_fallback", "count", Lower, PDES, "scenario_s", CITY, MEGA),
    layer("pdes.serial_run_s", "s", Lower, PDES, "scenario_s", CITY, MEGA),
    layer("pdes.speedup", "x", Higher, PDES, "scenario_s", CITY, MEGA),
    layer("fault.schedule_s", "s", Lower, FAULT, "setup_s", CITY, MEGA),
    layer("fault.timeline_s", "s", Lower, FAULT, "setup_s", CITY, MEGA),
    layer("fault.events", "count", Lower, FAULT, "setup_s", CITY, MEGA),
    layer("spec.parse_us", "us", Lower, SPEC, "svc_p50_ms", MIX, MEGA),
    layer("spec.hash_us", "us", Lower, SPEC, "svc_p50_ms", MIX, MEGA),
    layer("cache.lookup_us", "us", Lower, CACHE, "svc_p50_ms, svc_req_per_s", MIX, CITY),
    layer("cache.hits", "count", Higher, CACHE, "svc_p50_ms, svc_req_per_s", MIX, CITY),
    layer("cache.misses", "count", Lower, CACHE, "svc_p50_ms, svc_req_per_s", MIX, CITY),
    layer("cache.evictions", "count", Lower, CACHE, "svc_p50_ms, svc_req_per_s", MIX, CITY),
    layer("cache.hit_share", "share", Higher, CACHE, "svc_p50_ms, svc_req_per_s", MIX, CITY),
    layer("compile.us", "us", Lower, COMPILE, "svc_p99_ms, svc_req_per_s", MIX, MEGA),
    layer("compile.city_s", "s", Lower, COMPILE, "setup_s", CITY, MEGA),
    layer("execute.gathering_ms", "ms", Lower, COMPILE, "svc_p99_ms, svc_req_per_s", MIX, MEGA),
    layer("execute.replicated_ms", "ms", Lower, COMPILE, "svc_p99_ms, svc_req_per_s", MIX, MEGA),
    layer("execute.lossy_ms", "ms", Lower, COMPILE, "svc_p99_ms, svc_req_per_s", MIX, MEGA),
    layer("execute.cs1_ms", "ms", Lower, COMPILE, "svc_p99_ms, svc_req_per_s", MIX, MEGA),
    layer("execute.city_s", "s", Lower, COMPILE, "scenario_s", CITY, MEGA),
    layer("obs.render_us", "us", Lower, OBS, "svc_p50_ms", MIX, MEGA),
    layer("obs.manifest_bytes", "bytes", Lower, OBS, "svc_p50_ms", MIX, MEGA),
    layer("proto.decode_us", "us", Lower, SVC, "svc_p50_ms, svc_req_per_s", MIX, MEGA),
    layer("proto.encode_us", "us", Lower, SVC, "svc_p50_ms, svc_req_per_s", MIX, MEGA),
    layer("svc.submit_us", "us", Lower, SVC, "svc_p50_ms, svc_req_per_s", MIX, MEGA),
    layer("server.overhead_us", "us", Lower, SVC, "svc_p50_ms, svc_req_per_s", MIX, MEGA),
    layer("svc.executions_per_request", "count", Lower, SVC, "svc_req_per_s", MIX, MEGA),
    layer("svc.queue_depth_mean", "count", Lower, SVC, "svc_p50_ms", MIX, MEGA),
    layer("trace.overhead_share", "share", Lower, "perfbench::trace", "(none: tracing only)", "all", "all"),
];

/// Everything one workload run reports.
#[derive(Debug)]
pub struct Output {
    workload: &'static str,
    trace: bool,
    end_to_end: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    lines: Vec<String>,
}

impl Output {
    /// An empty report for `workload`.
    pub fn new(workload: &'static str, trace: bool) -> Self {
        Self {
            workload,
            trace,
            end_to_end: BTreeMap::new(),
            layers: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            lines: Vec::new(),
        }
    }

    /// Records an end-to-end metric.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`END_TO_END`].
    pub fn end_to_end(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.name == name),
            "unknown end-to-end metric {name}"
        );
        self.end_to_end.insert(name, value);
    }

    /// Records a per-layer metric.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`LAYERS`].
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYERS.iter().any(|m| m.name == name),
            "unknown per-layer metric {name}"
        );
        self.layers.insert(name, value);
    }

    /// Counts `n` operations attempted.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failed operation, with the reason.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        self.failures.push(reason);
    }

    /// Checks `ok`, counting a failed operation with `reason` if not.
    pub fn check(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        if !ok {
            self.fail(reason());
        }
    }

    /// Adds a human-readable `key: value` line.
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.lines.push(format!("{key}: {value}"));
    }

    /// Adds a metric line under the workload's own name for it (such
    /// as `gather_round_s`), printed before the JSON line.
    pub fn named(&mut self, name: &str, value: f64, unit: &str) {
        self.lines.push(format!("metric {name} = {value} {unit}"));
    }

    /// Prints the report; the JSON object is the last line.
    ///
    /// # Errors
    ///
    /// A message when an end-to-end metric is missing or not a finite
    /// positive number (no valid result can be printed then).
    pub fn print(&self) -> Result<(), String> {
        if self.attempted == 0 {
            return Err("no operation was attempted".to_owned());
        }
        let failed_share = self.failed as f64 / self.attempted as f64;
        let mut metrics = Vec::new();
        if self.trace {
            for m in &LAYERS {
                let value = self.layers.get(m.name).copied().unwrap_or(0.0);
                if !value.is_finite() {
                    return Err(format!("per-layer metric {} is {value}", m.name));
                }
                metrics.push((m.name, value, m.unit));
            }
        } else {
            for m in &END_TO_END {
                let value = *self
                    .end_to_end
                    .get(m.name)
                    .ok_or_else(|| format!("end-to-end metric {} was not measured", m.name))?;
                if !(value.is_finite() && value > 0.0) {
                    return Err(format!("end-to-end metric {} is {value}", m.name));
                }
                metrics.push((m.name, value, m.unit));
            }
        }
        println!("workload: {}", self.workload);
        for line in &self.lines {
            println!("{line}");
        }
        if self.trace {
            for m in &LAYERS {
                let shown = match self.layers.get(m.name) {
                    Some(v) => format!("{v} {}", m.unit),
                    None => "0 (layer not called on this workload)".to_owned(),
                };
                println!(
                    "layer {:<28} {:<40} [{}] moves {} on {} (unchanged on {})",
                    m.name, shown, m.module, m.moves, m.on, m.unchanged_on
                );
            }
        }
        println!("metric failed_share = {failed_share} share");
        for reason in &self.failures {
            println!("FAILED: {reason}");
        }
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#)
            })
            .collect();
        println!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.failed == 0,
            self.attempted,
            self.failed,
            body.join(", ")
        );
        Ok(())
    }
}
