//! What one episode reports: the end-to-end quantities, the per-layer
//! split of a traced episode, and the line format an episode process uses
//! to hand them to the parent.

use std::fmt::Write as _;

use crate::run::{EngineOutcome, Layers};

/// Every engine slug that has per-layer `core.*` metrics; a workload
/// reports zeros for the engines it does not run.
const ENGINE_SLUGS: [&str; 5] = ["no_fusion", "ksm", "wpf", "vusion", "vusion_thp"];

/// A named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub note: String,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit: unit.to_string(),
        note: String::new(),
    }
}

/// One episode, summed over its engines.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    pub wall_ns: u64,
    pub setup_ns: u64,
    /// Guest accesses completed plus scanner page visits.
    pub sim_ops: u64,
    pub saved_pages: u64,
    /// Percentiles of the simulated access latency, pooled over engines.
    pub p50: f64,
    pub p99: f64,
    pub samples: u64,
    /// Digest of every simulated output (final metrics and every latency
    /// sample): episodes of one seed must agree on it.
    pub signature: u64,
    pub checked: u64,
    pub failures: u64,
    /// `VmHWM` of the episode process.
    pub rss_mib: f64,
    pub messages: Vec<String>,
    /// Per-layer metrics (traced episodes only).
    pub layers: Vec<Metric>,
}

impl Summary {
    pub fn of(ep: &[EngineOutcome]) -> Self {
        let mut lat: Vec<u32> = ep.iter().flat_map(|e| e.lat.iter().copied()).collect();
        lat.sort_unstable();
        let mut sig = Fnv::default();
        for e in ep {
            sig.eat(e.final_json.as_bytes());
            for &l in &e.lat {
                sig.eat(&l.to_le_bytes());
            }
        }
        let traced = ep.iter().all(|e| e.layers.is_some());
        Self {
            wall_ns: ep.iter().map(|e| e.wall_ns).sum(),
            setup_ns: ep.iter().map(|e| e.setup_ns).sum(),
            sim_ops: ep.iter().map(|e| e.sim_ops).sum(),
            saved_pages: ep.iter().map(|e| e.saved_pages).sum(),
            p50: percentile(&lat, 50.0),
            p99: percentile(&lat, 99.0),
            samples: lat.len() as u64,
            signature: sig.0,
            checked: ep.iter().map(|e| e.checked).sum(),
            failures: ep.iter().map(|e| e.failures).sum(),
            rss_mib: peak_rss_mib(),
            messages: ep
                .iter()
                .filter_map(|e| {
                    let f = e.first_failure.as_ref()?;
                    Some(format!("{}: {f}", e.kind.slug()))
                })
                .collect(),
            layers: if traced {
                layer_metrics(ep)
            } else {
                Vec::new()
            },
        }
    }

    /// The line format: `key value`, `fail message`, `layer name unit value`.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in [
            ("wall_ns", self.wall_ns as f64),
            ("setup_ns", self.setup_ns as f64),
            ("sim_ops", self.sim_ops as f64),
            ("saved_pages", self.saved_pages as f64),
            ("p50", self.p50),
            ("p99", self.p99),
            ("samples", self.samples as f64),
            ("checked", self.checked as f64),
            ("failures", self.failures as f64),
            ("rss_mib", self.rss_mib),
        ] {
            let _ = writeln!(out, "{k} {v:?}");
        }
        let _ = writeln!(out, "signature {}", self.signature);
        for m in &self.messages {
            let _ = writeln!(out, "fail {}", m.replace('\n', " "));
        }
        for m in &self.layers {
            let _ = writeln!(out, "layer {} {} {:?}", m.name, m.unit, m.value);
        }
        out
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let mut s = Summary::default();
        for line in text.lines() {
            let (k, v) = line.split_once(' ').ok_or(format!("bad line {line:?}"))?;
            let num = |v: &str| v.parse::<f64>().map_err(|e| format!("{line:?}: {e}"));
            match k {
                "wall_ns" => s.wall_ns = num(v)? as u64,
                "setup_ns" => s.setup_ns = num(v)? as u64,
                "sim_ops" => s.sim_ops = num(v)? as u64,
                "saved_pages" => s.saved_pages = num(v)? as u64,
                "p50" => s.p50 = num(v)?,
                "p99" => s.p99 = num(v)?,
                "samples" => s.samples = num(v)? as u64,
                "checked" => s.checked = num(v)? as u64,
                "failures" => s.failures = num(v)? as u64,
                "rss_mib" => s.rss_mib = num(v)?,
                "signature" => s.signature = v.parse().map_err(|e| format!("{line:?}: {e}"))?,
                "fail" => s.messages.push(v.to_string()),
                "layer" => {
                    let mut it = v.split(' ');
                    match (it.next(), it.next(), it.next()) {
                        (Some(name), Some(unit), Some(value)) => {
                            s.layers.push(metric(name, num(value)?, unit))
                        }
                        _ => return Err(format!("bad layer line {line:?}")),
                    }
                }
                _ => return Err(format!("unknown key in {line:?}")),
            }
        }
        Ok(s)
    }
}

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Linear-interpolated percentile of sorted samples.
fn percentile(sorted: &[u32], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] as f64 + (sorted[hi] as f64 - sorted[lo] as f64) * frac
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The per-layer split of one traced episode: host times of the spans and
/// probes, and the measured phase's counters.
fn layer_metrics(ep: &[EngineOutcome]) -> Vec<Metric> {
    // A per-engine host quantity, summed over the engines `keep` selects.
    let host = |keep: &dyn Fn(&EngineOutcome) -> bool, f: fn(&Layers) -> u64| -> f64 {
        ep.iter()
            .filter(|e| keep(e))
            .filter_map(|e| e.layers.as_ref().map(f))
            .sum::<u64>() as f64
    };
    let all = |_: &EngineOutcome| true;
    // Mean of a per-unit probe cost over the engines that measured it.
    let probe = |f: fn(&Layers) -> f64| -> f64 {
        let v: Vec<f64> = ep
            .iter()
            .filter_map(|e| e.layers.as_ref().map(f))
            .filter(|&x| x > 0.0)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let count = |name: &str| -> f64 { ep.iter().map(|e| e.count(name)).sum::<u64>() as f64 };
    let gauge = |name: &str| -> f64 {
        ep.iter()
            .map(|e| e.delta.gauges.get(name).copied().unwrap_or(0) as f64)
            .sum()
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let ms = |ns: f64| ns / 1e6;

    let accesses = ep.iter().map(|e| e.lat.len()).sum::<usize>() as f64;
    let wall = ep.iter().map(|e| e.wall_ns).sum::<u64>() as f64;
    let attributed = host(&all, |l| {
        l.driver_self_ns
            + l.access_self_ns
            + l.background_self_ns
            + l.scan_ns
            + l.fault_ns
            + l.collapse_ns
    });
    let faults = count("system.policy_faults") + count("system.kernel_faults");
    let hits = count("tlb.hits");
    let misses = count("tlb.misses");
    let llc_hits = count("llc.hits");
    let llc_misses = count("llc.misses");
    let checked: u64 = ep.iter().map(|e| e.checked).sum();
    let failures: u64 = ep.iter().map(|e| e.failures).sum();

    let mut out = vec![
        metric(
            "workloads.driver_self_ms",
            ms(host(&all, |l| l.driver_self_ns)),
            "ms",
        ),
        metric("workloads.latency_samples", accesses, "count"),
        metric(
            "workloads.fail_ratio",
            ratio(failures as f64, checked as f64),
            "fraction",
        ),
        metric("kernel.access_ms", ms(host(&all, |l| l.access_ns)), "ms"),
        metric(
            "kernel.access_self_ms",
            ms(host(&all, |l| l.access_self_ns)),
            "ms",
        ),
        metric(
            "kernel.ns_per_access",
            ratio(host(&all, |l| l.access_ns), accesses),
            "ns",
        ),
        metric(
            "kernel.background_self_ms",
            ms(host(&all, |l| l.background_self_ns)),
            "ms",
        ),
        metric("kernel.faults", faults, "count"),
        metric(
            "kernel.policy_faults",
            count("system.policy_faults"),
            "count",
        ),
        metric("kernel.cow_copies", count("machine.cow_copies"), "count"),
        metric("kernel.demand_zero", count("machine.demand_zero"), "count"),
        metric("kernel.scan_wakeups", count("system.scan_wakeups"), "count"),
        metric(
            "kernel.faults_per_kaccess",
            ratio(faults * 1000.0, accesses),
            "1/kop",
        ),
    ];
    for slug in ENGINE_SLUGS {
        let on = |e: &EngineOutcome| e.kind.slug() == slug;
        let c = |name: &str| -> f64 {
            ep.iter()
                .filter(|e| on(e))
                .map(|e| e.count(name))
                .sum::<u64>() as f64
        };
        // KSM and VUsion count a clean skip as a scanned page; WPF's fast
        // path skips its candidates without counting them scanned.
        let skipped = c("scan.pages_skipped_clean");
        let visits = if slug == "wpf" {
            c("scan.pages_scanned") + skipped
        } else {
            c("scan.pages_scanned")
        };
        let merged = c("scan.pages_merged") + c("scan.pages_fake_merged");
        let scan_ns = host(&on, |l| l.scan_ns);
        let p = |m: &str| format!("core.{slug}.{m}");
        out.extend([
            metric(p("scan_ms"), ms(scan_ns), "ms"),
            metric(p("scan_calls"), host(&on, |l| l.scan_calls), "count"),
            metric(p("us_per_scan_visit"), ratio(scan_ns / 1e3, visits), "us"),
            metric(p("fault_ms"), ms(host(&on, |l| l.fault_ns)), "ms"),
            metric(p("fault_calls"), host(&on, |l| l.fault_calls), "count"),
            metric(p("collapse_ms"), ms(host(&on, |l| l.collapse_ns)), "ms"),
            metric(p("pages_scanned"), c("scan.pages_scanned"), "count"),
            metric(p("pages_merged"), c("scan.pages_merged"), "count"),
            metric(p("pages_fake_merged"), c("scan.pages_fake_merged"), "count"),
            metric(p("pages_unmerged"), c("scan.pages_unmerged"), "count"),
            metric(p("pages_skipped_clean"), skipped, "count"),
            metric(p("merge_yield"), ratio(merged, visits), "fraction"),
            metric(p("clean_skip_ratio"), ratio(skipped, visits), "fraction"),
        ]);
    }
    out.extend([
        metric(
            "mem.content_hash_ns_per_page",
            probe(|l| l.hash_ns_per_page),
            "ns",
        ),
        metric(
            "mem.compare_ns_per_pair",
            probe(|l| l.compare_ns_per_pair),
            "ns",
        ),
        metric("mem.buddy_allocs", count("buddy.allocs"), "count"),
        metric(
            "mem.allocated_frames",
            gauge("mem.allocated_frames"),
            "count",
        ),
        metric("mmu.tlb_hit_ratio", ratio(hits, hits + misses), "fraction"),
        metric("mmu.tlb_misses", misses, "count"),
        metric("mmu.tlb_shootdowns", count("tlb.shootdowns"), "count"),
        metric("mmu.walk_ns", probe(|l| l.walk_ns), "ns"),
        metric(
            "cache.llc_miss_ratio",
            ratio(llc_misses, llc_hits + llc_misses),
            "fraction",
        ),
        metric("cache.llc_misses", llc_misses, "count"),
        metric("cache.access_ns", probe(|l| l.llc_access_ns), "ns"),
        metric("dram.access_ns", probe(|l| l.dram_access_ns), "ns"),
        metric(
            "snapshot.save_ms",
            ms(host(&all, |l| l.snapshot_save_ns)),
            "ms",
        ),
        metric("snapshot.bytes", host(&all, |l| l.snapshot_bytes), "bytes"),
        metric(
            "snapshot.restore_ms",
            ms(host(&all, |l| l.restore_ns)),
            "ms",
        ),
        metric("journal.events", host(&all, |l| l.journal_events), "count"),
        metric("journal.replay_ms", ms(host(&all, |l| l.replay_ns)), "ms"),
        metric(
            "trace.unattributed_pct",
            ratio(wall - attributed, wall) * 100.0,
            "%",
        ),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_survives_its_line_format() {
        let s = Summary {
            wall_ns: 123_456_789,
            setup_ns: 42,
            sim_ops: 7,
            saved_pages: 9,
            p50: 13.0,
            p99: 2457.21,
            samples: 2880,
            signature: u64::MAX - 3,
            checked: 100,
            failures: 1,
            rss_mib: 58.25,
            messages: vec!["ksm: guest 0 read 1, expected 2".into()],
            layers: vec![metric("core.ksm.scan_ms", 1.5, "ms")],
        };
        let t = Summary::parse(&s.to_text()).expect("parses");
        assert_eq!(t.to_text(), s.to_text());
    }
}
