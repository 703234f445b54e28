//! Episodes: each engine of a workload set up from scratch, measured, and
//! checked. An untraced episode runs the system exactly as
//! `EngineKind::build_system` builds it; a traced one runs the hand-built
//! equivalent with the timing wrapper, journals its measured phase and
//! proves the journal replays to the same state.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use vusion_core::{default_pool_frames, EngineKind};
use vusion_kernel::{FusionPolicy, Khugepaged, Machine, MachineConfig, MetricsSnapshot, System};
use vusion_mem::{content_hash, FrameId, FrameState, PhysAddr, VirtAddr};

use crate::driver::Driver;
use crate::oracle::Oracle;
use crate::spans::{Kind, SharedLog, SpanLog, Timed};
use crate::workload::{Sizes, Workload};

/// The scan period `EngineKind::build_system` uses (KSM's `T = 20 ms`).
const SCAN_PERIOD_NS: u64 = 20_000_000;

/// Builds `kind`'s system by hand, the way `EngineKind::build_system`
/// does, with the policy inside the timing wrapper.
pub fn hand_built(
    kind: EngineKind,
    base: MachineConfig,
    log: SharedLog,
    engine: u8,
) -> System<Timed> {
    let cfg = kind.adapt_machine(base);
    let mut m = Machine::new(cfg);
    let pool = default_pool_frames(cfg.frames);
    let inner = kind
        .build_policy(&mut m, SCAN_PERIOD_NS, pool)
        .expect("adapted fresh machine builds every engine");
    let sys = System::new(m, Timed::new(inner, engine, log));
    if kind == EngineKind::VUsionThp {
        sys.with_khugepaged(Khugepaged::new().with_min_active(1))
    } else {
        sys
    }
}

/// Host-time split of one engine's traced measured phase.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub driver_self_ns: u64,
    pub access_ns: u64,
    pub access_self_ns: u64,
    pub background_self_ns: u64,
    pub scan_ns: u64,
    pub scan_calls: u64,
    pub fault_ns: u64,
    pub fault_calls: u64,
    pub collapse_ns: u64,
    pub snapshot_save_ns: u64,
    pub snapshot_bytes: u64,
    pub restore_ns: u64,
    pub journal_events: u64,
    pub replay_ns: u64,
    pub hash_ns_per_page: f64,
    pub compare_ns_per_pair: f64,
    pub walk_ns: f64,
    pub llc_access_ns: f64,
    pub dram_access_ns: f64,
    /// The raw spans, as CSV.
    pub spans_csv: String,
}

/// One engine's run within an episode.
#[derive(Debug, Clone)]
pub struct EngineOutcome {
    pub kind: EngineKind,
    pub setup_ns: u64,
    pub wall_ns: u64,
    /// Simulated latency of every measured driver access.
    pub lat: Vec<u32>,
    /// Guest accesses completed plus scanner page visits.
    pub sim_ops: u64,
    pub saved_pages: u64,
    /// `metrics_snapshot()` at the end of the measured phase.
    pub final_json: String,
    /// The measured phase's counter deltas.
    pub delta: MetricsSnapshot,
    pub checked: u64,
    pub failures: u64,
    pub first_failure: Option<String>,
    pub layers: Option<Layers>,
}

impl EngineOutcome {
    /// A counter of the measured phase.
    pub fn count(&self, name: &str) -> u64 {
        self.delta.counters.get(name).copied().unwrap_or(0)
    }
}

/// How an episode runs.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    /// Hand-built systems with spans, snapshot, journal and replay.
    pub traced: bool,
    /// Sweep every page and audit the frames after measuring.
    pub gate: bool,
}

/// Runs every engine of `w` once.
pub fn episode(
    w: Workload,
    seed: u64,
    sizes: Sizes,
    oracle: &Oracle,
    mode: Mode,
) -> Vec<EngineOutcome> {
    let base = w.machine(seed);
    w.engines()
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            if mode.traced {
                let log: SharedLog = Rc::new(RefCell::new(SpanLog::default()));
                let build = || hand_built(kind, base, log.clone(), i as u8);
                run_engine(
                    w,
                    kind,
                    i as u8,
                    seed,
                    sizes,
                    oracle,
                    build,
                    Some(log.clone()),
                    mode,
                )
            } else {
                let build = || kind.build_system(base);
                run_engine(w, kind, i as u8, seed, sizes, oracle, build, None, mode)
            }
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn run_engine<P: FusionPolicy>(
    w: Workload,
    kind: EngineKind,
    engine: u8,
    seed: u64,
    sizes: Sizes,
    oracle: &Oracle,
    build: impl FnOnce() -> System<P>,
    log: Option<SharedLog>,
    mode: Mode,
) -> EngineOutcome {
    let oracle = oracle.clone();
    let t0 = Instant::now();
    let mut d = Driver::new(build(), oracle, log.clone(), engine);
    w.setup(&mut d, seed, sizes);
    let setup_ns = t0.elapsed().as_nanos() as u64;
    if let Err(e) = d.oracle.check_layout(&d.sys.machine) {
        d.fail(|| e);
    }

    let mut layers = Layers::default();
    let snapshot = log.as_ref().map(|_| {
        let t = Instant::now();
        let blob = d.sys.snapshot();
        layers.snapshot_save_ns = t.elapsed().as_nanos() as u64;
        layers.snapshot_bytes = blob.len() as u64;
        d.sys.machine.clear_journal();
        d.sys.machine.enable_journal();
        blob
    });

    let before = d.sys.metrics_snapshot();
    d.measuring = true;
    let root = log.as_ref().map(|l| {
        let mut l = l.borrow_mut();
        l.start();
        l.begin(Kind::Phase, engine)
    });
    let t1 = Instant::now();
    w.measure(&mut d, seed, sizes);
    let wall_ns = t1.elapsed().as_nanos() as u64;
    if let (Some(l), Some(root)) = (&log, root) {
        let mut l = l.borrow_mut();
        l.end(root);
        l.stop();
    }
    d.measuring = false;
    let after = d.sys.metrics_snapshot();
    let final_json = after.to_json();
    let delta = after.diff(&before);
    let count = |n: &str| delta.counters.get(n).copied().unwrap_or(0);
    let sim_ops = count("machine.reads") + count("machine.writes") + count("scan.pages_scanned");
    let saved_pages = d.sys.policy.pages_saved();

    if let (Some(log), Some(blob)) = (&log, snapshot) {
        let names: Vec<&str> = w.engines().iter().map(|k| k.slug()).collect();
        split_spans(&log.borrow(), &mut layers, &names);
        replay_check(&mut d, kind, w.machine(seed), &blob, &after, &mut layers);
        probes(&mut d, &mut layers);
    }
    if mode.gate {
        d.sweep();
    }
    EngineOutcome {
        kind,
        setup_ns,
        wall_ns,
        lat: std::mem::take(&mut d.lat),
        sim_ops,
        saved_pages,
        final_json,
        delta,
        checked: d.checked,
        failures: d.failures,
        first_failure: d.first_failure.take(),
        layers: log.map(|_| layers),
    }
}

/// Folds the span tree into per-layer totals.
fn split_spans(log: &SpanLog, l: &mut Layers, engines: &[&str]) {
    let own = log.self_times();
    for (s, &own_ns) in log.spans().iter().zip(&own) {
        let dur = s.end_ns - s.start_ns;
        match s.kind {
            Kind::Phase => l.driver_self_ns += own_ns,
            Kind::Access => {
                l.access_ns += dur;
                l.access_self_ns += own_ns;
            }
            Kind::Background => l.background_self_ns += own_ns,
            Kind::Scan => {
                l.scan_ns += dur;
                l.scan_calls += 1;
            }
            Kind::Fault => {
                l.fault_ns += dur;
                l.fault_calls += 1;
            }
            Kind::Collapse => l.collapse_ns += dur,
        }
    }
    l.spans_csv = log.to_csv(engines);
}

/// Restores the post-set-up snapshot into a freshly built system, replays
/// the measured phase's journal, and requires the same final metrics.
fn replay_check<P: FusionPolicy>(
    d: &mut Driver<P>,
    kind: EngineKind,
    base: MachineConfig,
    blob: &[u8],
    want: &MetricsSnapshot,
    l: &mut Layers,
) {
    let journal = d.sys.machine.journal().to_vec();
    l.journal_events = journal.len() as u64;
    let mut fresh = kind.build_system(base);
    let t = Instant::now();
    let restored = fresh.restore(blob);
    l.restore_ns = t.elapsed().as_nanos() as u64;
    if let Err(e) = restored {
        d.fail(|| format!("{}: snapshot does not restore: {e}", kind.slug()));
        return;
    }
    let t = Instant::now();
    fresh.replay(&journal);
    l.replay_ns = t.elapsed().as_nanos() as u64;
    let mut got = fresh.metrics_snapshot();
    let mut traced = want.clone();
    // Scan-cost attribution is observability state the snapshot does not
    // carry: it restarts at zero on restore and depends on how warm the
    // hash memo is, so a replay cannot reproduce it. Everything else must
    // match byte for byte.
    for s in [&mut got, &mut traced] {
        s.counters
            .retain(|k, _| !k.starts_with("scan.shard_cost_ns."));
    }
    if got.to_json() != traced.to_json() {
        let keys: Vec<String> = traced
            .counters
            .iter()
            .filter(|&(k, v)| got.counters.get(k) != Some(v))
            .map(|(k, v)| format!("{k}={v}/{}", got.counters.get(k).copied().unwrap_or(0)))
            .chain(
                traced
                    .gauges
                    .iter()
                    .filter(|&(k, v)| got.gauges.get(k) != Some(v))
                    .map(|(k, v)| format!("{k}={v}/{}", got.gauges.get(k).copied().unwrap_or(0))),
            )
            .collect();
        d.fail(|| {
            format!(
                "{}: restore + replay diverged from the traced run (traced/replayed: {})",
                kind.slug(),
                keys.join(" ")
            )
        });
    }
}

/// Per-layer micro-probes on the final state. `Llc::access` and
/// `phys_access` change simulated state, so these run after everything
/// simulated has been captured.
fn probes<P: FusionPolicy>(d: &mut Driver<P>, l: &mut Layers) {
    let m = &mut d.sys.machine;
    let frames: Vec<FrameId> = (0..m.mem().frame_count() as u64)
        .map(FrameId)
        .filter(|&f| m.mem().info(f).state == FrameState::Allocated)
        .collect();
    let t = Instant::now();
    let mut acc = 0u64;
    for &f in &frames {
        acc ^= content_hash(black_box(&m.mem().page(f)[..]));
    }
    black_box(acc);
    l.hash_ns_per_page = per(t, frames.len());

    // Candidate pairs: the same guest page in guest 0 and in every other
    // guest (the guests share layout), where the two are not one frame.
    let guests = &d.oracle.guests;
    let mut pages: Vec<(vusion_kernel::Pid, VirtAddr)> = Vec::new();
    let mut pairs: Vec<(FrameId, FrameId)> = Vec::new();
    for g in guests {
        for (ri, r) in g.regions.iter().enumerate() {
            for p in 0..r.pages {
                let va = r.va(p, 0);
                pages.push((g.pid, va));
                if g.pid != guests[0].pid && ri < guests[0].regions.len() {
                    let a = m.translate_quiet(guests[0].pid, va);
                    let b = m.translate_quiet(g.pid, va);
                    if let (Some(a), Some(b)) = (a, b) {
                        if a.frame() != b.frame() {
                            pairs.push((a.frame(), b.frame()));
                        }
                    }
                }
            }
        }
    }
    let t = Instant::now();
    for &(a, b) in &pairs {
        black_box(m.mem().compare_pages(a, b));
    }
    l.compare_ns_per_pair = per(t, pairs.len());

    let t = Instant::now();
    for &(pid, va) in &pages {
        black_box(m.translate_quiet(pid, black_box(va)));
    }
    l.walk_ns = per(t, pages.len());

    let lines: Vec<PhysAddr> = d
        .touched
        .iter()
        .filter_map(|&(pid, va)| m.translate_quiet(pid, va))
        .collect();
    let t = Instant::now();
    for &pa in &lines {
        black_box(m.llc_mut().access(pa));
    }
    l.llc_access_ns = per(t, lines.len());
    let t = Instant::now();
    for &pa in &lines {
        m.phys_access(black_box(pa), true);
    }
    l.dram_access_ns = per(t, lines.len());
}

fn per(t: Instant, n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use vusion_rng::rngs::StdRng;
    use vusion_rng::{RngExt, SeedableRng};
    use vusion_workloads::images::ImageSpec;

    /// A short mixed script: boot, churn, scan, idle.
    fn script<P: FusionPolicy>(sys: &mut System<P>) {
        let vms: Vec<_> = (0..2)
            .map(|i| {
                ImageSpec::small(0, 7 + i)
                    .scaled(1, 4)
                    .boot(sys, &format!("vm{i}"))
            })
            .collect();
        sys.force_scans(30);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..400 {
            let vm = vms[rng.random_range(0..2usize)];
            let va = VirtAddr(vm.buddy_base.0 + rng.random_range(0..vm.spec.buddy_pages * 4096));
            if rng.random_range(0..4u8) == 0 {
                sys.write(vm.pid, va, rng.random_range(0..=255u8));
            } else {
                sys.read(vm.pid, va);
            }
        }
        sys.idle(1_500_000_000);
    }

    #[test]
    fn hand_built_systems_match_build_system() {
        for w in Workload::ALL {
            for &kind in w.engines() {
                let base = w.machine(11);
                let log: SharedLog = Rc::new(RefCell::new(SpanLog::default()));
                log.borrow_mut().start();
                let mut ours = hand_built(kind, base, log.clone(), 0);
                let mut reference = kind.build_system(base);
                script(&mut ours);
                script(&mut reference);
                assert_eq!(
                    ours.metrics_snapshot().to_json(),
                    reference.metrics_snapshot().to_json(),
                    "{} {kind:?}: the benchmark's hand-built system diverges",
                    w.name()
                );
                if kind != EngineKind::NoFusion {
                    assert!(
                        !log.borrow().spans().is_empty(),
                        "{kind:?}: no spans recorded"
                    );
                }
            }
        }
    }

    #[test]
    fn same_seed_repeats_every_simulated_metric() {
        for w in Workload::ALL {
            let run = |seed: u64, traced: bool| {
                let mode = Mode {
                    traced,
                    gate: !traced,
                };
                episode(w, seed, Sizes::TINY, &w.oracle(seed), mode)
            };
            let a = run(5, false);
            let b = run(5, false);
            let t = run(5, true);
            for ((x, y), z) in a.iter().zip(&b).zip(&t) {
                for e in [x, y, z] {
                    assert_eq!(
                        e.failures,
                        0,
                        "{} {:?}: {:?}",
                        w.name(),
                        e.kind,
                        e.first_failure
                    );
                }
                assert_eq!(x.final_json, y.final_json, "{} {:?}", w.name(), x.kind);
                assert_eq!(x.lat, y.lat, "{} {:?}", w.name(), x.kind);
                assert_eq!(x.saved_pages, y.saved_pages);
                assert_eq!(x.sim_ops, y.sim_ops);
                // Tracing (wrapper, spans, journal, probes after capture)
                // changes nothing simulated.
                assert_eq!(
                    x.final_json,
                    z.final_json,
                    "{} {:?} traced",
                    w.name(),
                    x.kind
                );
                assert_eq!(x.lat, z.lat, "{} {:?} traced", w.name(), x.kind);
            }
        }
    }

    #[test]
    fn another_seed_changes_the_generated_inputs() {
        for w in Workload::ALL {
            let fleet =
                |seed| -> Vec<u64> { w.fleet(seed).iter().map(|s| s.unique_seed).collect() };
            assert_ne!(fleet(5), fleet(6), "{}: fleet ignores the seed", w.name());
            assert_ne!(
                w.machine(5).seed,
                w.machine(6).seed,
                "{}: machine seed ignores the seed",
                w.name()
            );
            let run = |seed: u64| {
                let mode = Mode {
                    traced: false,
                    gate: false,
                };
                episode(w, seed, Sizes::TINY, &w.oracle(seed), mode)
            };
            let (a, b) = (run(5), run(6));
            assert!(
                a.iter()
                    .zip(&b)
                    .any(|(x, y)| x.lat != y.lat || x.final_json != y.final_json),
                "{}: the access stream ignores the seed",
                w.name()
            );
        }
    }
}
