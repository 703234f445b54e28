//! Page runs are exact: `System::read_page`/`write_page` batch the line
//! accesses that hit the TLB into `Machine::page_run`, and the result must
//! be indistinguishable from 64 separate `read`/`write` calls — every
//! snapshot byte (page-table `write_gen`, TLB, LLC, row buffers, jitter
//! state) and every metric, after every page.
//!
//! The scan period is a few microseconds, shorter than one page of line
//! accesses, so scanner (and, under VUsion THP, khugepaged) wakeups land
//! mid-page and cut runs short.

use vusion::prelude::*;
use vusion_mem::PAGE_SIZE;
use vusion_rng::rngs::StdRng;
use vusion_rng::{RngExt, SeedableRng};

type Sys = System<Box<dyn FusionPolicy>>;

const ENGINES: [EngineKind; 7] = [
    EngineKind::NoFusion,
    EngineKind::Ksm,
    EngineKind::KsmCoa,
    EngineKind::KsmZeroOnly,
    EngineKind::Wpf,
    EngineKind::VUsion,
    EngineKind::VUsionThp,
];

/// 2 MiB-aligned, so THP configurations demand-fault huge pages.
const BASE: u64 = 0x20_0000;
const VMA_PAGES: u64 = 512;
const TOUCHED_PAGES: u64 = 12;
const SCAN_PERIOD_NS: u64 = 2_000;
const LINE: u64 = 64;

fn build(kind: EngineKind, thp: bool) -> (Sys, Vec<Pid>) {
    let mut cfg = kind.adapt_machine(MachineConfig::test_small());
    if thp {
        cfg = cfg.with_thp();
    }
    let mut m = Machine::new(cfg);
    let policy = kind
        .build_policy(&mut m, SCAN_PERIOD_NS, 256)
        .expect("policy");
    let mut sys = System::new(m, policy);
    if kind == EngineKind::VUsionThp {
        let mut k = Khugepaged::new().with_min_active(1);
        k.period_ns = 1_300;
        sys = sys.with_khugepaged(k);
    }
    sys.machine.enable_tracing();
    sys.machine.enable_surface();
    let pids: Vec<Pid> = (0..2)
        .map(|i| sys.machine.spawn(&format!("p{i}")).expect("spawn"))
        .collect();
    for &pid in &pids {
        sys.machine
            .mmap(pid, Vma::anon(VirtAddr(BASE), VMA_PAGES, Protection::rw()));
        sys.machine
            .madvise_mergeable(pid, VirtAddr(BASE), VMA_PAGES);
    }
    (sys, pids)
}

/// The pre-run `write_page`: 64 separate stores, then the install.
fn write_page_by_lines(sys: &mut Sys, pid: Pid, va: VirtAddr, content: &[u8; PAGE_SIZE as usize]) {
    for line in 0..PAGE_SIZE / LINE {
        sys.write(
            pid,
            VirtAddr(va.0 + line * LINE),
            content[(line * LINE) as usize],
        );
    }
    if let Some(pa) = sys.machine.store_target(pid, va) {
        sys.machine.mem_mut().write_page(pa.frame(), content);
    }
}

/// The pre-run `read_page`: 64 separate reads, then the frame's bytes.
fn read_page_by_lines(sys: &mut Sys, pid: Pid, va: VirtAddr) -> [u8; PAGE_SIZE as usize] {
    for line in 0..PAGE_SIZE / LINE {
        sys.read(pid, VirtAddr(va.0 + line * LINE));
    }
    match sys.machine.translate_quiet(pid, va) {
        Some(pa) => *sys.machine.mem().page(pa.frame()),
        None => [0; PAGE_SIZE as usize],
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Write page `page` of process `pid` with one of a few contents
    /// (label 0 is the zero page), so duplicates merge.
    WritePage(usize, u64, u8),
    ReadPage(usize, u64),
    /// One byte store, so pages diverge from their duplicates.
    Write(usize, u64, u16, u8),
    Idle(u64),
    ForceScans(usize),
}

fn random_op(rng: &mut StdRng) -> Op {
    let pid = rng.random_range(0..2usize);
    let page = rng.random_range(0..TOUCHED_PAGES);
    match rng.random_range(0..10u8) {
        0..4 => Op::WritePage(pid, page, rng.random_range(0..4u8)),
        4..7 => Op::ReadPage(pid, page),
        7 => Op::Write(
            pid,
            page,
            rng.random_range(0..PAGE_SIZE as u16),
            rng.random_range(1..255u8),
        ),
        8 => Op::Idle(rng.random_range(1..8_000u64)),
        _ => Op::ForceScans(rng.random_range(1..4usize)),
    }
}

fn content(label: u8) -> [u8; PAGE_SIZE as usize] {
    let mut page = [label; PAGE_SIZE as usize];
    if label != 0 {
        page[4095] = label.wrapping_mul(31);
    }
    page
}

#[test]
fn page_runs_match_line_by_line_accesses() {
    for kind in ENGINES {
        check_engine(kind, false);
    }
}

#[test]
fn page_runs_match_line_by_line_accesses_under_thp() {
    for kind in ENGINES {
        check_engine(kind, true);
    }
}

fn check_engine(kind: EngineKind, thp: bool) {
    let (mut lines, pids) = build(kind, thp);
    let (mut runs, _) = build(kind, thp);
    let mut rng = StdRng::seed_from_u64(0x9a6e ^ kind as u64 ^ (thp as u64) << 8);
    let mut mid_page_wakeups = 0;
    for step in 0..100 {
        let op = random_op(&mut rng);
        // Catch up on due background work, so any wakeup inside
        // the page operation below lands after its first line.
        lines.idle(1);
        runs.idle(1);
        let wakeups = runs.stats().scan_wakeups;
        match op {
            Op::WritePage(p, page, label) => {
                let va = VirtAddr(BASE + page * PAGE_SIZE);
                let c = content(label);
                write_page_by_lines(&mut lines, pids[p], va, &c);
                runs.write_page(pids[p], va, &c);
            }
            Op::ReadPage(p, page) => {
                let va = VirtAddr(BASE + page * PAGE_SIZE);
                let want = read_page_by_lines(&mut lines, pids[p], va);
                assert!(
                    runs.read_page(pids[p], va) == want,
                    "{kind:?} thp={thp} step {step}: read_page bytes differ"
                );
            }
            Op::Write(p, page, off, v) => {
                let va = VirtAddr(BASE + page * PAGE_SIZE + u64::from(off));
                lines.write(pids[p], va, v);
                runs.write(pids[p], va, v);
            }
            Op::Idle(ns) => {
                lines.idle(ns);
                runs.idle(ns);
            }
            Op::ForceScans(n) => {
                lines.force_scans(n);
                runs.force_scans(n);
            }
        }
        if matches!(op, Op::WritePage(..) | Op::ReadPage(..)) {
            mid_page_wakeups += runs.stats().scan_wakeups - wakeups;
        }
        assert!(
            lines.snapshot() == runs.snapshot(),
            "{kind:?} thp={thp} step {step} ({op:?}): snapshots differ"
        );
        assert_eq!(
            lines.metrics_snapshot().to_json(),
            runs.metrics_snapshot().to_json(),
            "{kind:?} thp={thp} step {step} ({op:?})"
        );
    }
    assert_eq!(lines.machine.surface_json(), runs.machine.surface_json());
    // NoFusion keeps its fixed 20 ms period and never wakes here.
    assert!(
        kind == EngineKind::NoFusion || mid_page_wakeups > 0,
        "{kind:?} thp={thp}: no scanner wakeup landed mid-page"
    );
}
