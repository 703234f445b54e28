//! Cross-crate correctness: fusion must never change what any process
//! observes in its memory, under any engine and any interleaving of
//! accesses and scan passes.
//!
//! The oracle is a plain `BTreeMap<(pid, va), byte>` model of what was
//! written; after arbitrary interleavings of writes, reads, scans,
//! khugepaged passes and idle time, every byte must read back as the model
//! predicts. Driven by the in-repo seeded PRNG: each test sweeps many
//! seeds so failures reproduce exactly by seed.

use vusion::prelude::*;
use vusion_rng::rngs::StdRng;
use vusion_rng::{RngExt, SeedableRng};

const ENGINES: [EngineKind; 5] = [
    EngineKind::Ksm,
    EngineKind::KsmCoa,
    EngineKind::Wpf,
    EngineKind::VUsion,
    EngineKind::VUsionThp,
];

const BASE: u64 = 0x10000;
const PAGES: u64 = 24;

fn build(kind: EngineKind) -> (System<Box<dyn FusionPolicy>>, Vec<Pid>) {
    let mut sys = kind.build_system(MachineConfig::test_small());
    let pids: Vec<Pid> = (0..3)
        .map(|i| sys.machine.spawn(&format!("p{i}")).expect("spawn"))
        .collect();
    for &pid in &pids {
        sys.machine
            .mmap(pid, Vma::anon(VirtAddr(BASE), PAGES, Protection::rw()));
        sys.machine.madvise_mergeable(pid, VirtAddr(BASE), PAGES);
    }
    (sys, pids)
}

/// One scripted operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Write a (often duplicate-prone) byte at (pid, page, offset).
    Write(usize, u64, u16, u8),
    /// Read at (pid, page, offset).
    Read(usize, u64, u16),
    /// Run scanner wakeups.
    Scan(u8),
    /// Let simulated time pass (daemons run).
    Idle(u8),
}

fn random_op(rng: &mut StdRng) -> Op {
    match rng.random_range(0..4u8) {
        0 => Op::Write(
            rng.random_range(0..3usize),
            rng.random_range(0..PAGES),
            rng.random_range(0..4096u16),
            rng.random_range(0..4u8),
        ),
        1 => Op::Read(
            rng.random_range(0..3usize),
            rng.random_range(0..PAGES),
            rng.random_range(0..4096u16),
        ),
        2 => Op::Scan(rng.random_range(1..6u8)),
        _ => Op::Idle(rng.random_range(1..4u8)),
    }
}

/// Differential test: every engine preserves the memory model.
#[test]
fn fusion_preserves_memory_semantics() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc0bb);
        let n = rng.random_range(1..120usize);
        let ops: Vec<Op> = (0..n).map(|_| random_op(&mut rng)).collect();
        for kind in ENGINES {
            let (mut sys, pids) = build(kind);
            let mut model = std::collections::BTreeMap::new();
            for op in &ops {
                match *op {
                    Op::Write(p, pg, off, v) => {
                        let va = VirtAddr(BASE + pg * PAGE_SIZE + u64::from(off));
                        sys.write(pids[p], va, v);
                        model.insert((p, pg, off), v);
                    }
                    Op::Read(p, pg, off) => {
                        let va = VirtAddr(BASE + pg * PAGE_SIZE + u64::from(off));
                        let got = sys.read(pids[p], va);
                        let want = model.get(&(p, pg, off)).copied().unwrap_or(0);
                        assert_eq!(
                            got, want,
                            "seed {seed} {kind:?}: mismatch at p{p} page {pg} off {off}"
                        );
                    }
                    Op::Scan(n) => sys.force_scans(n as usize),
                    Op::Idle(n) => sys.idle(u64::from(n) * 25_000_000),
                }
            }
            // Final sweep: every written byte still reads back.
            for (&(p, pg, off), &v) in &model {
                let va = VirtAddr(BASE + pg * PAGE_SIZE + u64::from(off));
                assert_eq!(
                    sys.read(pids[p], va),
                    v,
                    "seed {seed} {kind:?}: final state diverged"
                );
            }
        }
    }
}

/// Identical content across processes always converges to sharing under
/// KSM and VUsion, and writes always unshare correctly afterwards.
#[test]
fn merge_then_diverge() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xd1fe);
        let fill = rng.random_range(1..255u8);
        let diverge_at = rng.random_range(0..4096u16);
        for kind in [EngineKind::Ksm, EngineKind::VUsion] {
            let (mut sys, pids) = build(kind);
            let page = [fill; PAGE_SIZE as usize];
            for &pid in &pids {
                sys.write_page(pid, VirtAddr(BASE), &page);
            }
            sys.force_scans(16);
            assert!(
                sys.policy.pages_saved() >= 2,
                "seed {seed} {kind:?} failed to merge triples"
            );
            // One process diverges.
            let va = VirtAddr(BASE + u64::from(diverge_at));
            sys.write(pids[0], va, fill.wrapping_add(1));
            assert_eq!(sys.read(pids[0], va), fill.wrapping_add(1), "seed {seed}");
            assert_eq!(sys.read(pids[1], va), fill, "seed {seed}");
            assert_eq!(sys.read(pids[2], va), fill, "seed {seed}");
        }
    }
}

#[test]
fn heavy_churn_converges_and_preserves_contents() {
    // Repeated merge/unmerge cycles across engines must neither corrupt
    // contents nor leak saved-page accounting.
    for kind in ENGINES {
        let (mut sys, pids) = build(kind);
        for round in 0..6u8 {
            for (i, &pid) in pids.iter().enumerate() {
                for pg in 0..PAGES {
                    // Alternate between all-same and per-process content.
                    let label = if round % 2 == 0 {
                        7
                    } else {
                        (i as u8 + 1) * 10 + round
                    };
                    sys.write_page(
                        pid,
                        VirtAddr(BASE + pg * PAGE_SIZE),
                        &[label; PAGE_SIZE as usize],
                    );
                }
            }
            sys.force_scans(20);
        }
        // Verify final contents.
        for (i, &pid) in pids.iter().enumerate() {
            let want = (i as u8 + 1) * 10 + 5;
            for pg in 0..PAGES {
                assert_eq!(
                    sys.read_page(pid, VirtAddr(BASE + pg * PAGE_SIZE)),
                    [want; PAGE_SIZE as usize],
                    "{kind:?}: corrupted after churn"
                );
            }
        }
    }
}

/// A `write_page` whose every store fails drops its content like the
/// failed stores. Under KSM and WPF the page stays mapped read-only onto
/// the merged frame when the CoW break cannot allocate; installing the
/// content there anyway would hand the writer's bytes to the other owner
/// (a cross-guest leak) and change a tree frame behind the engine's back.
#[test]
fn failed_write_page_leaves_the_shared_frame_alone() {
    let old = [7u8; PAGE_SIZE as usize];
    for kind in [EngineKind::Ksm, EngineKind::Wpf, EngineKind::VUsion] {
        let plan = FaultPlan::alloc_prob(1.0).expect("valid plan");
        let mut sys = kind.build_system(MachineConfig::test_small().with_fault_plan(plan));
        let pids: Vec<Pid> = ["a", "b"]
            .iter()
            .map(|n| sys.machine.spawn(n).expect("spawn"))
            .collect();
        for &pid in &pids {
            sys.machine
                .mmap(pid, Vma::anon(VirtAddr(BASE), 1, Protection::rw()));
            sys.machine.madvise_mergeable(pid, VirtAddr(BASE), 1);
            sys.write_page(pid, VirtAddr(BASE), &old);
        }
        sys.force_scans(50);
        let backing = |sys: &System<Box<dyn FusionPolicy>>, pid| {
            sys.machine
                .translate_quiet(pid, VirtAddr(BASE))
                .expect("mapped")
                .frame()
        };
        let shared = backing(&sys, pids[1]);
        sys.machine.arm_faults();
        let unresolved = sys.stats().unresolved_faults;
        sys.write_page(pids[0], VirtAddr(BASE), &[9; PAGE_SIZE as usize]);
        if kind != EngineKind::VUsion {
            assert_eq!(backing(&sys, pids[0]), shared, "{kind:?}: not merged");
            assert_eq!(
                sys.stats().unresolved_faults - unresolved,
                64,
                "{kind:?}: every store must fail"
            );
        }
        assert!(
            sys.machine.mem().page(shared) == &old,
            "{kind:?}: the failed write landed in the shared frame"
        );
        assert!(
            sys.read_page(pids[1], VirtAddr(BASE)) == old,
            "{kind:?}: the other owner reads the failed write"
        );
    }
}
