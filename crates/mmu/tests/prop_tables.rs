//! Property-style tests for the page-table substrate, driven by the
//! in-repo seeded PRNG: each test sweeps many seeds and derives its
//! inputs from the seed, so failures reproduce exactly by seed.

// Tests assert setup preconditions with expect("why"); the crate-level
// expect_used deny targets simulation code, not its test harness.
#![allow(clippy::expect_used)]

use vusion_rng::rngs::StdRng;
use vusion_rng::{RngExt, SeedableRng};

use vusion_mem::{
    BuddyAllocator, FrameAllocator, FrameId, PageType, PhysMemory, VirtAddr, HUGE_PAGE_SIZE,
    PAGE_SIZE,
};
use vusion_mmu::{PageTables, Pte, PteFlags};

const SEEDS: u64 = 48;

fn setup() -> (PhysMemory, BuddyAllocator, PageTables) {
    let mut mem = PhysMemory::new(8192);
    let mut alloc = BuddyAllocator::new(FrameId(0), 8192);
    let pt = PageTables::new(&mut mem, &mut alloc).expect("page tables");
    (mem, alloc, pt)
}

/// Mapping a set of distinct pages and walking them back recovers
/// exactly the mapped frames; unmapped addresses never resolve.
#[test]
fn map_walk_roundtrip() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7ab1e);
        let n = rng.random_range(1..64usize);
        let mut pages = std::collections::BTreeSet::new();
        for _ in 0..n {
            pages.insert(rng.random_range(0..2048u64));
        }
        let (mut mem, mut alloc, mut pt) = setup();
        let mut expected = std::collections::BTreeMap::new();
        for &pg in &pages {
            let f = alloc.alloc().expect("frame");
            mem.info_mut(f).on_alloc(PageType::Anon);
            let va = VirtAddr(pg * PAGE_SIZE);
            pt.map_page(
                &mut mem,
                &mut alloc,
                va,
                f,
                PteFlags::PRESENT | PteFlags::USER,
            )
            .expect("map");
            expected.insert(pg, f);
        }
        for pg in 0u64..2048 {
            let leaf = pt.leaf(&mem, VirtAddr(pg * PAGE_SIZE));
            match expected.get(&pg) {
                Some(&f) => {
                    let leaf = leaf.expect("mapped page must resolve");
                    assert_eq!(leaf.pte.frame(), f, "seed {seed}");
                    assert!(!leaf.huge, "seed {seed}");
                }
                None => assert!(leaf.is_none(), "seed {seed}: page {pg} must not resolve"),
            }
        }
    }
}

/// Walk step counts: 4 for base pages, 3 for huge pages, always ≤ 4.
#[test]
fn walk_depth_matches_mapping_kind() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdeb7);
        let huge_slot = rng.random_range(1..4u64);
        let small_pg = rng.random_range(0..512u64);
        let (mut mem, mut alloc, mut pt) = setup();
        // One huge mapping and one 4 KiB mapping in different PD slots.
        let hf = alloc.alloc_order(9).expect("huge block");
        mem.info_mut(hf).on_alloc(PageType::Anon);
        let hva = VirtAddr(huge_slot * HUGE_PAGE_SIZE);
        pt.map_huge(&mut mem, &mut alloc, hva, hf, PteFlags::PRESENT)
            .expect("map huge");
        let sf = alloc.alloc().expect("frame");
        mem.info_mut(sf).on_alloc(PageType::Anon);
        let sva = VirtAddr(8 * HUGE_PAGE_SIZE + small_pg * PAGE_SIZE);
        pt.map_page(&mut mem, &mut alloc, sva, sf, PteFlags::PRESENT)
            .expect("map");
        let hw = pt.walk(&mem, VirtAddr(hva.0 + small_pg * PAGE_SIZE));
        assert_eq!(hw.steps().len(), 3, "seed {seed}");
        assert!(hw.leaf.expect("mapped").huge, "seed {seed}");
        let sw = pt.walk(&mem, sva);
        assert_eq!(sw.steps().len(), 4, "seed {seed}");
        assert!(!sw.leaf.expect("mapped").huge, "seed {seed}");
    }
}

/// break_huge preserves every translation and permission; collapse_huge
/// restores the huge mapping and frees the PT.
#[test]
fn break_collapse_roundtrip() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xb4ea);
        let probe = rng.random_range(0..512u64);
        let (mut mem, mut alloc, mut pt) = setup();
        let hf = alloc.alloc_order(9).expect("huge block");
        mem.info_mut(hf).on_alloc(PageType::Anon);
        let base = VirtAddr(2 * HUGE_PAGE_SIZE);
        pt.map_huge(
            &mut mem,
            &mut alloc,
            base,
            hf,
            PteFlags::PRESENT | PteFlags::WRITABLE,
        )
        .expect("map huge");
        pt.break_huge(&mut mem, &mut alloc, base).expect("break");
        let va = VirtAddr(base.0 + probe * PAGE_SIZE);
        let leaf = pt.leaf(&mem, va).expect("still mapped");
        assert!(!leaf.huge, "seed {seed}");
        assert_eq!(leaf.pte.frame(), FrameId(hf.0 + probe), "seed {seed}");
        assert!(leaf.pte.has(PteFlags::WRITABLE), "seed {seed}");
        let free_before = alloc.free_frames();
        pt.collapse_huge(
            &mut mem,
            &mut alloc,
            base,
            hf,
            PteFlags::PRESENT | PteFlags::WRITABLE,
        )
        .expect("collapse");
        assert_eq!(
            alloc.free_frames(),
            free_before + 1,
            "seed {seed}: PT frame must be freed"
        );
        assert!(pt.leaf(&mem, va).expect("mapped").huge, "seed {seed}");
    }
}

/// PTE bit algebra: set/clear of arbitrary flag masks never disturbs
/// the frame field.
#[test]
fn pte_flags_never_touch_frame() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xf1a6);
        let frame = rng.random_range(0..(1u64 << 30));
        let set_res = rng.random_range(0..2u8) == 1;
        let set_pcd = rng.random_range(0..2u8) == 1;
        let mut pte = Pte::new(FrameId(frame), PteFlags::PRESENT);
        if set_res {
            pte = pte.set(PteFlags::RESERVED);
        }
        if set_pcd {
            pte = pte.set(PteFlags::NO_CACHE);
        }
        pte = pte
            .set(PteFlags::ACCESSED | PteFlags::DIRTY)
            .clear(PteFlags::DIRTY);
        assert_eq!(pte.frame(), FrameId(frame), "seed {seed}");
        assert_eq!(pte.is_trapped(), set_res, "seed {seed}");
        assert_eq!(pte.has(PteFlags::NO_CACHE), set_pcd, "seed {seed}");
        assert!(!pte.has(PteFlags::DIRTY), "seed {seed}");
    }
}

/// Accessed-bit tracking: set on map, cleared exactly once.
#[test]
fn accessed_bit_clears_once() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xacce);
        let pg = rng.random_range(0..1024u64);
        let (mut mem, mut alloc, mut pt) = setup();
        let f = alloc.alloc().expect("frame");
        mem.info_mut(f).on_alloc(PageType::Anon);
        let va = VirtAddr(pg * PAGE_SIZE);
        pt.map_page(
            &mut mem,
            &mut alloc,
            va,
            f,
            PteFlags::PRESENT | PteFlags::ACCESSED,
        )
        .expect("map");
        assert_eq!(pt.test_and_clear_accessed(&mut mem, va), Some(true));
        assert_eq!(pt.test_and_clear_accessed(&mut mem, va), Some(false));
        // Re-marking (a hardware walk) makes it observable again.
        let leaf = pt.leaf(&mem, va).expect("mapped");
        pt.set_leaf(&mut mem, va, leaf.pte.set(PteFlags::ACCESSED))
            .expect("set leaf");
        assert_eq!(pt.test_and_clear_accessed(&mut mem, va), Some(true));
    }
}

/// Operations that fail (remap, misalignment, unmapped set_leaf) leave the
/// tables unchanged: the prior translations all still resolve identically.
#[test]
fn failed_operations_leave_tables_intact() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1e47);
        let (mut mem, mut alloc, mut pt) = setup();
        let f = alloc.alloc().expect("frame");
        mem.info_mut(f).on_alloc(PageType::Anon);
        let pg = rng.random_range(0..512u64);
        let va = VirtAddr(pg * PAGE_SIZE);
        pt.map_page(&mut mem, &mut alloc, va, f, PteFlags::PRESENT)
            .expect("map");
        // Remap must fail and change nothing.
        let g = alloc.alloc().expect("frame");
        assert!(pt
            .map_page(&mut mem, &mut alloc, va, g, PteFlags::PRESENT)
            .is_err());
        alloc.free(g).expect("free");
        // Unmapped set_leaf and unmap must fail.
        let hole = VirtAddr((pg + 1024) * PAGE_SIZE);
        assert!(pt
            .set_leaf(&mut mem, hole, Pte::new(f, PteFlags::PRESENT))
            .is_err());
        assert!(pt.unmap(&mut mem, hole).is_err());
        // Misaligned huge map must fail.
        let hf = alloc.alloc_order(9).expect("huge block");
        assert!(pt
            .map_huge(
                &mut mem,
                &mut alloc,
                VirtAddr(HUGE_PAGE_SIZE + PAGE_SIZE),
                hf,
                PteFlags::PRESENT
            )
            .is_err());
        alloc.free_order(hf, 9).expect("free");
        // The original translation is untouched.
        let leaf = pt.leaf(&mem, va).expect("still mapped");
        assert_eq!(leaf.pte.frame(), f, "seed {seed}");
    }
}
