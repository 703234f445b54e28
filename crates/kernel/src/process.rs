//! Simulated processes (or, in the cloud scenarios, whole VMs).
//!
//! A KVM guest appears to the host as one process whose anonymous memory
//! holds the entire guest physical memory, so the cloud experiments model
//! each VM as a process with a large mergeable anonymous VMA. The per-VM
//! page cache maps simulated `(file, page)` pairs to frames, generating
//! deterministic content per file id — identical base-image files across
//! VMs therefore carry identical bytes, which is where cross-VM fusion
//! opportunities come from.

use std::collections::BTreeMap;

use vusion_mem::{seeded_page, FrameId, MmError, PhysAddr, PhysMemory, VirtAddr, PAGE_SIZE};
use vusion_mmu::{AddressSpace, Tlb};

/// A simulated process.
pub struct Process {
    /// Process name, for reporting.
    pub name: String,
    /// Virtual address space (VMAs + page tables).
    pub space: AddressSpace,
    /// Per-core TLB (the simulation pins one process per core).
    pub tlb: Tlb,
    /// Guest page cache: (file id, page offset) → frame.
    pub page_cache: BTreeMap<(u64, u64), FrameId>,
}

impl Process {
    /// Creates a process with an empty address space.
    pub fn new(name: &str, space: AddressSpace) -> Self {
        Self {
            name: name.to_string(),
            space,
            tlb: Tlb::skylake(),
            page_cache: BTreeMap::new(),
        }
    }

    /// Deterministic content of a simulated file page. The same
    /// `(file_id, offset)` pair yields the same bytes in every process —
    /// shared base images produce cross-VM duplicate pages.
    pub fn file_page_content(file_id: u64, offset_pages: u64) -> [u8; PAGE_SIZE as usize] {
        seeded_page(
            file_id
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(offset_pages.wrapping_mul(0xbf58_476d_1ce4_e5b9)),
        )
    }

    /// Loads a file page into the page cache, materializing content on
    /// first use. Returns the backing frame, or the allocator's error when
    /// the frame for a cold page cannot be allocated (the cache is left
    /// unchanged, so a retry after reclaim can succeed).
    pub fn page_cache_load(
        &mut self,
        mem: &mut PhysMemory,
        file_id: u64,
        offset_pages: u64,
        alloc_frame: impl FnOnce(&mut PhysMemory) -> Result<FrameId, MmError>,
    ) -> Result<FrameId, MmError> {
        if let Some(&f) = self.page_cache.get(&(file_id, offset_pages)) {
            return Ok(f);
        }
        let f = alloc_frame(mem)?;
        mem.write_page(f, &Self::file_page_content(file_id, offset_pages));
        self.page_cache.insert((file_id, offset_pages), f);
        Ok(f)
    }

    /// Evicts a page-cache entry that fusion replaced (the engine now owns
    /// the mapping). Returns the frame that was cached.
    pub fn page_cache_evict(&mut self, file_id: u64, offset_pages: u64) -> Option<FrameId> {
        self.page_cache.remove(&(file_id, offset_pages))
    }

    /// Translates without side effects (no TLB/clock interaction); test and
    /// attack-setup helper.
    pub fn translate_quiet(&self, mem: &PhysMemory, va: VirtAddr) -> Option<PhysAddr> {
        let leaf = self.space.tables().leaf(mem, va)?;
        if leaf.huge {
            let off = va.0 % vusion_mem::HUGE_PAGE_SIZE;
            Some(PhysAddr(leaf.pte.frame().base().0 + off))
        } else {
            Some(PhysAddr(leaf.pte.frame().base().0 + va.page_offset()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vusion_mem::{BuddyAllocator, FrameAllocator, PageType};
    use vusion_mmu::{Protection, Vma};

    fn setup() -> (PhysMemory, BuddyAllocator, Process) {
        let mut mem = PhysMemory::new(1024);
        let mut alloc = BuddyAllocator::new(FrameId(0), 1024);
        let space = AddressSpace::new(&mut mem, &mut alloc).expect("address space");
        (mem, alloc, Process::new("p0", space))
    }

    #[test]
    fn file_content_is_deterministic_and_distinct() {
        let a = Process::file_page_content(1, 0);
        let b = Process::file_page_content(1, 0);
        let c = Process::file_page_content(1, 1);
        let d = Process::file_page_content(2, 0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn page_cache_loads_once() {
        let (mut mem, mut alloc, mut p) = setup();
        let mut allocs = 0;
        let do_alloc = |mem: &mut PhysMemory, alloc: &mut BuddyAllocator, n: &mut u32| {
            let f = alloc.alloc().expect("frame");
            mem.info_mut(f).on_alloc(PageType::PageCache);
            *n += 1;
            Ok(f)
        };
        let f1 = p
            .page_cache_load(&mut mem, 7, 3, |m| do_alloc(m, &mut alloc, &mut allocs))
            .expect("load");
        let f2 = p
            .page_cache_load(&mut mem, 7, 3, |_| panic!("must not reallocate"))
            .expect("load");
        assert_eq!(f1, f2);
        assert_eq!(allocs, 1);
        // Content matches the deterministic generator.
        assert_eq!(mem.page(f1), &Process::file_page_content(7, 3));
    }

    #[test]
    fn same_file_same_content_across_processes() {
        let (mut mem, mut alloc, mut p1) = setup();
        let space2 = AddressSpace::new(&mut mem, &mut alloc).expect("address space");
        let mut p2 = Process::new("p1", space2);
        let mk = |mem: &mut PhysMemory, alloc: &mut BuddyAllocator| {
            let f = alloc.alloc().expect("frame");
            mem.info_mut(f).on_alloc(PageType::PageCache);
            Ok(f)
        };
        let f1 = p1
            .page_cache_load(&mut mem, 42, 0, |m| mk(m, &mut alloc))
            .expect("load");
        let f2 = p2
            .page_cache_load(&mut mem, 42, 0, |m| mk(m, &mut alloc))
            .expect("load");
        assert_ne!(f1, f2, "separate frames");
        assert!(
            mem.pages_equal(f1, f2),
            "identical content — a fusion opportunity"
        );
    }

    #[test]
    fn evict_removes_entry() {
        let (mut mem, mut alloc, mut p) = setup();
        let f = p
            .page_cache_load(&mut mem, 1, 1, |m| {
                let f = alloc.alloc().expect("frame");
                m.info_mut(f).on_alloc(PageType::PageCache);
                Ok(f)
            })
            .expect("load");
        assert_eq!(p.page_cache_evict(1, 1), Some(f));
        assert_eq!(p.page_cache_evict(1, 1), None);
    }

    #[test]
    fn translate_quiet_resolves_mapped_pages() {
        let (mut mem, mut alloc, mut p) = setup();
        let f = alloc.alloc().expect("frame");
        mem.info_mut(f).on_alloc(PageType::Anon);
        p.space
            .add_vma(Vma::anon(VirtAddr(0x1000), 1, Protection::rw()));
        p.space
            .tables_mut()
            .map_page(
                &mut mem,
                &mut alloc,
                VirtAddr(0x1000),
                f,
                vusion_mmu::PteFlags::PRESENT,
            )
            .expect("map");
        assert_eq!(
            p.translate_quiet(&mem, VirtAddr(0x1234)),
            Some(f.addr(0x234))
        );
        assert_eq!(p.translate_quiet(&mem, VirtAddr(0x9000)), None);
    }
}
