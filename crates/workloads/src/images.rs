//! Synthetic VM images.
//!
//! A booted guest's memory decomposes (Table 3) into page-cache contents
//! (distro files, libraries — heavily duplicated across VMs of the same
//! family), pages sitting free in the guest's buddy allocator (stale data,
//! also duplicate-rich, plus zero pages), and live application data (mostly
//! unique). An [`ImageSpec`] describes those proportions; [`ImageSpec::boot`]
//! creates a process, maps and faults everything in, and registers the
//! guest's memory for fusion the way KVM registers guest RAM with KSM.

use vusion_kernel::{FusionPolicy, Pid, System};
use vusion_mem::{seeded_page, VirtAddr, PAGE_SIZE};
use vusion_mmu::{GuestTag, Protection, Vma};
use vusion_rng::rngs::StdRng;
use vusion_rng::{RngExt, SeedableRng};

/// Page content with a recognizable label (shared helper).
pub fn labeled_page(label: u64) -> [u8; PAGE_SIZE as usize] {
    seeded_page(label.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Description of a VM image.
#[derive(Debug, Clone, Copy)]
pub struct ImageSpec {
    /// Distro family: images of the same family share base-file content.
    pub family: u64,
    /// Per-image seed for unique content.
    pub unique_seed: u64,
    /// Guest page cache holding distro files (family-shared).
    pub base_pages: u64,
    /// Guest page cache holding libraries (shared across *all* images).
    pub lib_pages: u64,
    /// Stale pages in the guest's buddy allocator (3/4 family-duplicate
    /// content, 1/4 zero).
    pub buddy_pages: u64,
    /// Demand-zero pages the guest mapped but never wrote.
    pub zero_pages: u64,
    /// Guest kernel text/data (same content across same-family kernels).
    pub kernel_pages: u64,
    /// Unique application data.
    pub app_pages: u64,
}

impl ImageSpec {
    /// A small all-purpose image (≈ 3.5 MiB of guest memory at scale 1).
    pub fn small(family: u64, unique_seed: u64) -> Self {
        Self {
            family,
            unique_seed,
            base_pages: 256,
            lib_pages: 128,
            buddy_pages: 256,
            zero_pages: 128,
            kernel_pages: 48,
            app_pages: 128,
        }
    }

    /// Total pages the image touches at boot.
    pub fn total_pages(&self) -> u64 {
        self.base_pages
            + self.lib_pages
            + self.buddy_pages
            + self.zero_pages
            + self.kernel_pages
            + self.app_pages
    }

    /// Scales every region by `num/den` (experiments shrink or grow images).
    pub fn scaled(mut self, num: u64, den: u64) -> Self {
        let s = |v: u64| (v * num / den).max(1);
        self.base_pages = s(self.base_pages);
        self.lib_pages = s(self.lib_pages);
        self.buddy_pages = s(self.buddy_pages);
        self.zero_pages = s(self.zero_pages);
        self.kernel_pages = s(self.kernel_pages);
        self.app_pages = s(self.app_pages);
        self
    }

    /// Boots the image: spawns a VM process, maps all regions, faults them
    /// in with content, and registers everything mergeable.
    pub fn boot<P: FusionPolicy>(&self, sys: &mut System<P>, name: &str) -> VmHandle {
        let pid = sys.machine.spawn(name).expect("spawn");
        let mut cursor = 0x1000_0000u64;
        let mut region = |pages: u64| {
            let start = cursor;
            // Keep regions 2 MiB-separated so layouts stay aligned-friendly.
            cursor += (pages * PAGE_SIZE).next_multiple_of(2 * 1024 * 1024) + 2 * 1024 * 1024;
            (VirtAddr(start), pages)
        };
        let (base_va, base_n) = region(self.base_pages);
        let (lib_va, lib_n) = region(self.lib_pages);
        let (buddy_va, buddy_n) = region(self.buddy_pages);
        let (zero_va, zero_n) = region(self.zero_pages);
        let (kernel_va, kernel_n) = region(self.kernel_pages);
        let (app_va, app_n) = region(self.app_pages);
        // Distro base: one big family-shared file.
        sys.machine.mmap(
            pid,
            Vma::file(base_va, base_n, Protection::ro(), 0x1000 + self.family, 0)
                .with_tag(GuestTag::PageCache),
        );
        // Libraries: one globally shared file.
        sys.machine.mmap(
            pid,
            Vma::file(lib_va, lib_n, Protection::rx(), 0x1, 0).with_tag(GuestTag::PageCache),
        );
        sys.machine.mmap(
            pid,
            Vma::anon(buddy_va, buddy_n, Protection::rw()).with_tag(GuestTag::GuestBuddy),
        );
        sys.machine.mmap(
            pid,
            Vma::anon(zero_va, zero_n, Protection::rw()).with_tag(GuestTag::GuestBuddy),
        );
        sys.machine.mmap(
            pid,
            Vma::anon(kernel_va, kernel_n, Protection::rw()).with_tag(GuestTag::GuestKernel),
        );
        sys.machine.mmap(
            pid,
            Vma::anon(app_va, app_n, Protection::rw()).with_tag(GuestTag::Other),
        );
        // KVM registers all guest memory with the fusion system.
        for (va, n) in [
            (base_va, base_n),
            (lib_va, lib_n),
            (buddy_va, buddy_n),
            (zero_va, zero_n),
            (kernel_va, kernel_n),
            (app_va, app_n),
        ] {
            sys.machine.madvise_mergeable(pid, va, n);
        }
        // Fault everything in ("boot"): file pages load content, buddy
        // pages get stale (duplicate-rich) content, zero pages stay zero.
        for i in 0..base_n {
            sys.read(pid, VirtAddr(base_va.0 + i * PAGE_SIZE));
        }
        for i in 0..lib_n {
            sys.read(pid, VirtAddr(lib_va.0 + i * PAGE_SIZE));
        }
        for i in 0..buddy_n {
            let content = if i % 4 == 0 {
                [0u8; PAGE_SIZE as usize] // Zero page in the free pool.
            } else {
                labeled_page(0xb0dd_0000 ^ (self.family << 32) ^ i)
            };
            sys.write_page(pid, VirtAddr(buddy_va.0 + i * PAGE_SIZE), &content);
        }
        for i in 0..zero_n {
            sys.read(pid, VirtAddr(zero_va.0 + i * PAGE_SIZE));
        }
        for i in 0..kernel_n {
            // Kernel text: identical across same-family guests.
            let content = labeled_page(0x6e71_0000 ^ (self.family << 48) ^ (i << 8));
            sys.write_page(pid, VirtAddr(kernel_va.0 + i * PAGE_SIZE), &content);
        }
        for i in 0..app_n {
            let content = labeled_page(self.unique_seed.wrapping_mul(0x1_0001) ^ (i << 40) | 1);
            sys.write_page(pid, VirtAddr(app_va.0 + i * PAGE_SIZE), &content);
        }
        VmHandle {
            pid,
            app_base: app_va,
            app_pages: app_n,
            buddy_base: buddy_va,
            spec: *self,
        }
    }
}

/// A booted VM.
#[derive(Debug, Clone, Copy)]
pub struct VmHandle {
    /// The VM's process id.
    pub pid: Pid,
    /// Base of the application region (workload drivers use it).
    pub app_base: VirtAddr,
    /// Application pages.
    pub app_pages: u64,
    /// Base of the guest-buddy region.
    pub buddy_base: VirtAddr,
    /// The image this VM booted from.
    pub spec: ImageSpec,
}

/// A catalog of images, standing in for the paper's 44 DAS4 cloud images.
pub struct ImageCatalog {
    images: Vec<ImageSpec>,
}

impl ImageCatalog {
    /// 44 images across 6 distro families with varying sizes, as in the
    /// Figure 11 experiment.
    pub fn das4(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let images = (0..44u64)
            .map(|i| {
                let family = i % 6;
                let mut spec = ImageSpec::small(family, seed ^ (i << 8) ^ 0xcafe);
                // Vary sizes by up to 2x.
                let num = rng.random_range(2..=4u64);
                spec = spec.scaled(num, 2);
                spec
            })
            .collect();
        Self { images }
    }

    /// Number of images.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// The `i`-th image.
    pub fn get(&self, i: usize) -> ImageSpec {
        self.images[i % self.images.len()]
    }

    /// A random selection of `n` images (with replacement), as in "16 VMs
    /// using randomly selected VM images".
    pub fn pick(&self, n: usize, seed: u64) -> Vec<ImageSpec> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| self.images[rng.random_range(0..self.images.len())])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vusion_core::EngineKind;
    use vusion_kernel::MachineConfig;

    #[test]
    fn boot_populates_all_regions() {
        let mut sys = EngineKind::NoFusion.build_system(MachineConfig::test_small());
        let spec = ImageSpec::small(0, 7).scaled(1, 4);
        let before = sys.machine.allocated_frames();
        let vm = spec.boot(&mut sys, "vm0");
        let after = sys.machine.allocated_frames();
        assert!(
            after - before >= spec.total_pages() as usize,
            "all regions faulted in"
        );
        // App content is readable and labeled.
        let page = sys.read_page(vm.pid, vm.app_base);
        assert_ne!(page, [0u8; PAGE_SIZE as usize]);
    }

    #[test]
    fn same_family_images_share_base_content() {
        let mut sys = EngineKind::NoFusion.build_system(MachineConfig::test_small());
        let a = ImageSpec::small(1, 10).scaled(1, 4).boot(&mut sys, "a");
        let b = ImageSpec::small(1, 11).scaled(1, 4).boot(&mut sys, "b");
        // Base regions start at the same VA layout; compare first base page.
        let pa = sys
            .machine
            .translate_quiet(a.pid, VirtAddr(0x1000_0000))
            .expect("mapped");
        let pb = sys
            .machine
            .translate_quiet(b.pid, VirtAddr(0x1000_0000))
            .expect("mapped");
        assert_ne!(pa.frame(), pb.frame());
        assert!(
            sys.machine.mem().pages_equal(pa.frame(), pb.frame()),
            "family-shared distro file"
        );
    }

    #[test]
    fn different_families_differ() {
        let mut sys = EngineKind::NoFusion.build_system(MachineConfig::test_small());
        let a = ImageSpec::small(1, 10).scaled(1, 4).boot(&mut sys, "a");
        let b = ImageSpec::small(2, 10).scaled(1, 4).boot(&mut sys, "b");
        let pa = sys
            .machine
            .translate_quiet(a.pid, VirtAddr(0x1000_0000))
            .expect("mapped");
        let pb = sys
            .machine
            .translate_quiet(b.pid, VirtAddr(0x1000_0000))
            .expect("mapped");
        assert!(!sys.machine.mem().pages_equal(pa.frame(), pb.frame()));
    }

    #[test]
    fn ksm_reclaims_duplicate_memory_across_twin_vms() {
        let mut sys = EngineKind::Ksm.build_system(MachineConfig::guest_2g_scaled());
        let spec = ImageSpec::small(0, 1);
        spec.boot(&mut sys, "a");
        // Second VM with a different unique seed: app data differs, rest dups.
        let spec_b = ImageSpec {
            unique_seed: 2,
            ..spec
        };
        spec_b.boot(&mut sys, "b");
        let before = sys.machine.allocated_frames();
        sys.force_scans(((spec.total_pages() * 2 * 5) / 100) as usize);
        let after = sys.machine.allocated_frames();
        let saved = before - after;
        // Base + lib + buddy dups + zero pages are shareable; app is not.
        assert!(
            saved as u64 > spec.total_pages() / 2,
            "expected substantial fusion, saved only {saved} of {}",
            spec.total_pages()
        );
    }

    #[test]
    fn catalog_has_44_diverse_images() {
        let c = ImageCatalog::das4(9);
        assert_eq!(c.len(), 44);
        let picked = c.pick(16, 1);
        assert_eq!(picked.len(), 16);
        let families: std::collections::BTreeSet<u64> = picked.iter().map(|s| s.family).collect();
        assert!(families.len() > 2, "selection spans families");
    }

    #[test]
    fn zero_pages_are_actually_zero() {
        let mut sys = EngineKind::NoFusion.build_system(MachineConfig::test_small());
        let spec = ImageSpec::small(3, 3).scaled(1, 4);
        let vm = spec.boot(&mut sys, "z");
        // The zero region sits between buddy and app; recompute its base the
        // same way boot did.
        let mut cursor = 0x1000_0000u64;
        let mut region = |pages: u64| {
            let start = cursor;
            cursor += (pages * PAGE_SIZE).next_multiple_of(2 * 1024 * 1024) + 2 * 1024 * 1024;
            start
        };
        let _ = region(spec.base_pages);
        let _ = region(spec.lib_pages);
        let _ = region(spec.buddy_pages);
        let zero_base = region(spec.zero_pages);
        // (kernel and app regions follow; not needed here)
        assert_eq!(sys.read(vm.pid, VirtAddr(zero_base)), 0);
        let pa = sys
            .machine
            .translate_quiet(vm.pid, VirtAddr(zero_base))
            .expect("mapped");
        assert!(sys.machine.mem().is_zero(pa.frame()));
    }
}
