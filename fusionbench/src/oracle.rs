//! The content oracle: what every mapped guest byte must read as.
//!
//! The expected content is computed from the image description alone
//! (never read back from the simulator), then updated with every store the
//! driver issues. A read that disagrees, or a page that disagrees in the
//! final sweep, is a correctness failure.

use vusion_kernel::{Machine, Pid, Process};
use vusion_mem::{VirtAddr, PAGE_SIZE};
use vusion_workloads::images::{labeled_page, ImageSpec};

const PAGE: usize = PAGE_SIZE as usize;
const TWO_MIB: u64 = 2 * 1024 * 1024;

/// Where `ImageSpec::boot` starts laying out a guest's regions.
const BOOT_BASE: u64 = 0x1000_0000;

/// One guest region and its expected bytes.
#[derive(Clone)]
pub struct Region {
    pub start: u64,
    pub pages: u64,
    bytes: Vec<u8>,
}

impl Region {
    fn new(start: u64, pages: u64, content: impl Fn(u64) -> [u8; PAGE]) -> Self {
        let mut bytes = Vec::with_capacity(pages as usize * PAGE);
        for i in 0..pages {
            bytes.extend_from_slice(&content(i));
        }
        Self {
            start,
            pages,
            bytes,
        }
    }

    /// Address of byte `off` of page `page`.
    pub fn va(&self, page: u64, off: u64) -> VirtAddr {
        VirtAddr(self.start + page * PAGE_SIZE + off)
    }

    fn contains(&self, va: VirtAddr) -> bool {
        va.0 >= self.start && va.0 < self.start + self.pages * PAGE_SIZE
    }

    fn index(&self, va: VirtAddr) -> usize {
        (va.0 - self.start) as usize
    }
}

/// Region indices inside [`Guest::regions`], in `ImageSpec::boot` order.
pub const BUDDY: usize = 2;
/// The benchmark footprint, when a workload maps one (after the six image
/// regions).
pub const FOOTPRINT: usize = 6;

/// One guest (a VM process) and its regions.
#[derive(Clone)]
pub struct Guest {
    pub pid: Pid,
    pub regions: Vec<Region>,
}

impl Guest {
    /// Total pages across regions.
    pub fn pages(&self) -> u64 {
        self.regions.iter().map(|r| r.pages).sum()
    }

    fn region(&self, va: VirtAddr) -> Option<&Region> {
        self.regions.iter().find(|r| r.contains(va))
    }

    fn region_mut(&mut self, va: VirtAddr) -> Option<&mut Region> {
        self.regions.iter_mut().find(|r| r.contains(va))
    }
}

/// Expected content of every guest page a workload maps.
#[derive(Clone)]
pub struct Oracle {
    pub guests: Vec<Guest>,
}

/// The benchmark footprint mapped into guest 0: base address and the
/// content label of its pages.
#[derive(Debug, Clone, Copy)]
pub struct Footprint {
    pub base: u64,
    pub pages: u64,
    pub label: u64,
}

impl Footprint {
    /// Initial content of footprint page `i`.
    pub fn page(&self, i: u64) -> [u8; PAGE] {
        labeled_page(self.label ^ (i << 24))
    }
}

impl Oracle {
    /// The oracle for guests booted from `specs` in order (pid `i` is
    /// guest `i`), with an optional footprint in guest 0.
    pub fn new(specs: &[ImageSpec], footprint: Option<Footprint>) -> Self {
        let guests = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let mut regions = image_regions(spec);
                if let (0, Some(fp)) = (i, footprint) {
                    regions.push(Region::new(fp.base, fp.pages, |p| fp.page(p)));
                }
                Guest {
                    pid: Pid(i),
                    regions,
                }
            })
            .collect();
        Self { guests }
    }

    /// Expected byte at `va` of guest `g`.
    pub fn byte(&self, g: usize, va: VirtAddr) -> u8 {
        let r = self.guests[g]
            .region(va)
            .expect("address inside a modelled region");
        r.bytes[r.index(va)]
    }

    /// Records a completed store.
    pub fn store(&mut self, g: usize, va: VirtAddr, value: u8) {
        let r = self.guests[g]
            .region_mut(va)
            .expect("address inside a modelled region");
        let i = r.index(va);
        r.bytes[i] = value;
    }

    /// Expected content of the page at `va`.
    pub fn page(&self, g: usize, va: VirtAddr) -> &[u8] {
        let r = self.guests[g]
            .region(va)
            .expect("address inside a modelled region");
        let i = r.index(va.page_base());
        &r.bytes[i..i + PAGE]
    }

    /// Checks that the machine's address spaces hold exactly the modelled
    /// regions. A mismatch means this model no longer describes how the
    /// images boot, and every check it makes would be meaningless.
    pub fn check_layout(&self, m: &Machine) -> Result<(), String> {
        for g in &self.guests {
            let vmas: Vec<(u64, u64)> = m
                .process(g.pid)
                .space
                .vmas()
                .iter()
                .map(|v| (v.start.0, v.pages))
                .collect();
            let model: Vec<(u64, u64)> = g.regions.iter().map(|r| (r.start, r.pages)).collect();
            if vmas != model {
                return Err(format!(
                    "oracle layout of {:?} is {model:x?}, machine has {vmas:x?}",
                    g.pid
                ));
            }
        }
        Ok(())
    }
}

/// The six regions `ImageSpec::boot` maps, with their boot-time content:
/// family file, shared libraries, guest buddy, zero, kernel, app.
fn image_regions(spec: &ImageSpec) -> Vec<Region> {
    let mut cursor = BOOT_BASE;
    let mut next = |pages: u64| {
        let start = cursor;
        cursor += (pages * PAGE_SIZE).next_multiple_of(TWO_MIB) + TWO_MIB;
        start
    };
    let family = spec.family;
    let unique = spec.unique_seed;
    let base = next(spec.base_pages);
    let lib = next(spec.lib_pages);
    let buddy = next(spec.buddy_pages);
    let zero = next(spec.zero_pages);
    let kernel = next(spec.kernel_pages);
    let app = next(spec.app_pages);
    vec![
        Region::new(base, spec.base_pages, |i| {
            Process::file_page_content(0x1000 + family, i)
        }),
        Region::new(lib, spec.lib_pages, |i| Process::file_page_content(0x1, i)),
        Region::new(buddy, spec.buddy_pages, |i| {
            if i % 4 == 0 {
                [0u8; PAGE]
            } else {
                labeled_page(0xb0dd_0000 ^ (family << 32) ^ i)
            }
        }),
        Region::new(zero, spec.zero_pages, |_| [0u8; PAGE]),
        Region::new(kernel, spec.kernel_pages, |i| {
            labeled_page(0x6e71_0000 ^ (family << 48) ^ (i << 8))
        }),
        Region::new(app, spec.app_pages, |i| {
            labeled_page(unique.wrapping_mul(0x1_0001) ^ (i << 40) | 1)
        }),
    ]
}
