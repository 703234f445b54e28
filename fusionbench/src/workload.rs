//! The three workloads: their engines, their seeded inputs, their set-up
//! and their measured phase. Every input is drawn from the workload seed;
//! the simulator only ever sees the resulting calls.

use vusion_core::EngineKind;
use vusion_kernel::{FusionPolicy, MachineConfig};
use vusion_mem::{VirtAddr, PAGE_SIZE};
use vusion_mmu::{Protection, Vma};
use vusion_rng::rngs::StdRng;
use vusion_rng::{RngExt, SeedableRng};
use vusion_workloads::cpu_suites::CpuProfile;
use vusion_workloads::images::ImageSpec;

use crate::driver::Driver;
use crate::oracle::{Footprint, Oracle, BUDDY, FOOTPRINT};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Idle fleet: the scanners do almost all of the work.
    FleetIdle,
    /// Read-mostly guest accesses over a converged fleet.
    GuestAccess,
    /// Copy-on-write / copy-on-access churn on fused pages.
    CowChurn,
}

/// Run lengths of the measured phases (simulated work, fixed per seed).
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `fleet_idle`: simulated seconds of idling per engine.
    pub idle_sim_s: u64,
    /// `guest_access`: measured accesses per engine.
    pub access_ops: u64,
    /// `guest_access`: accesses between two scanner wakeups.
    pub access_chunk: u64,
    /// `cow_churn`: rounds per engine.
    pub churn_rounds: u64,
    /// `cow_churn`: fused pages picked per round.
    pub churn_picks: u64,
    /// `cow_churn`: scanner wakeups after each round.
    pub churn_wakeups: usize,
}

impl Sizes {
    /// The sizes the benchmark command runs.
    pub const FULL: Sizes = Sizes {
        idle_sim_s: 60,
        access_ops: 300_000,
        access_chunk: 2_000,
        churn_rounds: 150,
        churn_picks: 200,
        churn_wakeups: 4,
    };

    /// Small sizes for tests.
    #[cfg(test)]
    pub const TINY: Sizes = Sizes {
        idle_sim_s: 2,
        access_ops: 3_000,
        access_chunk: 1_000,
        churn_rounds: 2,
        churn_picks: 50,
        churn_wakeups: 2,
    };
}

/// Heartbeat period of `fleet_idle` (a read per guest each tick).
const HEARTBEAT_NS: u64 = 250_000_000;

/// Where `guest_access` maps its footprint inside guest 0.
const FOOTPRINT_BASE: u64 = 0xc000_0000;

/// The `guest_access` profile: read-mostly, working set larger than the
/// modelled LLC (2048 pages) and the 4 KiB TLB reach (1536 entries).
pub const PROFILE: CpuProfile = CpuProfile {
    name: "guest_access",
    footprint_pages: 4096,
    working_set_pages: 3072,
    write_frac: 0.10,
    cold_frac: 0.05,
};

/// Warm-up chunks `guest_access` runs in set-up, so caches are warm.
const WARM_CHUNKS: u64 = 4;

/// Salts separating the RNG streams drawn from one workload seed.
const SALT_FLEET: u64 = 0x666c_6565_7400;
const SALT_MACHINE: u64 = 0x6d61_6368_0000;
const SALT_WARM: u64 = 0x7761_726d_0000;
const SALT_MEASURE: u64 = 0x6d65_6173_0000;

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::FleetIdle,
        Workload::GuestAccess,
        Workload::CowChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetIdle => "fleet_idle",
            Workload::GuestAccess => "guest_access",
            Workload::CowChurn => "cow_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The engines the workload runs, in order.
    pub fn engines(self) -> &'static [EngineKind] {
        match self {
            Workload::FleetIdle => &[EngineKind::Ksm, EngineKind::Wpf, EngineKind::VUsion],
            Workload::GuestAccess => {
                &[EngineKind::NoFusion, EngineKind::Ksm, EngineKind::VUsionThp]
            }
            Workload::CowChurn => &[EngineKind::Ksm, EngineKind::VUsion],
        }
    }

    /// The host machine every engine of the workload starts from.
    pub fn machine(self, seed: u64) -> MachineConfig {
        let base = MachineConfig::guest_2g_scaled().with_seed(seed ^ SALT_MACHINE);
        match self {
            // Fig 7's host: THP on for every configuration.
            Workload::GuestAccess => base.with_thp(),
            _ => base,
        }
    }

    /// The fleet: four small images. `fleet_idle` mixes two families;
    /// the others use one, so every guest-buddy page has duplicates.
    pub fn fleet(self, seed: u64) -> Vec<ImageSpec> {
        let mut rng = StdRng::seed_from_u64(seed ^ SALT_FLEET);
        (0..4u64)
            .map(|i| {
                let family = match self {
                    Workload::FleetIdle => i / 2,
                    _ => 0,
                };
                ImageSpec::small(family, rng.random_range(1..u64::MAX >> 8))
            })
            .collect()
    }

    fn footprint(self, seed: u64) -> Option<Footprint> {
        (self == Workload::GuestAccess).then_some(Footprint {
            base: FOOTPRINT_BASE,
            pages: PROFILE.footprint_pages,
            label: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
        })
    }

    /// The oracle for this workload and seed, before anything runs.
    pub fn oracle(self, seed: u64) -> Oracle {
        Oracle::new(&self.fleet(seed), self.footprint(seed))
    }

    /// Set-up: boot the fleet, map the footprint, let fusion converge and
    /// warm the caches, as each workload needs.
    pub fn setup<P: FusionPolicy>(self, d: &mut Driver<P>, seed: u64, sizes: Sizes) {
        for (i, spec) in self.fleet(seed).iter().enumerate() {
            spec.boot(&mut d.sys, &format!("vm{i}"));
        }
        if let Some(fp) = self.footprint(seed) {
            let pid = d.oracle.guests[0].pid;
            let base = VirtAddr(fp.base);
            d.sys
                .machine
                .mmap(pid, Vma::anon(base, fp.pages, Protection::rw()));
            d.sys.machine.madvise_mergeable(pid, base, fp.pages);
            for i in 0..fp.pages {
                d.sys
                    .write_page(pid, VirtAddr(fp.base + i * PAGE_SIZE), &fp.page(i));
            }
        }
        match self {
            // Fusion starts cold: nothing hashed, nothing merged.
            Workload::FleetIdle => {}
            Workload::GuestAccess => {
                d.converge();
                let mut rng = StdRng::seed_from_u64(seed ^ SALT_WARM);
                for _ in 0..WARM_CHUNKS {
                    access_chunk(d, &mut rng, sizes.access_chunk);
                    d.force_scans(1);
                }
            }
            Workload::CowChurn => d.converge(),
        }
    }

    /// The measured phase.
    pub fn measure<P: FusionPolicy>(self, d: &mut Driver<P>, seed: u64, sizes: Sizes) {
        let mut rng = StdRng::seed_from_u64(seed ^ SALT_MEASURE);
        match self {
            Workload::FleetIdle => {
                let guests = d.oracle.guests.len();
                for _ in 0..sizes.idle_sim_s * 1_000_000_000 / HEARTBEAT_NS {
                    d.idle(HEARTBEAT_NS);
                    for g in 0..guests {
                        let va = random_byte(d, &mut rng, g);
                        d.read(g, va);
                    }
                }
            }
            Workload::GuestAccess => {
                for _ in 0..sizes.access_ops / sizes.access_chunk {
                    access_chunk(d, &mut rng, sizes.access_chunk);
                    d.force_scans(1);
                }
            }
            Workload::CowChurn => {
                let guests = d.oracle.guests.len() as u64;
                for _ in 0..sizes.churn_rounds {
                    for _ in 0..sizes.churn_picks {
                        let g = rng.random_range(0..guests) as usize;
                        let r = &d.oracle.guests[g].regions[BUDDY];
                        let page = rng.random_range(0..r.pages);
                        let va = r.va(page, rng.random_range(0..PAGE_SIZE));
                        let orig = d.oracle.byte(g, va);
                        let new = orig ^ rng.random_range(1..=255u8);
                        d.read(g, va);
                        d.write(g, va, new);
                        d.read(g, va);
                        d.write(g, va, orig);
                    }
                    d.force_scans(sizes.churn_wakeups);
                }
            }
        }
    }
}

/// A uniformly random byte address among guest `g`'s modelled pages.
fn random_byte<P: FusionPolicy>(d: &Driver<P>, rng: &mut StdRng, g: usize) -> VirtAddr {
    let guest = &d.oracle.guests[g];
    let mut page = rng.random_range(0..guest.pages());
    let off = rng.random_range(0..PAGE_SIZE);
    for r in &guest.regions {
        if page < r.pages {
            return r.va(page, off);
        }
        page -= r.pages;
    }
    unreachable!("page index drawn below the guest's page count")
}

/// `n` profile accesses on guest 0's footprint: hot working set with
/// occasional cold strays, one cache line per access, about one in ten a
/// write of a random byte.
fn access_chunk<P: FusionPolicy>(d: &mut Driver<P>, rng: &mut StdRng, n: u64) {
    let p = PROFILE;
    for _ in 0..n {
        let page = if rng.random_range(0.0..1.0) < p.cold_frac {
            rng.random_range(0..p.footprint_pages)
        } else {
            rng.random_range(0..p.working_set_pages)
        };
        let line = rng.random_range(0..PAGE_SIZE / 64);
        let va = d.oracle.guests[0].regions[FOOTPRINT].va(page, line * 64);
        if rng.random_range(0.0..1.0) < p.write_frac {
            let value = rng.random_range(0..=255u8);
            d.write(0, va, value);
        } else {
            d.read(0, va);
        }
    }
}
