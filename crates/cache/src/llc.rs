//! Physically indexed set-associative LLC with true-LRU replacement.
//!
//! All sets live in one flat `sets × ways` line array, each set's slice
//! ordered most-recently-used first with a per-set fill count, so an
//! access touches one contiguous slice and allocates nothing.

use vusion_mem::{FrameId, PhysAddr, PAGE_SIZE};

#[cfg(test)]
mod reference;

/// Geometry of the simulated LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcConfig {
    /// Number of cache sets.
    pub sets: usize,
    /// Associativity (lines per set).
    pub ways: usize,
    /// Line size in bytes.
    pub line_size: u64,
}

impl LlcConfig {
    /// The paper's testbed: Intel Xeon E3-1240 v5, 8 MiB LLC, 8192 sets of
    /// 16 ways of 64-byte lines, 128 page colors.
    pub fn xeon_e3_1240_v5() -> Self {
        Self {
            sets: 8192,
            ways: 16,
            line_size: 64,
        }
    }

    /// A small geometry for fast unit tests (16 colors).
    pub fn tiny() -> Self {
        Self {
            sets: 1024,
            ways: 4,
            line_size: 64,
        }
    }

    /// Number of cache sets a 4 KiB page covers.
    pub fn sets_per_page(&self) -> usize {
        (PAGE_SIZE / self.line_size) as usize
    }

    /// Number of page colors: distinct mappings of pages onto set groups.
    pub fn colors(&self) -> usize {
        self.sets / self.sets_per_page()
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line_size
    }
}

/// Whether an access hit or missed the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Line was present.
    Hit,
    /// Line was absent and has been filled (possibly evicting LRU).
    Miss,
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of hits.
    pub hits: u64,
    /// Number of misses.
    pub misses: u64,
    /// Number of evictions caused by fills.
    pub evictions: u64,
    /// Number of explicit flushes that actually removed a line.
    pub flushes: u64,
}

/// The simulated last-level cache.
pub struct Llc {
    cfg: LlcConfig,
    /// Global line indices (physical address / line size); set `s` owns
    /// `lines[s * ways..][..ways]`, MRU first, its first `lens[s]` valid.
    lines: Vec<u64>,
    lens: Vec<usize>,
    stats: CacheStats,
}

impl Llc {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets/ways, or pages
    /// smaller than one line group).
    pub fn new(cfg: LlcConfig) -> Self {
        assert!(
            cfg.sets > 0 && cfg.ways > 0 && cfg.line_size > 0,
            "degenerate cache geometry"
        );
        assert!(
            cfg.sets.is_multiple_of(cfg.sets_per_page()),
            "sets must be a multiple of sets-per-page"
        );
        Self {
            cfg,
            lines: vec![0; cfg.sets * cfg.ways],
            lens: vec![0; cfg.sets],
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> LlcConfig {
        self.cfg
    }

    /// Counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The set index a physical address maps to.
    pub fn set_index(&self, addr: PhysAddr) -> usize {
        self.locate(addr).1
    }

    /// The global line index of `addr` and the set it maps to. Shipped
    /// geometries are powers of two, where a shift and a mask replace two
    /// 64-bit divisions on every access.
    fn locate(&self, addr: PhysAddr) -> (u64, usize) {
        let LlcConfig {
            sets, line_size, ..
        } = self.cfg;
        let line = if line_size.is_power_of_two() {
            addr.0 >> line_size.trailing_zeros()
        } else {
            addr.0 / line_size
        };
        let set = if sets.is_power_of_two() {
            line & (sets as u64 - 1)
        } else {
            line % sets as u64
        };
        (line, set as usize)
    }

    /// The color of a physical frame: which group of sets its lines occupy.
    ///
    /// If the first line of two pages shares a set, all 64 lines do (§5.1),
    /// so the color is fully determined by the frame number.
    pub fn color_of(&self, frame: FrameId) -> usize {
        (frame.0 % self.cfg.colors() as u64) as usize
    }

    /// Accesses `addr`, updating LRU state; returns hit or miss.
    pub fn access(&mut self, addr: PhysAddr) -> CacheOutcome {
        self.access_evicting(addr).0
    }

    /// Like [`Self::access`], additionally reporting the global line index
    /// a capacity miss evicted (if any). State transitions are identical
    /// to `access` — this exists so the side-channel surface recorder can
    /// attribute evictions to the frames whose lines were displaced.
    /// The victim frame is `line * line_size / PAGE_SIZE`.
    pub fn access_evicting(&mut self, addr: PhysAddr) -> (CacheOutcome, Option<u64>) {
        let (line, set_idx) = self.locate(addr);
        let ways = self.cfg.ways;
        let len = self.lens[set_idx];
        let set = &mut self.lines[set_idx * ways..][..ways];
        if let Some(pos) = set[..len].iter().position(|&l| l == line) {
            set.copy_within(..pos, 1);
            set[0] = line;
            self.stats.hits += 1;
            (CacheOutcome::Hit, None)
        } else {
            let evicted = if len == ways {
                self.stats.evictions += 1;
                Some(set[ways - 1])
            } else {
                self.lens[set_idx] += 1;
                None
            };
            set.copy_within(..len.min(ways - 1), 1);
            set[0] = line;
            self.stats.misses += 1;
            (CacheOutcome::Miss, evicted)
        }
    }

    /// The line indices currently resident in `set` (MRU first). Used by
    /// snapshot-time occupancy walks; read-only.
    pub fn set_lines(&self, set: usize) -> &[u64] {
        &self.lines[set * self.cfg.ways..][..self.lens[set]]
    }

    /// Checks presence without touching LRU state (attack helper mirroring a
    /// timing-only probe; real probes also access, so prefer [`Self::access`]
    /// in end-to-end attacks).
    pub fn contains(&self, addr: PhysAddr) -> bool {
        let (line, set_idx) = self.locate(addr);
        self.set_lines(set_idx).contains(&line)
    }

    /// Flushes one line (the `clflush` instruction).
    pub fn flush(&mut self, addr: PhysAddr) {
        let (line, set_idx) = self.locate(addr);
        let len = self.lens[set_idx];
        let set = &mut self.lines[set_idx * self.cfg.ways..][..len];
        if let Some(pos) = set.iter().position(|&l| l == line) {
            set.copy_within(pos + 1.., pos);
            self.lens[set_idx] -= 1;
            self.stats.flushes += 1;
        }
    }

    /// Flushes every line of a frame.
    pub fn flush_frame(&mut self, frame: FrameId) {
        for i in 0..(PAGE_SIZE / self.cfg.line_size) {
            self.flush(frame.base() + i * self.cfg.line_size);
        }
    }

    /// Invalidates the entire cache (used between experiment repetitions).
    pub fn clear(&mut self) {
        self.lens.fill(0);
    }

    /// Returns `ways` physical addresses, one per distinct frame of the
    /// given color, that all map to the same cache set as `target_set`:
    /// an **eviction set** (§5.1). Frames are chosen from `candidates`.
    ///
    /// Returns `None` if `candidates` does not contain enough frames of the
    /// right color.
    pub fn eviction_set(&self, target_set: usize, candidates: &[FrameId]) -> Option<Vec<PhysAddr>> {
        let line_in_page = (target_set % self.cfg.sets_per_page()) as u64 * self.cfg.line_size;
        let color = target_set / self.cfg.sets_per_page();
        let mut out = Vec::with_capacity(self.cfg.ways);
        for &f in candidates {
            if self.color_of(f) == color {
                let addr = f.base() + line_in_page;
                debug_assert_eq!(self.set_index(addr), target_set);
                out.push(addr);
                if out.len() == self.cfg.ways {
                    return Some(out);
                }
            }
        }
        None
    }
}

impl vusion_snapshot::Snapshot for Llc {
    fn save(&self, w: &mut vusion_snapshot::Writer) {
        w.usize(self.cfg.sets);
        w.usize(self.cfg.ways);
        w.u64(self.cfg.line_size);
        for (set, &len) in self.lines.chunks_exact(self.cfg.ways).zip(&self.lens) {
            // MRU-first line order is the LRU state; it travels verbatim.
            w.u64s(&set[..len]);
        }
        w.u64(self.stats.hits);
        w.u64(self.stats.misses);
        w.u64(self.stats.evictions);
        w.u64(self.stats.flushes);
    }

    fn load(
        &mut self,
        r: &mut vusion_snapshot::Reader<'_>,
    ) -> Result<(), vusion_snapshot::SnapshotError> {
        use vusion_snapshot::SnapshotError;
        if r.usize()? != self.cfg.sets
            || r.usize()? != self.cfg.ways
            || r.u64()? != self.cfg.line_size
        {
            return Err(SnapshotError::Corrupt("cache geometry mismatch"));
        }
        let ways = self.cfg.ways;
        for (set, len) in self.lines.chunks_exact_mut(ways).zip(&mut self.lens) {
            // Same encoding as `Reader::u64s`, bounded by the associativity.
            let n = r.usize()?;
            if n > ways {
                return Err(SnapshotError::Corrupt(
                    "cache set holds more lines than ways",
                ));
            }
            for l in &mut set[..n] {
                *l = r.u64()?;
            }
            *len = n;
        }
        self.stats = CacheStats {
            hits: r.u64()?,
            misses: r.u64()?,
            evictions: r.u64()?,
            flushes: r.u64()?,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Llc {
        Llc::new(LlcConfig::tiny())
    }

    #[test]
    fn paper_geometry_has_128_colors() {
        let cfg = LlcConfig::xeon_e3_1240_v5();
        assert_eq!(cfg.colors(), 128);
        assert_eq!(cfg.sets_per_page(), 64);
        assert_eq!(cfg.capacity(), 8 * 1024 * 1024);
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny();
        assert_eq!(c.access(PhysAddr(0)), CacheOutcome::Miss);
        assert_eq!(c.access(PhysAddr(0)), CacheOutcome::Hit);
        assert_eq!(c.access(PhysAddr(32)), CacheOutcome::Hit, "same line");
        assert_eq!(c.access(PhysAddr(64)), CacheOutcome::Miss, "next line");
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        let ways = c.config().ways as u64;
        let stride = c.config().sets as u64 * c.config().line_size;
        // Fill one set completely, then one more: the first line must go.
        for i in 0..=ways {
            assert_eq!(c.access(PhysAddr(i * stride)), CacheOutcome::Miss);
        }
        assert_eq!(
            c.access(PhysAddr(0)),
            CacheOutcome::Miss,
            "LRU line evicted"
        );
        // Re-inserting line 0 evicted line 1 (now the LRU); line 2 survives.
        assert_eq!(
            c.access(PhysAddr(2 * stride)),
            CacheOutcome::Hit,
            "younger line survives"
        );
    }

    #[test]
    fn flush_removes_line() {
        let mut c = tiny();
        c.access(PhysAddr(128));
        assert!(c.contains(PhysAddr(128)));
        c.flush(PhysAddr(128));
        assert!(!c.contains(PhysAddr(128)));
        assert_eq!(c.access(PhysAddr(128)), CacheOutcome::Miss);
        assert_eq!(c.stats().flushes, 1);
    }

    #[test]
    fn flush_frame_removes_all_lines() {
        let mut c = tiny();
        let f = FrameId(3);
        for i in 0..64u64 {
            c.access(f.base() + i * 64);
        }
        c.flush_frame(f);
        for i in 0..64u64 {
            assert!(!c.contains(f.base() + i * 64));
        }
    }

    #[test]
    fn colors_repeat_with_period() {
        let c = tiny();
        let colors = c.config().colors();
        assert_eq!(c.color_of(FrameId(0)), c.color_of(FrameId(colors as u64)));
        assert_ne!(c.color_of(FrameId(0)), c.color_of(FrameId(1)));
    }

    #[test]
    fn pages_cover_consecutive_sets() {
        // The §5.1 observation: if the first lines of two pages share a set,
        // all 64 lines do.
        let c = tiny();
        let (a, b) = (FrameId(0), FrameId(c.config().colors() as u64));
        assert_eq!(c.set_index(a.base()), c.set_index(b.base()));
        for i in 0..64u64 {
            assert_eq!(
                c.set_index(a.base() + i * 64),
                c.set_index(b.base() + i * 64)
            );
        }
    }

    #[test]
    fn eviction_set_covers_target_set() {
        let mut c = tiny();
        let colors = c.config().colors() as u64;
        let ways = c.config().ways;
        // Candidate frames of every color, several rounds worth — starting
        // past the victim frame so the eviction set never aliases it.
        let candidates: Vec<FrameId> = (colors..colors * (ways as u64 + 2)).map(FrameId).collect();
        let target_set = 5 * c.config().sets_per_page() + 17; // Color 5, line 17.
        let ev = c
            .eviction_set(target_set, &candidates)
            .expect("enough candidates");
        assert_eq!(ev.len(), ways);
        for &a in &ev {
            assert_eq!(c.set_index(a), target_set);
        }
        // Priming with the eviction set evicts a victim line in that set.
        let victim = FrameId(5).base() + 17 * 64;
        assert_eq!(c.set_index(victim), target_set);
        c.access(victim);
        for &a in &ev {
            c.access(a);
        }
        assert!(!c.contains(victim), "PRIME must evict the victim line");
    }

    #[test]
    fn eviction_set_fails_without_candidates() {
        let c = tiny();
        let candidates: Vec<FrameId> = vec![FrameId(1)]; // Wrong color for set 0.
        assert!(c.eviction_set(0, &candidates).is_none());
    }

    #[test]
    fn clear_empties_cache() {
        let mut c = tiny();
        c.access(PhysAddr(0));
        c.clear();
        assert!(!c.contains(PhysAddr(0)));
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut c = tiny();
        c.access(PhysAddr(0));
        c.access(PhysAddr(0));
        c.access(PhysAddr(64));
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
    }

    fn saved(save: impl FnOnce(&mut vusion_snapshot::Writer)) -> Vec<u8> {
        let mut w = vusion_snapshot::Writer::new();
        save(&mut w);
        w.into_bytes()
    }

    /// A small geometry: 16 sets of 3 ways, 512-byte lines (8 sets per
    /// page, 2 colors), so a few dozen lines already thrash every set.
    fn small_cfg() -> LlcConfig {
        LlcConfig {
            sets: 16,
            ways: 3,
            line_size: 512,
        }
    }

    /// The flat cache against the set-of-vectors model it replaced: the
    /// same seeded operation stream must give the same outcomes, evicted
    /// lines, counters, set contents and snapshot bytes after every step.
    #[test]
    fn matches_reference_model() {
        use vusion_rng::rngs::StdRng;
        use vusion_rng::{RngExt, SeedableRng};
        use vusion_snapshot::Snapshot;

        let base = small_cfg();
        let configs = [
            base,
            LlcConfig { ways: 1, ..base },
            LlcConfig { ways: 5, ..base },
            // Geometries off the shift-and-mask fast path.
            LlcConfig { sets: 24, ..base },
            LlcConfig {
                sets: 15,
                ways: 3,
                line_size: 768,
            },
        ];
        for (seed, cfg) in (1u64..).zip(configs) {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x11c);
            let mut new = Llc::new(cfg);
            let mut old = reference::RefLlc::new(cfg);
            for step in 0..10_000 {
                let addr = PhysAddr(rng.random_range(0..6 * PAGE_SIZE));
                match rng.random_range(0..100u32) {
                    0..70 => assert_eq!(
                        new.access_evicting(addr),
                        old.access_evicting(addr),
                        "step {step}"
                    ),
                    70..80 => assert_eq!(new.contains(addr), old.contains(addr), "step {step}"),
                    80..95 => {
                        new.flush(addr);
                        old.flush(addr);
                    }
                    95..99 => {
                        new.flush_frame(addr.frame());
                        old.flush_frame(addr.frame());
                    }
                    _ => {
                        new.clear();
                        old.clear();
                    }
                }
                assert_eq!(new.stats(), old.stats(), "step {step}");
                for set in 0..cfg.sets {
                    assert_eq!(new.set_lines(set), old.set_lines(set), "step {step}");
                }
                if step % 500 == 0 {
                    let bytes = saved(|w| new.save(w));
                    assert_eq!(bytes, saved(|w| old.save(w)), "step {step}");
                    let mut back = Llc::new(cfg);
                    back.load(&mut vusion_snapshot::Reader::new(&bytes))
                        .expect("own stream loads");
                    assert_eq!(saved(|w| back.save(w)), bytes, "step {step}");
                }
            }
            assert_eq!(saved(|w| new.save(w)), saved(|w| old.save(w)));
        }
    }

    fn load(cfg: LlcConfig, bytes: &[u8]) -> Result<Llc, vusion_snapshot::SnapshotError> {
        use vusion_snapshot::Snapshot;
        let mut c = Llc::new(cfg);
        c.load(&mut vusion_snapshot::Reader::new(bytes))?;
        Ok(c)
    }

    #[test]
    fn load_rejects_overfull_set() {
        let cfg = small_cfg();
        let stream = |first_set: &[u64]| {
            saved(|w| {
                w.usize(cfg.sets);
                w.usize(cfg.ways);
                w.u64(cfg.line_size);
                w.u64s(first_set);
                for _ in 1..cfg.sets {
                    w.u64s(&[]);
                }
                for _ in 0..4 {
                    w.u64(0);
                }
            })
        };
        let full = load(cfg, &stream(&[0, 16, 32])).expect("full set loads");
        assert_eq!(full.set_lines(0), &[0, 16, 32]);
        assert!(matches!(
            load(cfg, &stream(&[0, 16, 32, 48])),
            Err(vusion_snapshot::SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn every_truncated_stream_is_an_error() {
        use vusion_snapshot::Snapshot;
        let cfg = small_cfg();
        let mut c = Llc::new(cfg);
        for i in 0..40u64 {
            c.access(PhysAddr(i * 7 * 512));
        }
        c.flush(PhysAddr(39 * 7 * 512));
        let bytes = saved(|w| c.save(w));
        assert_eq!(
            saved(|w| load(cfg, &bytes).expect("whole stream").save(w)),
            bytes
        );
        for len in 0..bytes.len() {
            assert!(load(cfg, &bytes[..len]).is_err(), "prefix of {len} bytes");
        }
    }
}
