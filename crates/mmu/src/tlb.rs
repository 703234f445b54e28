//! A translation lookaside buffer.
//!
//! The TLB matters to the reproduction in two ways: performance (huge pages
//! exist to reduce TLB misses — the entire motivation of §8) and security
//! (a TLB hit skips the page-table walk, so the AnC attack needs the walk
//! entries evicted; the paper's §5.3 also mentions TLB-based side channels).
//!
//! Each page size is a fully associative FIFO array. Every operation is
//! O(1) and allocation-free once the array is warm: a [`U64Map`] finds an
//! entry by page number, a `VecDeque` keeps fill order, and invalidation
//! leaves a stale FIFO tag behind instead of searching the queue.

use std::collections::VecDeque;

use vusion_mem::{FrameId, U64Map, VirtAddr, HUGE_PAGE_SIZE, PAGE_SIZE};

use crate::pte::Pte;

#[cfg(test)]
mod reference;

/// A cached translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// The leaf PTE at fill time.
    pub pte: Pte,
    /// Whether it is a 2 MiB translation.
    pub huge: bool,
}

/// The entries of one page size: contents in `index`, fill order in
/// `fifo`.
struct FifoArray {
    cap: usize,
    /// Page number → `(seq, pte)`, where `seq` is the fill sequence
    /// number of the FIFO tag that owns the entry.
    index: U64Map<(u64, Pte)>,
    /// `(key, seq)` per fill, oldest first. A tag is stale once its key
    /// was invalidated (the entry is gone, or a later fill owns it under
    /// a newer `seq`); eviction skips stale tags.
    fifo: VecDeque<(u64, u64)>,
    next_seq: u64,
}

impl FifoArray {
    fn new(cap: usize) -> Self {
        Self {
            cap,
            index: U64Map::new(),
            fifo: VecDeque::new(),
            next_seq: 0,
        }
    }

    fn get(&self, key: u64) -> Option<Pte> {
        self.index.get(key).map(|&(_, pte)| pte)
    }

    /// Inserts or overwrites `key`; a new key past capacity evicts the
    /// oldest live entry and returns its PTE. An overwrite keeps its FIFO
    /// position.
    fn fill(&mut self, key: u64, pte: Pte) -> Option<Pte> {
        let (entry, inserted) = self.index.get_or_insert(key, (self.next_seq + 1, pte));
        if !inserted {
            entry.1 = pte;
            return None;
        }
        self.next_seq += 1;
        self.fifo.push_back((key, self.next_seq));
        if self.index.len() > self.cap {
            return self.evict_oldest();
        }
        // Stale tags only pile up when invalidations outpace evictions;
        // dropping them once the queue doubles the capacity costs O(1)
        // amortized per fill.
        if self.fifo.len() / 2 > self.cap {
            let mut fifo = std::mem::take(&mut self.fifo);
            fifo.retain(|&(key, seq)| self.live(key, seq).is_some());
            self.fifo = fifo;
        }
        None
    }

    /// The PTE of the entry FIFO tag `(key, seq)` stands for, unless the
    /// tag is stale.
    fn live(&self, key: u64, seq: u64) -> Option<Pte> {
        self.index
            .get(key)
            .filter(|&&(s, _)| s == seq)
            .map(|&(_, pte)| pte)
    }

    fn evict_oldest(&mut self) -> Option<Pte> {
        while let Some((key, seq)) = self.fifo.pop_front() {
            if let Some((_, pte)) = self.index.remove_if(key, |&(s, _)| s == seq) {
                return Some(pte);
            }
        }
        None
    }

    fn invalidate(&mut self, key: u64) {
        self.index.remove(key);
    }

    fn clear(&mut self) {
        self.index.clear();
        self.fifo.clear();
    }

    /// Live entries in slot order.
    fn resident(&self) -> impl Iterator<Item = Pte> + '_ {
        self.index.iter().map(|(_, &(_, pte))| pte)
    }

    /// Live entries, oldest first.
    fn in_fifo_order(&self) -> impl Iterator<Item = (u64, Pte)> + '_ {
        self.fifo
            .iter()
            .filter_map(|&(key, seq)| Some((key, self.live(key, seq)?)))
    }

    fn save(&self, w: &mut vusion_snapshot::Writer) {
        w.usize(self.index.len());
        for (key, pte) in self.in_fifo_order() {
            w.u64(key);
            w.u64(pte.0);
        }
    }

    /// Reads the entries [`Self::save`] wrote into this (empty) array.
    fn load(
        &mut self,
        r: &mut vusion_snapshot::Reader<'_>,
    ) -> Result<(), vusion_snapshot::SnapshotError> {
        use vusion_snapshot::SnapshotError;
        let n = r.usize()?;
        if n > self.cap {
            return Err(SnapshotError::Corrupt(
                "TLB holds more entries than its capacity",
            ));
        }
        for _ in 0..n {
            let key = r.u64()?;
            let pte = Pte(r.u64()?);
            if self.index.contains_key(key) {
                return Err(SnapshotError::Corrupt("TLB entry duplicated"));
            }
            self.fill(key, pte);
        }
        Ok(())
    }
}

/// Fully associative TLB with FIFO replacement and separate 4 KiB / 2 MiB
/// arrays (like real x86 STLBs, modeled simply).
pub struct Tlb {
    small: FifoArray,
    huge: FifoArray,
    hits: u64,
    misses: u64,
    invalidations: u64,
    flushes: u64,
}

impl Tlb {
    /// Creates a TLB with the given entry counts.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    pub fn new(cap_4k: usize, cap_2m: usize) -> Self {
        assert!(cap_4k > 0 && cap_2m > 0, "TLB capacities must be positive");
        Self {
            small: FifoArray::new(cap_4k),
            huge: FifoArray::new(cap_2m),
            hits: 0,
            misses: 0,
            invalidations: 0,
            flushes: 0,
        }
    }

    /// A typical size: 1536 4 KiB entries, 32 2 MiB entries.
    pub fn skylake() -> Self {
        Self::new(1536, 32)
    }

    /// Looks up `va`; counts a hit or miss.
    pub fn lookup(&mut self, va: VirtAddr) -> Option<TlbEntry> {
        let hit = match self.huge.get(va.0 / HUGE_PAGE_SIZE) {
            Some(pte) => Some(TlbEntry { pte, huge: true }),
            None => self
                .small
                .get(va.page())
                .map(|pte| TlbEntry { pte, huge: false }),
        };
        if hit.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Inserts a translation after a successful walk; returns the entry a
    /// full array evicted.
    pub fn fill(&mut self, va: VirtAddr, entry: TlbEntry) -> Option<TlbEntry> {
        let (array, key) = if entry.huge {
            (&mut self.huge, va.0 / HUGE_PAGE_SIZE)
        } else {
            (&mut self.small, va.page())
        };
        array.fill(key, entry.pte).map(|pte| TlbEntry {
            pte,
            huge: entry.huge,
        })
    }

    /// Iterates every resident entry, 4 KiB then 2 MiB, in no particular
    /// order. Read-only — snapshot-time occupancy walks use this.
    pub fn entries(&self) -> impl Iterator<Item = TlbEntry> + '_ {
        let small = self
            .small
            .resident()
            .map(|pte| TlbEntry { pte, huge: false });
        let huge = self.huge.resident().map(|pte| TlbEntry { pte, huge: true });
        small.chain(huge)
    }

    /// Invalidates any translation covering `va` (`invlpg`).
    pub fn invalidate(&mut self, va: VirtAddr) {
        self.invalidations += 1;
        self.small.invalidate(va.page());
        self.huge.invalidate(va.0 / HUGE_PAGE_SIZE);
    }

    /// Flushes everything (CR3 reload).
    pub fn flush(&mut self) {
        self.flushes += 1;
        self.small.clear();
        self.huge.clear();
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// `(invalidations, full flushes)` — the shootdown traffic the
    /// observability layer reports (`invlpg` per PTE rewrite, CR3 reloads
    /// on THP breaks and process switches).
    pub fn event_counts(&self) -> (u64, u64) {
        (self.invalidations, self.flushes)
    }

    /// The frame a cached translation resolves `va` to (test helper).
    pub fn translate_frame(&mut self, va: VirtAddr) -> Option<FrameId> {
        let e = self.lookup(va)?;
        if e.huge {
            let offset_pages = (va.0 % HUGE_PAGE_SIZE) / PAGE_SIZE;
            Some(FrameId(e.pte.frame().0 + offset_pages))
        } else {
            Some(e.pte.frame())
        }
    }
}

impl vusion_snapshot::Snapshot for Tlb {
    fn save(&self, w: &mut vusion_snapshot::Writer) {
        w.usize(self.small.cap);
        w.usize(self.huge.cap);
        // Entries travel in FIFO order, so a load round-trips both content
        // and eviction order.
        self.small.save(w);
        self.huge.save(w);
        w.u64(self.hits);
        w.u64(self.misses);
        w.u64(self.invalidations);
        w.u64(self.flushes);
    }

    fn load(
        &mut self,
        r: &mut vusion_snapshot::Reader<'_>,
    ) -> Result<(), vusion_snapshot::SnapshotError> {
        let cap_4k = r.usize()?;
        let cap_2m = r.usize()?;
        if cap_4k == 0 || cap_2m == 0 {
            return Err(vusion_snapshot::SnapshotError::Corrupt(
                "TLB capacity is zero",
            ));
        }
        self.small = FifoArray::new(cap_4k);
        self.huge = FifoArray::new(cap_2m);
        self.small.load(r)?;
        self.huge.load(r)?;
        self.hits = r.u64()?;
        self.misses = r.u64()?;
        self.invalidations = r.u64()?;
        self.flushes = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pte::PteFlags;

    fn entry(frame: u64, huge: bool) -> TlbEntry {
        TlbEntry {
            pte: Pte::new(FrameId(frame), PteFlags::PRESENT),
            huge,
        }
    }

    #[test]
    fn fill_then_hit() {
        let mut t = Tlb::new(4, 4);
        assert!(t.lookup(VirtAddr(0x1000)).is_none());
        t.fill(VirtAddr(0x1000), entry(7, false));
        assert_eq!(
            t.lookup(VirtAddr(0x1234)).expect("hit").pte.frame(),
            FrameId(7)
        );
        assert_eq!(t.stats(), (1, 1));
    }

    #[test]
    fn huge_entry_covers_2m() {
        let mut t = Tlb::new(4, 4);
        t.fill(VirtAddr(HUGE_PAGE_SIZE), entry(512, true));
        assert!(t
            .lookup(VirtAddr(HUGE_PAGE_SIZE + 123 * PAGE_SIZE))
            .is_some());
        assert_eq!(
            t.translate_frame(VirtAddr(HUGE_PAGE_SIZE + 123 * PAGE_SIZE)),
            Some(FrameId(512 + 123))
        );
    }

    #[test]
    fn fifo_eviction() {
        let mut t = Tlb::new(2, 2);
        t.fill(VirtAddr(0x1000), entry(1, false));
        t.fill(VirtAddr(0x2000), entry(2, false));
        t.fill(VirtAddr(0x3000), entry(3, false));
        assert!(t.lookup(VirtAddr(0x1000)).is_none(), "oldest evicted");
        assert!(t.lookup(VirtAddr(0x2000)).is_some());
        assert!(t.lookup(VirtAddr(0x3000)).is_some());
    }

    #[test]
    fn invalidate_removes_entry() {
        let mut t = Tlb::new(4, 4);
        t.fill(VirtAddr(0x1000), entry(1, false));
        t.invalidate(VirtAddr(0x1000));
        assert!(t.lookup(VirtAddr(0x1000)).is_none());
    }

    #[test]
    fn flush_clears_all() {
        let mut t = Tlb::new(4, 4);
        t.fill(VirtAddr(0x1000), entry(1, false));
        t.fill(VirtAddr(HUGE_PAGE_SIZE * 4), entry(1024, true));
        t.flush();
        assert!(t.lookup(VirtAddr(0x1000)).is_none());
        assert!(t.lookup(VirtAddr(HUGE_PAGE_SIZE * 4)).is_none());
    }

    #[test]
    fn event_counts_track_shootdowns_and_flushes() {
        let mut t = Tlb::new(4, 4);
        t.fill(VirtAddr(0x1000), entry(1, false));
        t.invalidate(VirtAddr(0x1000));
        t.invalidate(VirtAddr(0x2000)); // Counts even when nothing is cached.
        t.flush();
        assert_eq!(t.event_counts(), (2, 1));
    }

    #[test]
    fn refill_does_not_duplicate_fifo() {
        let mut t = Tlb::new(2, 2);
        t.fill(VirtAddr(0x1000), entry(1, false));
        t.fill(VirtAddr(0x1000), entry(9, false));
        t.fill(VirtAddr(0x2000), entry(2, false));
        // Capacity 2: both entries must still be present.
        assert_eq!(
            t.lookup(VirtAddr(0x1000)).expect("hit").pte.frame(),
            FrameId(9)
        );
        assert!(t.lookup(VirtAddr(0x2000)).is_some());
    }

    /// Canonical view of a TLB's content: entries sorted, since the
    /// indexed TLB promises no iteration order.
    fn sorted(entries: impl Iterator<Item = TlbEntry>) -> Vec<(u64, bool)> {
        let mut v: Vec<(u64, bool)> = entries.map(|e| (e.pte.0, e.huge)).collect();
        v.sort_unstable();
        v
    }

    fn saved(save: impl FnOnce(&mut vusion_snapshot::Writer)) -> Vec<u8> {
        let mut w = vusion_snapshot::Writer::new();
        save(&mut w);
        w.into_bytes()
    }

    /// The indexed TLB against the ordered-map model it replaced: the same
    /// seeded operation stream must give the same return values, evicted
    /// victims, counters, contents and snapshot bytes after every step.
    #[test]
    fn matches_reference_model() {
        use vusion_rng::rngs::StdRng;
        use vusion_rng::{RngExt, SeedableRng};
        use vusion_snapshot::Snapshot;

        for (seed, cap_4k, cap_2m) in [(1u64, 8usize, 2usize), (2, 3, 1), (3, 16, 4)] {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x71b);
            let mut new = Tlb::new(cap_4k, cap_2m);
            let mut old = reference::RefTlb::new(cap_4k, cap_2m);
            for step in 0..10_000 {
                // Few huge regions and pages, so hits, refills, evictions
                // and overlapping 4 KiB / 2 MiB entries are all common.
                let va = VirtAddr(
                    rng.random_range(0..2u64) * HUGE_PAGE_SIZE
                        + rng.random_range(0..2 * cap_4k as u64) * PAGE_SIZE
                        + rng.random_range(0..PAGE_SIZE),
                );
                let frame = rng.random_range(0..1u64 << 20);
                match rng.random_range(0..100u32) {
                    0..35 => assert_eq!(new.lookup(va), old.lookup(va), "step {step}"),
                    35..65 => {
                        let e = entry(frame, false);
                        assert_eq!(new.fill(va, e), old.fill(va, e), "step {step}");
                    }
                    65..75 => {
                        let e = entry(frame & !511, true);
                        assert_eq!(new.fill(va, e), old.fill(va, e), "step {step}");
                    }
                    75..98 => {
                        new.invalidate(va);
                        old.invalidate(va);
                    }
                    _ => {
                        new.flush();
                        old.flush();
                    }
                }
                assert_eq!(new.stats(), old.stats(), "step {step}");
                assert_eq!(new.event_counts(), old.event_counts(), "step {step}");
                assert_eq!(
                    sorted(new.entries()),
                    sorted(old.entries().copied()),
                    "step {step}"
                );
                let bytes = saved(|w| new.save(w));
                assert_eq!(bytes, saved(|w| old.save(w)), "step {step}");
                if step % 500 == 0 {
                    let mut back = Tlb::new(1, 1);
                    back.load(&mut vusion_snapshot::Reader::new(&bytes))
                        .expect("own stream loads");
                    assert_eq!(saved(|w| back.save(w)), bytes, "step {step}");
                }
            }
            assert_eq!(saved(|w| new.save(w)), saved(|w| old.save(w)));
        }
    }

    /// A TLB stream with the given capacities and 4 KiB entries (no 2 MiB
    /// entries, zeroed counters).
    fn hand_stream(cap_4k: usize, cap_2m: usize, keys_4k: &[u64]) -> Vec<u8> {
        saved(|w| {
            w.usize(cap_4k);
            w.usize(cap_2m);
            w.usize(keys_4k.len());
            for &k in keys_4k {
                w.u64(k);
                w.u64(entry(k, false).pte.0);
            }
            w.usize(0);
            for _ in 0..4 {
                w.u64(0);
            }
        })
    }

    fn load(bytes: &[u8]) -> Result<Tlb, vusion_snapshot::SnapshotError> {
        use vusion_snapshot::Snapshot;
        let mut t = Tlb::skylake();
        t.load(&mut vusion_snapshot::Reader::new(bytes))?;
        Ok(t)
    }

    #[test]
    fn load_rejects_impossible_state() {
        use vusion_snapshot::SnapshotError;
        assert!(load(&hand_stream(2, 2, &[1, 2])).is_ok());
        assert!(matches!(
            load(&hand_stream(0, 2, &[])),
            Err(SnapshotError::Corrupt(_))
        ));
        assert!(matches!(
            load(&hand_stream(2, 0, &[])),
            Err(SnapshotError::Corrupt(_))
        ));
        assert!(matches!(
            load(&hand_stream(2, 2, &[1, 2, 3])),
            Err(SnapshotError::Corrupt(_))
        ));
        assert!(matches!(
            load(&hand_stream(2, 2, &[1, 1])),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn every_truncated_stream_is_an_error() {
        use vusion_snapshot::Snapshot;
        let mut t = Tlb::new(8, 2);
        for p in 0..12u64 {
            t.fill(VirtAddr(p * PAGE_SIZE), entry(p, false));
        }
        t.invalidate(VirtAddr(9 * PAGE_SIZE));
        t.fill(VirtAddr(HUGE_PAGE_SIZE), entry(512, true));
        t.lookup(VirtAddr(0x5000));
        let bytes = saved(|w| t.save(w));
        assert_eq!(
            saved(|w| load(&bytes).expect("whole stream").save(w)),
            bytes
        );
        for len in 0..bytes.len() {
            assert!(load(&bytes[..len]).is_err(), "prefix of {len} bytes");
        }
    }
}
