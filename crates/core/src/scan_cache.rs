//! Scan-path caching shared by the fusion engines: a content-hash index
//! over a content tree's pages, and an incremental candidate list.
//!
//! Both are pure wall-clock optimizations. The hash index only ever
//! answers "definitely not in the tree" (equal content implies equal
//! hash; a hash collision merely wastes one authoritative tree descent),
//! and the candidate cache reproduces exactly the list a fresh
//! enumeration would build, because rebuilds are deterministic and every
//! layout mutation bumps the machine's epoch. Neither changes a single
//! simulated-cycle charge or merge decision.

use vusion_kernel::{Machine, Pid};
use vusion_mem::{FrameId, PhysMemory, U64Map, VirtAddr, PAGE_SIZE};

/// Bits of a page key that hold the page number (virtual addresses below
/// 2^52); the process id takes the 24 bits above them.
const PAGE_KEY_BITS: u32 = 40;

/// Whether a `(pid, page)` pair fits the page-key layout.
fn fits_page_key(pid: usize, page: u64) -> bool {
    (pid as u64) >> (64 - PAGE_KEY_BITS) == 0 && page >> PAGE_KEY_BITS == 0
}

fn pack_page_key(pid: usize, page: u64) -> u64 {
    ((pid as u64) << PAGE_KEY_BITS) | page
}

/// Packs `(pid, page of va)` into one [`U64Map`] key. Keys sort like the
/// `(pid, page)` pairs they pack, so sorted keys reproduce the order of a
/// map keyed by the pair.
pub(crate) fn page_key(pid: Pid, va: VirtAddr) -> u64 {
    debug_assert!(
        fits_page_key(pid.0, va.page()),
        "page key out of range: {pid:?} {va:?}"
    );
    pack_page_key(pid.0, va.page())
}

/// [`page_key`] of a `(pid, page)` pair read from a snapshot stream, or
/// `Corrupt` if the pair does not fit a key.
pub(crate) fn load_page_key(pid: usize, page: u64) -> Result<u64, vusion_snapshot::SnapshotError> {
    if !fits_page_key(pid, page) {
        return Err(vusion_snapshot::SnapshotError::Corrupt(
            "page key out of range",
        ));
    }
    Ok(pack_page_key(pid, page))
}

/// The `(pid, page)` pair a [`page_key`] packs.
pub(crate) fn unpack_page_key(key: u64) -> (usize, u64) {
    (
        (key >> PAGE_KEY_BITS) as usize,
        key & ((1 << PAGE_KEY_BITS) - 1),
    )
}

/// Content-hash index mirroring a content tree's node frames.
///
/// `may_contain(probe)` pre-filters tree searches: if the probe page's
/// hash is absent from the multiset of tree-page hashes, no tree page can
/// be content-equal and the O(log n) full-page-compare descent is
/// skipped. Every entry records the frame's write generation, so entries
/// whose page changed since they were recorded can be found
/// ([`HashIndex::stale_frames`]) — guests write the pages of KSM's
/// unstable tree, which is evicted surgically that way every wakeup.
///
/// Pages of the other trees (KSM's stable tree, WPF's AVL tree, VUsion's
/// tree) are write-protected or trapped: no guest can write them, so only
/// a Rowhammer bit flip changes one. [`HashIndex::refresh`] re-syncs them
/// with one walk after the memory's flip epoch moved, and costs nothing
/// otherwise.
#[derive(Default)]
pub(crate) struct HashIndex {
    by_frame: U64Map<(u64, u64)>, // frame -> (hash, write_gen)
    counts: U64Map<u32>,          // hash -> tree pages bearing it
    /// [`PhysMemory::flip_epoch`] at the last full re-sync; `None` until
    /// the first (a fresh or restored index walks once).
    synced_epoch: Option<u64>,
}

impl HashIndex {
    fn bump(counts: &mut U64Map<u32>, hash: u64) {
        *counts.get_or_insert(hash, 0).0 += 1;
    }

    fn unbump(counts: &mut U64Map<u32>, hash: u64) {
        if let Some(c) = counts.get_mut(hash) {
            *c -= 1;
            if *c == 0 {
                counts.remove(hash);
            }
        }
    }

    /// Records `frame` as present in the tree.
    pub(crate) fn insert(&mut self, mem: &PhysMemory, frame: FrameId) {
        let hash = mem.hash_page(frame);
        let gen = mem.info(frame).write_gen;
        if let Some((old, _)) = self.by_frame.insert(frame.0, (hash, gen)) {
            Self::unbump(&mut self.counts, old);
        }
        Self::bump(&mut self.counts, hash);
    }

    /// Forgets `frame` (removed from the tree).
    pub(crate) fn remove(&mut self, frame: FrameId) {
        if let Some((hash, _)) = self.by_frame.remove(frame.0) {
            Self::unbump(&mut self.counts, hash);
        }
    }

    /// Re-keys `old`'s entry to `new` (VUsion's re-randomization). When
    /// the content moved verbatim the hash multiset is unchanged and only
    /// the entry moves; if `old` changed since it was indexed (a Rowhammer
    /// flip), this is a plain remove-then-insert.
    pub(crate) fn replace_frame(&mut self, mem: &PhysMemory, old: FrameId, new: FrameId) {
        let hash = mem.hash_page(new);
        match self.by_frame.remove(old.0) {
            Some((recorded, _)) if recorded == hash => {
                let gen = mem.info(new).write_gen;
                if let Some((prev, _)) = self.by_frame.insert(new.0, (hash, gen)) {
                    Self::unbump(&mut self.counts, prev);
                }
            }
            Some((recorded, _)) => {
                Self::unbump(&mut self.counts, recorded);
                self.insert(mem, new);
            }
            None => self.insert(mem, new),
        }
    }

    /// Drops everything (tree cleared or rebuilt).
    pub(crate) fn clear(&mut self) {
        self.by_frame.clear();
        self.counts.clear();
    }

    /// Frames whose recorded write generation no longer matches — their
    /// content changed (or their frame was freed and rewritten) since
    /// they were indexed — in ascending frame order.
    pub(crate) fn stale_frames(&self, mem: &PhysMemory) -> Vec<FrameId> {
        let mut stale: Vec<FrameId> = self
            .by_frame
            .iter()
            .filter(|&(f, &(_, gen))| mem.info(FrameId(f)).write_gen != gen)
            .map(|(f, _)| FrameId(f))
            .collect();
        stale.sort_unstable();
        stale
    }

    /// Re-syncs an index over pages no guest can write, and reports
    /// whether any entry was stale. Such a page changes only by a bit
    /// flip, so while the memory's flip epoch has not moved since the last
    /// full re-sync, nothing can be stale and this returns at once. Debug
    /// builds walk anyway and assert that: a stale entry there means some
    /// other path wrote a frame the tree still owns.
    pub(crate) fn refresh(&mut self, mem: &PhysMemory) -> bool {
        let epoch = mem.flip_epoch();
        if self.synced_epoch == Some(epoch) {
            debug_assert!(
                self.stale_frames(mem).is_empty(),
                "a frame of a guest-unwritable tree changed without a bit flip"
            );
            return false;
        }
        let stale = self.stale_frames(mem);
        for &f in &stale {
            self.insert(mem, f);
        }
        self.synced_epoch = Some(epoch);
        !stale.is_empty()
    }

    /// Whether a tree page *could* be content-equal to `probe`. `false`
    /// is definitive; `true` must be confirmed by the tree search.
    pub(crate) fn may_contain(&self, mem: &PhysMemory, probe: FrameId) -> bool {
        self.counts.contains_key(mem.hash_page(probe))
    }

    /// Serializes the per-frame entries, in ascending frame order. The
    /// hash multiset is derivable, so only `by_frame` is written.
    pub(crate) fn save(&self, w: &mut vusion_snapshot::Writer) {
        let entries = self.by_frame.sorted();
        w.usize(entries.len());
        for (frame, (hash, gen)) in entries {
            w.u64(frame);
            w.u64(hash);
            w.u64(gen);
        }
    }

    /// Rebuilds an index written by [`Self::save`]. The first
    /// [`Self::refresh`] afterwards walks it.
    pub(crate) fn load(
        r: &mut vusion_snapshot::Reader<'_>,
    ) -> Result<Self, vusion_snapshot::SnapshotError> {
        let count = r.usize()?;
        let mut ix = Self::default();
        for _ in 0..count {
            let frame = r.u64()?;
            let hash = r.u64()?;
            let gen = r.u64()?;
            ix.by_frame.insert(frame, (hash, gen));
            Self::bump(&mut ix.counts, hash);
        }
        Ok(ix)
    }
}

/// Cached `mergeable_pages` enumeration, invalidated by the machine's
/// layout epoch (process count + per-space VMA layout generations).
///
/// Used in a take / put-back pattern so the scan loop can hold the list
/// while mutating the engine and the machine.
#[derive(Default)]
pub(crate) struct CandidateCache {
    pages: Vec<(Pid, VirtAddr)>,
    epoch: Option<(usize, u64)>,
}

impl CandidateCache {
    /// Returns `(pages, rebuilt)`: the candidate list (rebuilt via `build`
    /// only if the layout epoch moved) and whether a rebuild happened.
    /// Hand the vector back with [`CandidateCache::put_back`] after the
    /// scan loop.
    pub(crate) fn take(
        &mut self,
        m: &Machine,
        build: impl FnOnce(&Machine) -> Vec<(Pid, VirtAddr)>,
    ) -> (Vec<(Pid, VirtAddr)>, bool) {
        let epoch = m.layout_epoch();
        let rebuilt = self.epoch != Some(epoch);
        if rebuilt {
            self.pages = build(m);
            self.epoch = Some(epoch);
        }
        (std::mem::take(&mut self.pages), rebuilt)
    }

    /// Restores the list taken by [`CandidateCache::take`].
    pub(crate) fn put_back(&mut self, pages: Vec<(Pid, VirtAddr)>) {
        self.pages = pages;
    }

    /// Drops the cached list and its epoch stamp (reclaim-ladder shrink):
    /// the next take rebuilds from machine state, so nothing is lost but
    /// the memory. Returns the number of entries shed.
    pub(crate) fn shed(&mut self) -> u64 {
        let n = self.pages.len() as u64;
        self.pages = Vec::new();
        self.epoch = None;
        n
    }

    /// Serializes the cached list and its epoch stamp.
    pub(crate) fn save(&self, w: &mut vusion_snapshot::Writer) {
        match self.epoch {
            Some((procs, layout_gen)) => {
                w.bool(true);
                w.usize(procs);
                w.u64(layout_gen);
            }
            None => w.bool(false),
        }
        w.usize(self.pages.len());
        for &(pid, va) in &self.pages {
            w.usize(pid.0);
            w.u64(va.0);
        }
    }

    /// Rebuilds a cache written by [`Self::save`].
    pub(crate) fn load(
        r: &mut vusion_snapshot::Reader<'_>,
    ) -> Result<Self, vusion_snapshot::SnapshotError> {
        let epoch = if r.bool()? {
            Some((r.usize()?, r.u64()?))
        } else {
            None
        };
        let count = r.usize()?;
        let mut pages = Vec::with_capacity(count);
        for _ in 0..count {
            pages.push((Pid(r.usize()?), VirtAddr(r.u64()?)));
        }
        Ok(Self { pages, epoch })
    }
}

/// Dirty-driven pass list: remembers, per scanned `(pid, va)`, the frame
/// that backed the page and the frame's write generation at the moment
/// the engine finished deciding about it. On the next pass the engine
/// walks the leaf (mapping changes — CoW, remap, merge — surface as a
/// different frame) and asks [`DirtyTracker::is_clean`]; a hit means
/// neither the mapping nor the content moved, so re-running the decision
/// is guaranteed to reproduce last pass's outcome and the page can be
/// skipped, counted in `scan.pages_skipped_clean`.
///
/// Engines only call [`DirtyTracker::mark_seen`] from *terminal* decision
/// states — a state the pass would re-reach verbatim if nothing changed.
/// Probabilistic or progress-making states (KSM's checksum-mismatch
/// volatility filter, structural guards) are never marked, so those pages
/// keep being revisited.
#[derive(Default)]
pub(crate) struct DirtyTracker {
    /// [`page_key`] → `(frame, write_gen)`. Pass-list pages are page
    /// bases, so the key round-trips the address.
    seen: U64Map<(u64, u64)>,
}

impl DirtyTracker {
    /// Whether the page at `(pid, va)` — currently backed by `frame` — is
    /// unchanged since [`DirtyTracker::mark_seen`]: same backing frame
    /// *and* same frame write generation.
    pub(crate) fn is_clean(
        &self,
        mem: &PhysMemory,
        pid: Pid,
        va: VirtAddr,
        frame: FrameId,
    ) -> bool {
        self.seen.get(page_key(pid, va)) == Some(&(frame.0, mem.info(frame).write_gen))
    }

    /// Records the page's decision point: skip it while `frame` still
    /// backs it and its write generation holds.
    pub(crate) fn mark_seen(&mut self, mem: &PhysMemory, pid: Pid, va: VirtAddr, frame: FrameId) {
        debug_assert_eq!(va.page_offset(), 0, "pass-list pages are page bases");
        self.seen
            .insert(page_key(pid, va), (frame.0, mem.info(frame).write_gen));
    }

    /// Forgets one page (it will be re-examined next pass).
    pub(crate) fn forget(&mut self, pid: Pid, va: VirtAddr) {
        self.seen.remove(page_key(pid, va));
    }

    /// Forgets everything (candidate list rebuilt).
    pub(crate) fn clear(&mut self) {
        self.seen.clear();
    }

    /// Drops all tracked pages and reports how many were shed
    /// (reclaim-ladder shrink): every page is simply re-examined.
    pub(crate) fn shed(&mut self) -> u64 {
        let n = self.seen.len() as u64;
        self.seen = U64Map::new();
        n
    }

    /// Number of tracked pages.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.seen.len()
    }

    /// Serializes the tracked pages in ascending `(pid, va)` order.
    pub(crate) fn save(&self, w: &mut vusion_snapshot::Writer) {
        let seen = self.seen.sorted();
        w.usize(seen.len());
        for (key, (frame, gen)) in seen {
            let (pid, page) = unpack_page_key(key);
            w.usize(pid);
            w.u64(page * PAGE_SIZE);
            w.u64(frame);
            w.u64(gen);
        }
    }

    /// Rebuilds a tracker written by [`Self::save`].
    pub(crate) fn load(
        r: &mut vusion_snapshot::Reader<'_>,
    ) -> Result<Self, vusion_snapshot::SnapshotError> {
        let count = r.usize()?;
        let mut seen = U64Map::new();
        for _ in 0..count {
            let pid = r.usize()?;
            let va = VirtAddr(r.u64()?);
            let frame = r.u64()?;
            let gen = r.u64()?;
            if va.page_offset() != 0 {
                return Err(vusion_snapshot::SnapshotError::Corrupt(
                    "pass-list page is not a page base",
                ));
            }
            seen.insert(load_page_key(pid, va.page())?, (frame, gen));
        }
        Ok(Self { seen })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vusion_mem::PhysAddr;

    #[test]
    fn hash_index_filters_and_tracks_membership() {
        let mut mem = PhysMemory::new(4);
        mem.write_byte(PhysAddr(0), 1);
        mem.write_byte(PhysAddr(4096), 2);
        mem.write_byte(PhysAddr(2 * 4096), 1); // same content as frame 0
        let mut ix = HashIndex::default();
        ix.insert(&mem, FrameId(0));
        assert!(ix.may_contain(&mem, FrameId(2)), "equal content must pass");
        assert!(
            !ix.may_contain(&mem, FrameId(1)),
            "absent hash is definitive"
        );
        ix.remove(FrameId(0));
        assert!(!ix.may_contain(&mem, FrameId(2)));
    }

    #[test]
    fn hash_index_refresh_catches_inplace_change() {
        let mut mem = PhysMemory::new(2);
        mem.write_byte(PhysAddr(0), 1);
        let mut ix = HashIndex::default();
        ix.insert(&mem, FrameId(0));
        // The tree page changes in place (a Rowhammer flip): the stale
        // hash must not make the filter claim the old content is present.
        mem.flip_bit(PhysAddr(0), 0);
        mem.write_byte(PhysAddr(4096), 1); // probe with the *old* content
        ix.refresh(&mem);
        assert!(
            !ix.may_contain(&mem, FrameId(1)),
            "refresh must drop the stale hash"
        );
        assert!(
            ix.may_contain(&mem, FrameId(0)),
            "the new content is indexed after refresh"
        );
    }

    #[test]
    fn refresh_reports_stale_entries_once() {
        let mut mem = PhysMemory::new(2);
        mem.write_byte(PhysAddr(0), 1);
        let mut ix = HashIndex::default();
        ix.insert(&mem, FrameId(0));
        assert!(!ix.refresh(&mem), "nothing changed since insert");
        mem.flip_bit(PhysAddr(3), 2);
        assert!(ix.refresh(&mem), "the flipped page was stale");
        assert!(!ix.refresh(&mem), "re-synced by the previous call");
        // A flip elsewhere moves the epoch; the walk finds nothing stale.
        mem.flip_bit(PhysAddr(4096), 0);
        assert!(!ix.refresh(&mem));
    }

    #[test]
    fn stale_frames_come_in_ascending_order() {
        // KSM evicts stale unstable-tree entries in this order, and the
        // order decides which tree slots are reused.
        let mut mem = PhysMemory::new(64);
        let mut ix = HashIndex::default();
        for f in (0..64u64).rev() {
            mem.write_byte(PhysAddr(f * 4096), f as u8 + 1);
            ix.insert(&mem, FrameId(f));
        }
        for f in (0..64u64).filter(|f| f % 3 != 1) {
            mem.write_byte(PhysAddr(f * 4096 + 1), 9);
        }
        let expected: Vec<FrameId> = (0..64u64).filter(|f| f % 3 != 1).map(FrameId).collect();
        assert_eq!(ix.stale_frames(&mem), expected);
    }

    /// The flip-epoch invariant's debug oracle: a write that is not a bit
    /// flip to a page the index covers means some path wrote a frame a
    /// guest-unwritable tree still owns.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "changed without a bit flip")]
    fn non_flip_write_to_an_indexed_page_trips_the_oracle() {
        let mut mem = PhysMemory::new(2);
        mem.write_byte(PhysAddr(0), 1);
        let mut ix = HashIndex::default();
        ix.insert(&mem, FrameId(0));
        ix.refresh(&mem);
        mem.write_byte(PhysAddr(5), 9);
        ix.refresh(&mem);
    }

    #[test]
    fn a_hash_equal_to_the_table_marker_is_counted() {
        // Hand-built stream: frame 3 indexed under hash u64::MAX, the
        // table's empty-slot marker.
        let mut w = vusion_snapshot::Writer::new();
        w.usize(2);
        for (frame, hash) in [(3u64, u64::MAX), (4, u64::MAX)] {
            w.u64(frame);
            w.u64(hash);
            w.u64(0);
        }
        let bytes = w.into_bytes();
        let mut ix = HashIndex::load(&mut vusion_snapshot::Reader::new(&bytes)).expect("load");
        assert_eq!(ix.counts.get(u64::MAX), Some(&2));
        ix.remove(FrameId(3));
        assert_eq!(ix.counts.get(u64::MAX), Some(&1));
        ix.remove(FrameId(4));
        assert!(ix.counts.is_empty());
        assert!(ix.by_frame.is_empty());
    }

    #[test]
    fn page_keys_sort_like_pid_page_pairs() {
        let pairs = [
            (Pid(0), VirtAddr(0x7fff_ffff_f000)),
            (Pid(1), VirtAddr(0)),
            (Pid(1), VirtAddr(0x1000)),
            (Pid(300), VirtAddr(0x10000)),
        ];
        for w in pairs.windows(2) {
            assert!(page_key(w[0].0, w[0].1) < page_key(w[1].0, w[1].1));
        }
        for (pid, va) in pairs {
            assert_eq!(unpack_page_key(page_key(pid, va)), (pid.0, va.page()));
        }
    }

    #[test]
    fn duplicate_hashes_are_counted_not_clobbered() {
        let mut mem = PhysMemory::new(3);
        mem.write_byte(PhysAddr(0), 7);
        mem.write_byte(PhysAddr(4096), 7);
        mem.write_byte(PhysAddr(2 * 4096), 7);
        let mut ix = HashIndex::default();
        ix.insert(&mem, FrameId(0));
        ix.insert(&mem, FrameId(1));
        ix.remove(FrameId(0));
        assert!(
            ix.may_contain(&mem, FrameId(2)),
            "one bearer removed, one remains"
        );
        ix.remove(FrameId(1));
        assert!(!ix.may_contain(&mem, FrameId(2)));
    }

    /// The hash multiset `counts` must always equal the one derived from
    /// the per-frame entries.
    fn assert_counts_derived(ix: &HashIndex) {
        let mut rebuilt = U64Map::new();
        for (_, &(hash, _)) in ix.by_frame.iter() {
            HashIndex::bump(&mut rebuilt, hash);
        }
        assert_eq!(
            ix.counts.sorted(),
            rebuilt.sorted(),
            "hash multiset drifted from by_frame"
        );
    }

    #[test]
    fn replace_frame_keeps_the_hash_multiset_exact() {
        let mut mem = PhysMemory::new(6);
        for f in 0..3u64 {
            mem.write_byte(PhysAddr(f * 4096), 7 + f as u8);
        }
        mem.write_byte(PhysAddr(5 * 4096), 7); // same content as frame 0
        let mut ix = HashIndex::default();
        for f in [0, 1, 2, 5] {
            ix.insert(&mem, FrameId(f));
        }

        // Verbatim move, as re-randomization does it.
        mem.move_page(FrameId(0), FrameId(3));
        ix.replace_frame(&mem, FrameId(0), FrameId(3));
        assert_counts_derived(&ix);
        assert!(ix.stale_frames(&mem).is_empty());
        assert_eq!(ix.by_frame.len(), 4);

        // The old frame was flipped after it was indexed: the stale hash
        // must leave the multiset, the new content's hash enter it.
        mem.flip_bit(PhysAddr(4096), 3);
        mem.copy_page(FrameId(1), FrameId(4));
        ix.replace_frame(&mem, FrameId(1), FrameId(4));
        assert_counts_derived(&ix);
        assert!(ix.may_contain(&mem, FrameId(4)));
        assert!(ix.stale_frames(&mem).is_empty());

        // Moving onto a frame that is itself indexed replaces its entry.
        mem.copy_page(FrameId(2), FrameId(5));
        ix.replace_frame(&mem, FrameId(2), FrameId(5));
        assert_counts_derived(&ix);
        assert_eq!(ix.by_frame.len(), 3);
        assert!(ix.stale_frames(&mem).is_empty());
    }

    /// Every entry whose recorded write generation is still the frame's
    /// current one must carry exactly `hash_page(frame)`; returns how many
    /// entries were current.
    fn assert_current_entries_match(ix: &HashIndex, mem: &PhysMemory) -> usize {
        let mut current = 0;
        for (frame, &(hash, gen)) in ix.by_frame.iter() {
            let frame = FrameId(frame);
            if mem.info(frame).write_gen == gen {
                assert_eq!(hash, mem.hash_page(frame), "stale hash for {frame:?}");
                current += 1;
            }
        }
        current
    }

    /// Runs an engine mid-way (merges done, then fresh writes left
    /// unscanned), snapshots it, restores into a fresh system and checks
    /// the restored hash filters against the restored memory.
    fn check_restored_indexes<P: vusion_kernel::FusionPolicy>(
        build: impl Fn() -> (vusion_kernel::System<P>, Pid, Pid),
        indexes: impl Fn(&P) -> Vec<&HashIndex>,
    ) {
        use vusion_mem::PAGE_SIZE;
        let base = 0x10000u64;
        let page = |fill: u8| {
            let mut p = [0u8; PAGE_SIZE as usize];
            for (i, b) in p.iter_mut().enumerate() {
                *b = fill ^ (i % 23) as u8;
            }
            p
        };
        let (mut s, a, b) = build();
        for i in 0..16u64 {
            let va = VirtAddr(base + i * PAGE_SIZE);
            s.write_page(a, va, &page(i as u8 % 5 + 1));
            s.write_page(b, va, &page(i as u8 % 7 + 1));
        }
        s.force_scans(12);
        for i in 0..4u64 {
            s.write(a, VirtAddr(base + i * PAGE_SIZE + 9), 0xee);
        }
        let blob = s.snapshot();
        let (mut restored, _, _) = build();
        restored.restore(&blob).expect("restore");
        let mem = restored.machine.mem();
        let current: usize = indexes(&restored.policy)
            .into_iter()
            .map(|ix| assert_current_entries_match(ix, mem))
            .sum();
        assert!(current > 0, "no current index entries to check");
    }

    #[test]
    fn restored_hash_indexes_match_restored_memory() {
        use crate::{Ksm, KsmConfig, VUsion, VUsionConfig, Wpf, WpfConfig};
        use vusion_kernel::{MachineConfig, System};
        use vusion_mmu::{Protection, Vma};
        fn spawn_two(m: &mut Machine, mergeable: bool) -> (Pid, Pid) {
            let a = m.spawn("a").expect("spawn");
            let b = m.spawn("b").expect("spawn");
            for pid in [a, b] {
                m.mmap(pid, Vma::anon(VirtAddr(0x10000), 64, Protection::rw()));
                if mergeable {
                    m.madvise_mergeable(pid, VirtAddr(0x10000), 64);
                }
            }
            (a, b)
        }
        check_restored_indexes(
            || {
                let mut m = Machine::new(MachineConfig::test_small());
                let (a, b) = spawn_two(&mut m, true);
                (System::new(m, Ksm::new(KsmConfig::default())), a, b)
            },
            Ksm::hash_indexes,
        );
        check_restored_indexes(
            || {
                let mut m = Machine::new(MachineConfig::test_small().with_reserved_top(512));
                let (a, b) = spawn_two(&mut m, false);
                let wpf = Wpf::new(&m, WpfConfig::default()).expect("wpf");
                (System::new(m, wpf), a, b)
            },
            Wpf::hash_indexes,
        );
        check_restored_indexes(
            || {
                let mut m = Machine::new(MachineConfig::test_small());
                let (a, b) = spawn_two(&mut m, true);
                let cfg = VUsionConfig {
                    pool_frames: 256,
                    ..Default::default()
                };
                let vusion = VUsion::new(&mut m, cfg);
                (System::new(m, vusion), a, b)
            },
            VUsion::hash_indexes,
        );
    }

    #[test]
    fn dirty_tracker_detects_writes_and_remaps() {
        let mut mem = PhysMemory::new(3);
        mem.write_byte(PhysAddr(0), 1);
        let (pid, va) = (Pid(0), VirtAddr(0x4000));
        let mut dt = DirtyTracker::default();
        assert!(!dt.is_clean(&mem, pid, va, FrameId(0)), "unseen is dirty");
        dt.mark_seen(&mem, pid, va, FrameId(0));
        assert!(dt.is_clean(&mem, pid, va, FrameId(0)));
        // A write to the frame bumps its generation: dirty again.
        mem.write_byte(PhysAddr(7), 9);
        assert!(!dt.is_clean(&mem, pid, va, FrameId(0)));
        dt.mark_seen(&mem, pid, va, FrameId(0));
        // A remap (CoW, merge) surfaces as a different backing frame.
        assert!(!dt.is_clean(&mem, pid, va, FrameId(1)));
        dt.forget(pid, va);
        assert!(!dt.is_clean(&mem, pid, va, FrameId(0)));
    }

    #[test]
    fn dirty_tracker_round_trips_through_snapshot() {
        let mut mem = PhysMemory::new(2);
        mem.write_byte(PhysAddr(0), 3);
        mem.write_byte(PhysAddr(4096), 4);
        let mut dt = DirtyTracker::default();
        dt.mark_seen(&mem, Pid(1), VirtAddr(0x1000), FrameId(0));
        dt.mark_seen(&mem, Pid(2), VirtAddr(0x2000), FrameId(1));
        let mut w = vusion_snapshot::Writer::new();
        dt.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = vusion_snapshot::Reader::new(&bytes);
        let loaded = DirtyTracker::load(&mut r).expect("load");
        assert_eq!(loaded.len(), 2);
        assert!(loaded.is_clean(&mem, Pid(1), VirtAddr(0x1000), FrameId(0)));
        assert!(loaded.is_clean(&mem, Pid(2), VirtAddr(0x2000), FrameId(1)));
        assert!(!loaded.is_clean(&mem, Pid(1), VirtAddr(0x1000), FrameId(1)));
    }
}
