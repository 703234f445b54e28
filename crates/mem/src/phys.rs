//! Physical memory: frame contents plus per-frame metadata.
//!
//! Frames are materialized lazily: an untouched frame is all-zeroes and
//! costs no host memory, which lets experiments simulate multi-gigabyte
//! guests cheaply (most guest memory is zero — and indeed zero pages are a
//! large fraction of fusion candidates, cf. Figure 4).
//!
//! Content hashes and zero checks are memoized per frame, keyed on the
//! frame's [`FrameInfo::write_gen`]: every mutator bumps the generation,
//! so any write — including a Rowhammer [`PhysMemory::flip_bit`] or an
//! injected fault — invalidates the cached values for free. The cache
//! changes wall-clock cost only; every observable value (`hash_page`,
//! `is_zero`, comparisons) is identical to a fresh computation, which the
//! chaos suite asserts under interleaved mutation.

use std::cell::Cell;
use std::cmp::Ordering;
use std::ops::{Deref, DerefMut};

use crate::addr::{FrameId, PhysAddr, PAGE_SIZE};
use crate::frame::{FrameInfo, FrameState, PageType};

/// Content hash of a page: [`vusion_snapshot::xxh64`] of its bytes.
///
/// Used by the WPF engine's hash-sorted candidate list (§2.2) and by KSM's
/// "has the page changed since last scan" checksum, the role xxhash and
/// jhash2 play in real kernels. The values are part of the model — WPF's
/// hash-sort order decides frame adjacency, and with it the §5.2 attack's
/// timing curves — so the function is pinned by golden tests.
pub fn content_hash(bytes: &[u8]) -> u64 {
    vusion_snapshot::xxh64(bytes)
}

/// A page of xorshift64* output seeded with `seed | 1`, one word per
/// 8 bytes, stored little-endian: the deterministic content of simulated
/// file pages and labeled workload pages.
pub fn seeded_page(seed: u64) -> [u8; PAGE_SIZE as usize] {
    let mut page = [0u8; PAGE_SIZE as usize];
    let mut state = seed | 1;
    for word in page.chunks_exact_mut(8) {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        word.copy_from_slice(&state.wrapping_mul(0x2545_f491_4f6c_dd1d).to_le_bytes());
    }
    page
}

const ZERO_PAGE_HASH: u64 = vusion_snapshot::xxh64(&ZERO_PAGE);

const ZERO_PAGE: [u8; PAGE_SIZE as usize] = [0; PAGE_SIZE as usize];

/// Wide all-zero check of a materialized page: 32 bytes per iteration,
/// OR-folding four `u64` lanes (4096 is a multiple of 32, so there is no
/// remainder to handle).
fn page_is_zero(page: &[u8; PAGE_SIZE as usize]) -> bool {
    page.chunks_exact(32).all(|c| {
        let mut acc = 0u64;
        for w in c.chunks_exact(8) {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(w);
            acc |= u64::from_ne_bytes(buf);
        }
        acc == 0
    })
}

/// Memoized derived values for one frame, valid only while the recorded
/// generation equals the frame's current [`FrameInfo::write_gen`].
#[derive(Clone, Copy, Default)]
struct FrameCache {
    hash: u64,
    hash_gen: u64,
    hash_valid: bool,
    zero: bool,
    zero_gen: u64,
    zero_valid: bool,
}

/// O(1) allocation accounting, maintained on every frame state
/// transition by [`FrameInfoMut`].
#[derive(Clone, Copy, Default)]
struct FrameCounts {
    allocated: usize,
    by_type: [usize; PageType::ALL.len()],
}

fn contribution(info: &FrameInfo) -> Option<PageType> {
    (info.state == FrameState::Allocated).then_some(info.page_type)
}

/// Mutable access to a frame's metadata. Dereferences to [`FrameInfo`];
/// on drop, any allocation-state or page-type transition made through it
/// is folded into the O(1) allocation counters.
pub struct FrameInfoMut<'a> {
    info: &'a mut FrameInfo,
    counts: &'a mut FrameCounts,
    was: Option<PageType>,
}

impl Deref for FrameInfoMut<'_> {
    type Target = FrameInfo;
    fn deref(&self) -> &FrameInfo {
        self.info
    }
}

impl DerefMut for FrameInfoMut<'_> {
    fn deref_mut(&mut self) -> &mut FrameInfo {
        self.info
    }
}

impl Drop for FrameInfoMut<'_> {
    fn drop(&mut self) {
        let now = contribution(self.info);
        if self.was == now {
            return;
        }
        if let Some(t) = self.was {
            self.counts.allocated -= 1;
            self.counts.by_type[t.index()] -= 1;
        }
        if let Some(t) = now {
            self.counts.allocated += 1;
            self.counts.by_type[t.index()] += 1;
        }
    }
}

/// Simulated physical memory: `n` frames of 4 KiB, with metadata.
pub struct PhysMemory {
    data: Vec<Option<Box<[u8; PAGE_SIZE as usize]>>>,
    info: Vec<FrameInfo>,
    // vlint: allow(S001, derived memo — load resets every entry to FrameCache::default)
    cache: Vec<Cell<FrameCache>>,
    // vlint: allow(S001, derived tallies — recounted from the frame table in load)
    counts: FrameCounts,
    /// Count of [`PhysMemory::flip_bit`] calls — the only way a page no
    /// guest can write changes. Host-only: a hash filter compares it with
    /// the value at its own last re-sync, and restored filters re-sync
    /// on first use, so it never needs to travel.
    // vlint: allow(S001, host-only change epoch — compared only against values read from this same memory; restored hash filters start unsynced)
    flip_epoch: u64,
}

impl PhysMemory {
    /// Creates a physical memory of `frames` frames, all free and zeroed.
    pub fn new(frames: usize) -> Self {
        Self {
            data: (0..frames).map(|_| None).collect(),
            info: vec![FrameInfo::default(); frames],
            cache: (0..frames)
                .map(|_| Cell::new(FrameCache::default()))
                .collect(),
            counts: FrameCounts::default(),
            flip_epoch: 0,
        }
    }

    /// Total number of frames.
    pub fn frame_count(&self) -> usize {
        self.info.len()
    }

    /// Index of `frame`, validated against the frame count.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range — the simulator's bus fault.
    fn idx(&self, frame: FrameId) -> usize {
        let i = frame.0 as usize;
        assert!(i < self.info.len(), "frame {i} out of range");
        i
    }

    /// Bumps a frame's write generation, invalidating memoized values.
    fn touch(&mut self, i: usize) {
        self.info[i].write_gen = self.info[i].write_gen.wrapping_add(1);
    }

    /// The frame's cached content hash, if still valid at its current
    /// write generation.
    fn cached_hash(&self, i: usize) -> Option<u64> {
        let c = self.cache[i].get();
        (c.hash_valid && c.hash_gen == self.info[i].write_gen).then_some(c.hash)
    }

    /// Immutable metadata of a frame.
    pub fn info(&self, frame: FrameId) -> &FrameInfo {
        &self.info[self.idx(frame)]
    }

    /// Mutable metadata of a frame. The guard keeps the allocation
    /// counters in sync with whatever transition is performed through it.
    pub fn info_mut(&mut self, frame: FrameId) -> FrameInfoMut<'_> {
        let i = self.idx(frame);
        let was = contribution(&self.info[i]);
        FrameInfoMut {
            info: &mut self.info[i],
            counts: &mut self.counts,
            was,
        }
    }

    /// The 4096 content bytes of a frame.
    pub fn page(&self, frame: FrameId) -> &[u8; PAGE_SIZE as usize] {
        match &self.data[self.idx(frame)] {
            Some(b) => b,
            None => &ZERO_PAGE,
        }
    }

    /// Whether the frame is all zeroes (cheap check for the lazy case;
    /// memoized against the frame's write generation otherwise).
    pub fn is_zero(&self, frame: FrameId) -> bool {
        let i = self.idx(frame);
        match &self.data[i] {
            None => true,
            Some(b) => {
                let gen = self.info[i].write_gen;
                let mut c = self.cache[i].get();
                if c.zero_valid && c.zero_gen == gen {
                    return c.zero;
                }
                let z = page_is_zero(b);
                c.zero = z;
                c.zero_gen = gen;
                c.zero_valid = true;
                self.cache[i].set(c);
                z
            }
        }
    }

    /// Reads one byte.
    pub fn read_byte(&self, addr: PhysAddr) -> u8 {
        self.page(addr.frame())[addr.page_offset() as usize]
    }

    /// Writes one byte, materializing the frame if needed.
    pub fn write_byte(&mut self, addr: PhysAddr, value: u8) {
        let i = self.idx(addr.frame());
        let page = self.data[i].get_or_insert_with(|| Box::new(ZERO_PAGE));
        page[addr.page_offset() as usize] = value;
        self.touch(i);
    }

    /// Reads a little-endian u64 (must not cross a frame boundary).
    ///
    /// # Panics
    ///
    /// Panics if the access crosses a frame boundary.
    pub fn read_u64(&self, addr: PhysAddr) -> u64 {
        let off = addr.page_offset() as usize;
        assert!(
            off + 8 <= PAGE_SIZE as usize,
            "u64 read crosses frame boundary"
        );
        let page = self.page(addr.frame());
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&page[off..off + 8]);
        u64::from_le_bytes(bytes)
    }

    /// Writes a little-endian u64 (must not cross a frame boundary).
    ///
    /// # Panics
    ///
    /// Panics if the access crosses a frame boundary.
    pub fn write_u64(&mut self, addr: PhysAddr, value: u64) {
        let off = addr.page_offset() as usize;
        assert!(
            off + 8 <= PAGE_SIZE as usize,
            "u64 write crosses frame boundary"
        );
        let i = self.idx(addr.frame());
        let page = self.data[i].get_or_insert_with(|| Box::new(ZERO_PAGE));
        page[off..off + 8].copy_from_slice(&value.to_le_bytes());
        self.touch(i);
    }

    /// Overwrites a frame's entire content, in place when the frame is
    /// already materialized.
    pub fn write_page(&mut self, frame: FrameId, bytes: &[u8; PAGE_SIZE as usize]) {
        let i = self.idx(frame);
        if page_is_zero(bytes) {
            self.data[i] = None;
        } else {
            match &mut self.data[i] {
                Some(page) => page.copy_from_slice(bytes),
                slot => *slot = Some(Box::new(*bytes)),
            }
        }
        self.touch(i);
    }

    /// Copies the content of `src` into `dst`.
    pub fn copy_page(&mut self, src: FrameId, dst: FrameId) {
        let si = self.idx(src);
        let di = self.idx(dst);
        self.data[di] = self.data[si].clone();
        self.touch(di);
        // VUsion's fake merging copies pages constantly: the source's
        // memo carries over instead of being recomputed.
        self.inherit_cache(di, self.cache[si].get(), self.info[si].write_gen);
    }

    /// Seeds frame `di`'s memo at its current generation with the values
    /// of `sc` that were valid at generation `sgen` — `di` now holds
    /// exactly the bytes `sc` described.
    fn inherit_cache(&self, di: usize, sc: FrameCache, sgen: u64) {
        let dgen = self.info[di].write_gen;
        let mut dc = FrameCache::default();
        if sc.hash_valid && sc.hash_gen == sgen {
            dc.hash = sc.hash;
            dc.hash_gen = dgen;
            dc.hash_valid = true;
        }
        if sc.zero_valid && sc.zero_gen == sgen {
            dc.zero = sc.zero;
            dc.zero_gen = dgen;
            dc.zero_valid = true;
        }
        self.cache[di].set(dc);
    }

    /// Moves the content of `src` into `dst` and leaves `src` zeroed:
    /// observably `copy_page(src, dst)` followed by `zero_page(src)` —
    /// same bytes, same memoized values, each frame's write generation
    /// bumped once — but the page buffer changes owner instead of being
    /// duplicated and dropped (VUsion's per-round re-randomization).
    pub fn move_page(&mut self, src: FrameId, dst: FrameId) {
        let si = self.idx(src);
        let di = self.idx(dst);
        let (sc, sgen) = (self.cache[si].get(), self.info[si].write_gen);
        self.data[di] = self.data[si].take();
        self.touch(di);
        self.inherit_cache(di, sc, sgen);
        self.zero_page(src);
    }

    /// Zeroes a frame (demand-zero allocation path).
    pub fn zero_page(&mut self, frame: FrameId) {
        let i = self.idx(frame);
        self.data[i] = None;
        self.touch(i);
        // Content is now known exactly; memoize it outright.
        let gen = self.info[i].write_gen;
        self.cache[i].set(FrameCache {
            hash: ZERO_PAGE_HASH,
            hash_gen: gen,
            hash_valid: true,
            zero: true,
            zero_gen: gen,
            zero_valid: true,
        });
    }

    /// Whether two frames have identical content.
    pub fn pages_equal(&self, a: FrameId, b: FrameId) -> bool {
        let ia = self.idx(a);
        let ib = self.idx(b);
        if ia == ib {
            return true;
        }
        // Differing cached hashes prove inequality (equal bytes hash
        // equal). Equal hashes prove nothing — 64-bit hashes collide — so
        // anything else falls through to the authoritative byte compare.
        if let (Some(ha), Some(hb)) = (self.cached_hash(ia), self.cached_hash(ib)) {
            if ha != hb {
                return false;
            }
        }
        match (&self.data[ia], &self.data[ib]) {
            (None, None) => true,
            (Some(x), Some(y)) => x == y,
            (None, Some(y)) => page_is_zero(y),
            (Some(x), None) => page_is_zero(x),
        }
    }

    /// Lexicographic comparison of two frames' content (the ordering KSM's
    /// content-indexed trees use), word-wise: lexicographic byte order is
    /// exactly numeric order of big-endian `u64` words.
    pub fn compare_pages(&self, a: FrameId, b: FrameId) -> Ordering {
        let ia = self.idx(a);
        let ib = self.idx(b);
        if ia == ib || (self.data[ia].is_none() && self.data[ib].is_none()) {
            return Ordering::Equal;
        }
        let pa = self.page(a);
        let pb = self.page(b);
        // 32 bytes per iteration: a cheap wide equality check first, then
        // (only on the differing chunk) the four big-endian word compares
        // that decide the order.
        for (ca, cb) in pa.chunks_exact(32).zip(pb.chunks_exact(32)) {
            if ca == cb {
                continue;
            }
            for (wa, wb) in ca.chunks_exact(8).zip(cb.chunks_exact(8)) {
                let mut ba = [0u8; 8];
                let mut bb = [0u8; 8];
                ba.copy_from_slice(wa);
                bb.copy_from_slice(wb);
                let va = u64::from_be_bytes(ba);
                let vb = u64::from_be_bytes(bb);
                if va != vb {
                    return va.cmp(&vb);
                }
            }
        }
        Ordering::Equal
    }

    /// [`content_hash`] of a frame's content, memoized against the frame's
    /// write generation. Always equal to `content_hash(self.page(frame))`.
    pub fn hash_page(&self, frame: FrameId) -> u64 {
        let i = self.idx(frame);
        match &self.data[i] {
            None => ZERO_PAGE_HASH,
            Some(b) => {
                let gen = self.info[i].write_gen;
                let mut c = self.cache[i].get();
                if c.hash_valid && c.hash_gen == gen {
                    return c.hash;
                }
                let h = content_hash(b.as_slice());
                c.hash = h;
                c.hash_gen = gen;
                c.hash_valid = true;
                self.cache[i].set(c);
                h
            }
        }
    }

    /// Flips one bit of physical memory (a Rowhammer-induced fault). Returns
    /// the new value of the affected byte. Goes through [`write_byte`],
    /// so the frame's write generation bumps and any cached hash of the
    /// victim frame is invalidated.
    ///
    /// [`write_byte`]: PhysMemory::write_byte
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 8`.
    pub fn flip_bit(&mut self, addr: PhysAddr, bit: u8) -> u8 {
        assert!(bit < 8, "bit index out of range");
        let old = self.read_byte(addr);
        let new = old ^ (1 << bit);
        self.write_byte(addr, new);
        self.flip_epoch += 1;
        new
    }

    /// Number of [`PhysMemory::flip_bit`] calls on this memory so far.
    ///
    /// Fusion engines keep content-hash filters over pages no guest can
    /// write (write-protected or trapped): such a page changes only by a
    /// bit flip, so while this epoch holds, their recorded hashes are
    /// still current and no re-sync walk is needed. Host-only state: it
    /// is not part of a snapshot, and [`Snapshot::load`] leaves it alone.
    ///
    /// [`Snapshot::load`]: vusion_snapshot::Snapshot::load
    pub fn flip_epoch(&self) -> u64 {
        self.flip_epoch
    }

    /// Number of frames currently in the [`FrameState::Allocated`] state;
    /// drives the memory-consumption curves of Figures 10–12. O(1):
    /// maintained on every state transition, reconciled against the
    /// O(frames) scan in debug builds.
    pub fn allocated_frames(&self) -> usize {
        debug_assert_eq!(
            self.counts.allocated,
            self.info
                .iter()
                .filter(|i| i.state == FrameState::Allocated)
                .count(),
            "allocated-frame counter out of sync with frame states"
        );
        self.counts.allocated
    }

    /// Counts allocated frames by page type (Table 3 accounting). O(types)
    /// from the transition-maintained counters; debug builds reconcile
    /// against a full frame scan.
    pub fn allocated_by_type(&self) -> Vec<(PageType, usize)> {
        #[cfg(debug_assertions)]
        {
            let mut slow = [0usize; PageType::ALL.len()];
            for info in &self.info {
                if info.state == FrameState::Allocated {
                    slow[info.page_type.index()] += 1;
                }
            }
            debug_assert_eq!(
                slow, self.counts.by_type,
                "per-type allocation counters out of sync with frame states"
            );
        }
        PageType::ALL
            .iter()
            .filter_map(|&t| {
                let c = self.counts.by_type[t.index()];
                (c > 0).then_some((t, c))
            })
            .collect()
    }
}

impl vusion_snapshot::Snapshot for PhysMemory {
    fn save(&self, w: &mut vusion_snapshot::Writer) {
        w.usize(self.info.len());
        // Sparse frame contents: only materialized frames travel.
        let live = self.data.iter().filter(|d| d.is_some()).count();
        w.usize(live);
        for (i, d) in self.data.iter().enumerate() {
            if let Some(page) = d {
                w.usize(i);
                w.bytes(page.as_slice());
            }
        }
        for info in &self.info {
            info.save(w);
        }
    }

    fn load(
        &mut self,
        r: &mut vusion_snapshot::Reader<'_>,
    ) -> Result<(), vusion_snapshot::SnapshotError> {
        use vusion_snapshot::SnapshotError;
        let frames = r.usize()?;
        if frames != self.info.len() {
            return Err(SnapshotError::Corrupt("frame count mismatch"));
        }
        for d in &mut self.data {
            *d = None;
        }
        let live = r.usize()?;
        for _ in 0..live {
            let i = r.usize()?;
            if i >= frames {
                return Err(SnapshotError::Corrupt("frame index out of range"));
            }
            let bytes = r.bytes(PAGE_SIZE as usize)?;
            let mut page = Box::new(ZERO_PAGE);
            page.copy_from_slice(bytes);
            self.data[i] = Some(page);
        }
        for info in &mut self.info {
            info.load(r)?;
        }
        // Memoized hashes and the O(1) allocation counters are derived
        // state: reset the former, recompute the latter.
        for c in &self.cache {
            c.set(FrameCache::default());
        }
        self.counts = FrameCounts::default();
        for info in &self.info {
            if let Some(t) = contribution(info) {
                self.counts.allocated += 1;
                self.counts.by_type[t.index()] += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_start_zeroed_and_lazy() {
        let m = PhysMemory::new(4);
        assert!(m.is_zero(FrameId(0)));
        assert_eq!(m.read_byte(PhysAddr(100)), 0);
    }

    #[test]
    fn flip_epoch_counts_bit_flips_only() {
        let mut m = PhysMemory::new(3);
        m.write_byte(PhysAddr(1), 5);
        m.write_u64(PhysAddr(8), 9);
        m.write_page(FrameId(1), &[3; PAGE_SIZE as usize]);
        m.copy_page(FrameId(1), FrameId(2));
        m.move_page(FrameId(2), FrameId(0));
        m.zero_page(FrameId(1));
        assert_eq!(m.flip_epoch(), 0, "tracked writes leave the epoch alone");
        m.flip_bit(PhysAddr(7), 1);
        m.flip_bit(PhysAddr(PAGE_SIZE), 0);
        assert_eq!(m.flip_epoch(), 2);
    }

    #[test]
    fn byte_write_read_roundtrip() {
        let mut m = PhysMemory::new(4);
        m.write_byte(PhysAddr(4096 + 17), 0xAB);
        assert_eq!(m.read_byte(PhysAddr(4096 + 17)), 0xAB);
        assert!(!m.is_zero(FrameId(1)));
        assert!(m.is_zero(FrameId(0)));
    }

    #[test]
    fn u64_roundtrip_little_endian() {
        let mut m = PhysMemory::new(1);
        m.write_u64(PhysAddr(8), 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u64(PhysAddr(8)), 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_byte(PhysAddr(8)), 0xef);
    }

    #[test]
    fn copy_page_duplicates_content() {
        let mut m = PhysMemory::new(2);
        m.write_byte(PhysAddr(5), 9);
        m.copy_page(FrameId(0), FrameId(1));
        assert!(m.pages_equal(FrameId(0), FrameId(1)));
        // Copies are independent afterwards.
        m.write_byte(PhysAddr(PAGE_SIZE + 5), 10);
        assert!(!m.pages_equal(FrameId(0), FrameId(1)));
    }

    #[test]
    fn zero_written_page_equals_lazy_zero() {
        let mut m = PhysMemory::new(2);
        m.write_byte(PhysAddr(0), 1);
        m.write_byte(PhysAddr(0), 0);
        assert!(m.pages_equal(FrameId(0), FrameId(1)));
        assert_eq!(m.hash_page(FrameId(0)), m.hash_page(FrameId(1)));
    }

    #[test]
    fn compare_pages_is_lexicographic() {
        let mut m = PhysMemory::new(2);
        m.write_byte(PhysAddr(0), 1);
        assert_eq!(
            m.compare_pages(FrameId(1), FrameId(0)),
            std::cmp::Ordering::Less
        );
        assert_eq!(
            m.compare_pages(FrameId(0), FrameId(0)),
            std::cmp::Ordering::Equal
        );
    }

    #[test]
    fn compare_pages_orders_within_a_word() {
        // Bytes 0..8 fall in one u64; lexicographic order must still hold
        // byte-wise (big-endian word interpretation).
        let mut m = PhysMemory::new(2);
        m.write_byte(PhysAddr(3), 2);
        m.write_byte(PhysAddr(PAGE_SIZE + 3), 1);
        m.write_byte(PhysAddr(PAGE_SIZE + 4), 0xFF);
        // Page 0: 00 00 00 02 ...; page 1: 00 00 00 01 FF ... → page 1 < page 0.
        assert_eq!(
            m.compare_pages(FrameId(1), FrameId(0)),
            std::cmp::Ordering::Less
        );
    }

    #[test]
    fn hash_differs_on_content() {
        let mut m = PhysMemory::new(2);
        m.write_byte(PhysAddr(0), 1);
        assert_ne!(m.hash_page(FrameId(0)), m.hash_page(FrameId(1)));
    }

    /// Plain scalar XXH64 (seed 0), written one lane at a time: each lane
    /// walks every stripe before the next lane starts, the opposite loop
    /// order of the implementation, and every word is assembled byte by
    /// byte.
    fn reference_hash(bytes: &[u8]) -> u64 {
        const P1: u64 = 0x9e37_79b1_85eb_ca87;
        const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
        const P3: u64 = 0x1656_67b1_9e37_79f9;
        const P4: u64 = 0x85eb_ca77_c2b2_ae63;
        const P5: u64 = 0x27d4_eb2f_1656_67c5;
        let le = |b: &[u8]| {
            b.iter()
                .rev()
                .fold(0u64, |acc, &x| (acc << 8) | u64::from(x))
        };
        let round = |acc: u64, w: u64| {
            acc.wrapping_add(w.wrapping_mul(P2))
                .rotate_left(31)
                .wrapping_mul(P1)
        };
        let len = bytes.len();
        let stripes = len / 32;
        let mut h = if len >= 32 {
            let init = [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)];
            let mut lanes = [0u64; 4];
            for lane in 0..4 {
                let mut acc = init[lane];
                for s in 0..stripes {
                    let at = s * 32 + lane * 8;
                    acc = round(acc, le(&bytes[at..at + 8]));
                }
                lanes[lane] = acc;
            }
            let mut h = lanes[0]
                .rotate_left(1)
                .wrapping_add(lanes[1].rotate_left(7))
                .wrapping_add(lanes[2].rotate_left(12))
                .wrapping_add(lanes[3].rotate_left(18));
            for lane in lanes {
                h = (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
            }
            h
        } else {
            P5
        };
        h = h.wrapping_add(len as u64);
        let mut i = stripes * 32;
        while i + 8 <= len {
            h = (h ^ round(0, le(&bytes[i..i + 8])))
                .rotate_left(27)
                .wrapping_mul(P1)
                .wrapping_add(P4);
            i += 8;
        }
        if i + 4 <= len {
            h = (h ^ le(&bytes[i..i + 4]).wrapping_mul(P1))
                .rotate_left(23)
                .wrapping_mul(P2)
                .wrapping_add(P3);
            i += 4;
        }
        while i < len {
            h = (h ^ u64::from(bytes[i]).wrapping_mul(P5))
                .rotate_left(11)
                .wrapping_mul(P1);
            i += 1;
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }

    /// Deterministic xorshift pages — no external RNG in unit tests.
    /// Every third page gets a long zero prefix.
    fn seeded_pages() -> Vec<[u8; PAGE_SIZE as usize]> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..8)
            .map(|seed_page| {
                let mut page = [0u8; PAGE_SIZE as usize];
                for chunk in page.chunks_exact_mut(8) {
                    chunk.copy_from_slice(&next().to_le_bytes());
                }
                if seed_page % 3 == 0 {
                    page[..1024].fill(0);
                }
                page
            })
            .collect()
    }

    #[test]
    fn content_hash_matches_bytewise_reference() {
        // WPF's sort order (and the §5.2 attack) depends on the hash
        // values, not just on hash equality: pin them exactly.
        let mut page = [0u8; PAGE_SIZE as usize];
        for (i, b) in page.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(31).wrapping_add(7);
        }
        assert_eq!(content_hash(&page), reference_hash(&page));
        for len in [0usize, 1, 3, 4, 5, 7, 8, 9, 12, 63, 100] {
            assert_eq!(content_hash(&page[..len]), reference_hash(&page[..len]));
        }
        assert_eq!(ZERO_PAGE_HASH, reference_hash(&ZERO_PAGE));
        // Literal values: a change of any of these re-baselines WPF's
        // frame order and every artifact that depends on it.
        assert_eq!(content_hash(&[]), 0xef46_db37_51d8_e999);
        assert_eq!(content_hash(&[0x5a]), 0xf146_d7bf_5f35_570b);
        assert_eq!(content_hash(&ZERO_PAGE), 0xac86_9b6f_32d8_bbdb);
        assert_eq!(content_hash(&seeded_pages()[1]), 0x9d2e_8d6a_09d5_6f07);
    }

    #[test]
    fn content_hash_matches_reference_on_seeded_pages() {
        for page in seeded_pages() {
            assert_eq!(content_hash(&page), reference_hash(&page));
            for len in [0usize, 1, 7, 8, 31, 32, 33, 63, 100, 4095] {
                assert_eq!(content_hash(&page[..len]), reference_hash(&page[..len]));
            }
            assert!(!page_is_zero(&page));
        }
        assert!(page_is_zero(&ZERO_PAGE));
    }

    #[test]
    fn every_single_bit_flip_changes_the_hash() {
        let mut page = seeded_pages()[2];
        let base = content_hash(&page);
        for byte in 0..PAGE_SIZE as usize {
            for bit in 0..8 {
                page[byte] ^= 1 << bit;
                assert_ne!(content_hash(&page), base, "flip of byte {byte} bit {bit}");
                page[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn zero_inputs_of_every_short_length_hash_apart() {
        let zeros = [0u8; 64];
        let hashes: std::collections::BTreeSet<u64> =
            (0..=64).map(|len| content_hash(&zeros[..len])).collect();
        assert_eq!(hashes.len(), 65);
    }

    #[test]
    fn hash_cache_invalidated_by_every_mutator() {
        let mut m = PhysMemory::new(3);
        let f = FrameId(0);
        m.write_byte(PhysAddr(1), 3);
        let h1 = m.hash_page(f); // populate cache
        m.write_byte(PhysAddr(1), 4);
        assert_ne!(m.hash_page(f), h1);
        assert_eq!(m.hash_page(f), content_hash(m.page(f)));

        m.write_u64(PhysAddr(64), 0xdead_beef);
        assert_eq!(m.hash_page(f), content_hash(m.page(f)));

        let snapshot = *m.page(FrameId(1));
        m.write_page(f, &snapshot);
        assert_eq!(m.hash_page(f), content_hash(m.page(f)));

        m.write_byte(PhysAddr(2 * PAGE_SIZE + 9), 9);
        let _ = m.hash_page(FrameId(2));
        m.copy_page(FrameId(2), f);
        assert_eq!(m.hash_page(f), content_hash(m.page(f)));
        assert_eq!(m.hash_page(f), m.hash_page(FrameId(2)));

        let _ = m.hash_page(f);
        m.flip_bit(PhysAddr(17), 5);
        assert_eq!(m.hash_page(f), content_hash(m.page(f)));

        m.zero_page(f);
        assert_eq!(m.hash_page(f), ZERO_PAGE_HASH);
        assert!(m.is_zero(f));
    }

    #[test]
    fn is_zero_cache_tracks_writes() {
        let mut m = PhysMemory::new(1);
        m.write_byte(PhysAddr(100), 1);
        assert!(!m.is_zero(FrameId(0)));
        m.write_byte(PhysAddr(100), 0);
        assert!(m.is_zero(FrameId(0)));
        m.flip_bit(PhysAddr(100), 0);
        assert!(!m.is_zero(FrameId(0)));
    }

    #[test]
    fn flip_bit_toggles() {
        let mut m = PhysMemory::new(1);
        m.write_byte(PhysAddr(10), 0b0000_0100);
        let v = m.flip_bit(PhysAddr(10), 2);
        assert_eq!(v, 0);
        let v = m.flip_bit(PhysAddr(10), 7);
        assert_eq!(v, 0b1000_0000);
    }

    #[test]
    fn write_page_of_zeroes_dematerializes() {
        let mut m = PhysMemory::new(1);
        m.write_byte(PhysAddr(0), 7);
        m.write_page(FrameId(0), &[0; PAGE_SIZE as usize]);
        assert!(m.is_zero(FrameId(0)));
    }

    #[test]
    fn write_page_overwrites_a_materialized_frame_in_place() {
        let mut m = PhysMemory::new(2);
        m.write_byte(PhysAddr(5), 7);
        let stale = m.hash_page(FrameId(0));
        let content = seeded_page(3);
        m.write_page(FrameId(0), &content);
        assert_eq!(m.page(FrameId(0)), &content);
        assert_ne!(m.hash_page(FrameId(0)), stale, "memo invalidated");
        m.write_page(FrameId(1), &content);
        assert!(m.pages_equal(FrameId(0), FrameId(1)));
    }

    #[test]
    fn seeded_page_matches_bytewise_xorshift() {
        for seed in [0u64, 1, 0x9e37_79b9_7f4a_7c15, u64::MAX] {
            let mut want = [0u8; PAGE_SIZE as usize];
            let mut state = seed | 1;
            for chunk in want.chunks_mut(8) {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                let v = state.wrapping_mul(0x2545_f491_4f6c_dd1d);
                for (i, b) in chunk.iter_mut().enumerate() {
                    *b = (v >> (8 * i)) as u8;
                }
            }
            assert_eq!(seeded_page(seed), want, "seed {seed:#x}");
        }
    }

    #[test]
    fn allocation_accounting() {
        let mut m = PhysMemory::new(3);
        m.info_mut(FrameId(0)).on_alloc(PageType::Anon);
        m.info_mut(FrameId(2)).on_alloc(PageType::PageCache);
        assert_eq!(m.allocated_frames(), 2);
        let by_type = m.allocated_by_type();
        assert!(by_type.contains(&(PageType::Anon, 1)));
        assert!(by_type.contains(&(PageType::PageCache, 1)));
    }

    #[test]
    fn allocation_counters_follow_transitions() {
        let mut m = PhysMemory::new(4);
        m.info_mut(FrameId(0)).on_alloc(PageType::Anon);
        m.info_mut(FrameId(1)).on_alloc(PageType::Fused);
        assert_eq!(m.allocated_frames(), 2);
        {
            let mut info = m.info_mut(FrameId(1));
            assert!(info.put());
            info.on_free();
        }
        assert_eq!(m.allocated_frames(), 1);
        assert_eq!(m.allocated_by_type(), vec![(PageType::Anon, 1)]);
        // Retyping in place must move the per-type counter too.
        m.info_mut(FrameId(0)).page_type = PageType::PageCache;
        assert_eq!(m.allocated_by_type(), vec![(PageType::PageCache, 1)]);
        assert_eq!(m.allocated_frames(), 1);
    }

    #[test]
    #[should_panic(expected = "crosses frame boundary")]
    fn u64_across_boundary_panics() {
        let m = PhysMemory::new(2);
        let _ = m.read_u64(PhysAddr(PAGE_SIZE - 4));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_frame_panics() {
        let m = PhysMemory::new(1);
        let _ = m.page(FrameId(1));
    }
}
