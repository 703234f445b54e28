//! A Linux-style binary buddy allocator.
//!
//! This is the system-wide page allocator of the simulation. Two properties
//! matter for the paper:
//!
//! * **Order-9 allocations** back transparent huge pages (512 contiguous
//!   frames), which `khugepaged` requests.
//! * **LIFO free lists**: like Linux, a freed block is pushed on the head of
//!   its free list and the next allocation pops it right back. This
//!   *predictable reuse* is the memory-massaging primitive Flip Feng Shui
//!   exploits (§4.2) and the reason VUsion draws backing frames from a
//!   [`crate::RandomPool`] instead (§6.2: randomizing the system-wide
//!   allocator "has non-trivial performance and usability implications", so
//!   RA is enforced at the fusion system).
//!
//! Exhaustion and misuse are reported as [`MmError`], never as panics: the
//! chaos suite drives this allocator straight into OOM (optionally via an
//! attached [`FaultInjector`]) and the engines must degrade gracefully.

use crate::addr::FrameId;
use crate::error::MmError;
use crate::fault::{FaultInjector, InjectionStats};
use crate::FrameAllocator;

/// Largest supported order: blocks of `2^10 = 1024` frames (4 MiB).
pub const MAX_ORDER: u8 = 10;

/// Order-table entry of a frame that starts no block.
const NO_BLOCK: u8 = u8::MAX;

/// Allocation statistics, exposed for benches and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuddyStats {
    /// Successful allocations (any order).
    pub allocs: u64,
    /// Frees (any order).
    pub frees: u64,
    /// Block splits performed.
    pub splits: u64,
    /// Buddy coalesces performed.
    pub merges: u64,
}

/// Binary buddy allocator over the frame range `[base, base + frames)`.
///
/// Block bookkeeping lives in two frame-indexed order tables, so every
/// alloc, free and coalesce step is O(1) table work: free blocks never
/// overlap, so a frame starts at most one free block, and likewise at most
/// one outstanding allocation.
pub struct BuddyAllocator {
    base: u64,
    frames: u64,
    /// Per-order LIFO stacks of block starts (relative to `base`). Entries
    /// may be stale (consumed by coalescing); `free_heads` is authoritative.
    free_stacks: Vec<Vec<u64>>,
    /// Order of the free block starting at each frame, or `NO_BLOCK`.
    free_heads: Vec<u8>,
    /// Order of the outstanding allocation starting at each frame, or
    /// `NO_BLOCK`, for free-time validation.
    allocated: Vec<u8>,
    /// Number of free blocks per order.
    // vlint: allow(S001, derived tallies — recounted from free_heads in load)
    free_blocks: [u64; MAX_ORDER as usize + 1],
    free_frames: u64,
    stats: BuddyStats,
    /// Optional deterministic failure source (chaos runs).
    injector: Option<FaultInjector>,
}

impl BuddyAllocator {
    /// Creates an allocator managing `frames` frames starting at `base`.
    ///
    /// The region need not be a power of two; it is carved greedily into
    /// maximal aligned blocks.
    ///
    /// # Panics
    ///
    /// Panics if `frames == 0` (a configuration error, not a runtime
    /// condition).
    pub fn new(base: FrameId, frames: u64) -> Self {
        assert!(frames > 0, "buddy region must be non-empty");
        let mut a = Self {
            base: base.0,
            frames,
            free_stacks: vec![Vec::new(); usize::from(MAX_ORDER) + 1],
            free_heads: vec![NO_BLOCK; frames as usize],
            allocated: vec![NO_BLOCK; frames as usize],
            free_blocks: [0; MAX_ORDER as usize + 1],
            free_frames: frames,
            stats: BuddyStats::default(),
            injector: None,
        };
        // Carve the region into maximal aligned blocks, from high addresses
        // down, so the LIFO stack pops low addresses first.
        let mut carved: Vec<(u64, u8)> = Vec::new();
        let mut start = 0u64;
        while start < frames {
            let align_order = if start == 0 {
                MAX_ORDER
            } else {
                start.trailing_zeros().min(u32::from(MAX_ORDER)) as u8
            };
            let mut order = align_order;
            while (1u64 << order) > frames - start {
                order -= 1;
            }
            carved.push((start, order));
            start += 1 << order;
        }
        for &(s, o) in carved.iter().rev() {
            a.push_free(s, o);
        }
        a
    }

    /// First frame managed by this allocator.
    pub fn base(&self) -> FrameId {
        FrameId(self.base)
    }

    /// Number of frames managed (free or allocated).
    pub fn managed_frames(&self) -> u64 {
        self.frames
    }

    /// Allocation statistics.
    pub fn stats(&self) -> BuddyStats {
        self.stats
    }

    /// Attaches a deterministic fault injector: every subsequent
    /// allocation consults it and may fail with
    /// [`MmError::OutOfFrames`] even while frames remain.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// Counters of faults injected into this allocator so far.
    pub fn injection_stats(&self) -> InjectionStats {
        self.injector
            .as_ref()
            .map(FaultInjector::stats)
            .unwrap_or_default()
    }

    fn push_free(&mut self, rel: u64, order: u8) {
        self.free_heads[rel as usize] = order;
        self.free_blocks[usize::from(order)] += 1;
        self.free_stacks[usize::from(order)].push(rel);
    }

    /// Removes the free block of `order` starting at `rel`, if there is
    /// one (its stack entry, if any, goes stale).
    fn take_free(&mut self, rel: u64, order: u8) -> bool {
        let head = &mut self.free_heads[rel as usize];
        if *head != order {
            return false;
        }
        *head = NO_BLOCK;
        self.free_blocks[usize::from(order)] -= 1;
        true
    }

    /// Pops the most recently freed genuinely-free block of `order`.
    fn pop_free(&mut self, order: u8) -> Option<u64> {
        while let Some(rel) = self.free_stacks[usize::from(order)].pop() {
            if self.take_free(rel, order) {
                return Some(rel);
            }
            // Stale entry: the block was coalesced away. Skip it.
        }
        None
    }

    /// Validates `frame` as the start of an outstanding allocation of
    /// `order`, returning its table index.
    fn recorded_block(&self, frame: FrameId, order: u8) -> Result<usize, MmError> {
        if frame.0 < self.base || frame.0 >= self.base + self.frames {
            return Err(MmError::ForeignFrame(frame));
        }
        let rel = (frame.0 - self.base) as usize;
        match self.allocated[rel] {
            NO_BLOCK => Err(MmError::DoubleFree(frame)),
            recorded if recorded != order => Err(MmError::OrderMismatch {
                frame,
                recorded,
                claimed: order,
            }),
            _ => Ok(rel),
        }
    }

    /// Allocates a block of `2^order` frames; returns its first frame.
    ///
    /// Fails with [`MmError::OutOfFrames`] on exhaustion (or injected
    /// failure) and on `order > MAX_ORDER`.
    pub fn alloc_order(&mut self, order: u8) -> Result<FrameId, MmError> {
        if order > MAX_ORDER {
            return Err(MmError::OutOfFrames);
        }
        if let Some(inj) = &mut self.injector {
            if inj.should_fail_alloc() {
                return Err(MmError::OutOfFrames);
            }
        }
        // Find the smallest order with a free block.
        let mut o = (order..=MAX_ORDER)
            .find(|&o| self.free_blocks[usize::from(o)] > 0)
            .ok_or(MmError::OutOfFrames)?;
        let rel = self.pop_free(o).ok_or(MmError::OutOfFrames)?;
        // Split down to the requested order, keeping the upper halves free.
        while o > order {
            o -= 1;
            let upper = rel + (1 << o);
            self.push_free(upper, o);
            self.stats.splits += 1;
        }
        self.allocated[rel as usize] = order;
        self.free_frames -= 1 << order;
        self.stats.allocs += 1;
        Ok(FrameId(self.base + rel))
    }

    /// Frees a block previously returned by [`Self::alloc_order`].
    ///
    /// Reports (instead of aborting on) misuse: [`MmError::DoubleFree`],
    /// [`MmError::ForeignFrame`], [`MmError::OrderMismatch`]. A failed
    /// free leaves the allocator state unchanged.
    pub fn free_order(&mut self, frame: FrameId, order: u8) -> Result<(), MmError> {
        let start = self.recorded_block(frame, order)?;
        self.allocated[start] = NO_BLOCK;
        self.free_frames += 1 << order;
        self.stats.frees += 1;
        // Coalesce with the buddy while it is free.
        let mut rel = start as u64;
        let mut o = order;
        while o < MAX_ORDER {
            let buddy = rel ^ (1u64 << o);
            if buddy + (1 << o) > self.frames || !self.take_free(buddy, o) {
                break;
            }
            self.stats.merges += 1;
            rel = rel.min(buddy);
            o += 1;
        }
        self.push_free(rel, o);
        Ok(())
    }

    /// Converts one recorded allocation of `2^order` frames into `2^order`
    /// independent order-0 allocations, so the frames can be freed
    /// individually. Used when a transparent huge page is broken up into
    /// base pages (KSM and VUsion both do this before fusing, §8.1).
    pub fn split_allocated(&mut self, frame: FrameId, order: u8) -> Result<(), MmError> {
        let start = self.recorded_block(frame, order)?;
        self.allocated[start..start + (1usize << order)].fill(0);
        Ok(())
    }

    /// Whether a specific frame is currently inside any free block.
    pub fn is_frame_free(&self, frame: FrameId) -> bool {
        if frame.0 < self.base || frame.0 >= self.base + self.frames {
            return false;
        }
        let rel = frame.0 - self.base;
        (0..=MAX_ORDER).any(|o| {
            let block = rel & !((1u64 << o) - 1);
            self.free_heads[block as usize] == o
        })
    }

    /// Validates a block read from a snapshot: in range, aligned to its
    /// order, and entirely inside the managed region.
    fn check_block(&self, rel: u64, order: u8) -> Result<usize, vusion_snapshot::SnapshotError> {
        use vusion_snapshot::SnapshotError;
        if order > MAX_ORDER {
            return Err(SnapshotError::Corrupt("buddy block order out of range"));
        }
        let size = 1u64 << order;
        if !rel.is_multiple_of(size) || rel.checked_add(size).is_none_or(|end| end > self.frames) {
            return Err(SnapshotError::Corrupt("buddy block out of range"));
        }
        Ok(rel as usize)
    }
}

impl vusion_snapshot::Snapshot for BuddyAllocator {
    fn save(&self, w: &mut vusion_snapshot::Writer) {
        w.u64(self.base);
        w.u64(self.frames);
        // Free stacks travel verbatim, stale entries included: the LIFO pop
        // order (and thus predictable reuse) must survive restore exactly.
        w.usize(self.free_stacks.len());
        for stack in &self.free_stacks {
            w.u64s(stack);
        }
        // Per order, the ascending starts of its free blocks.
        let mut free_sets = vec![Vec::new(); usize::from(MAX_ORDER) + 1];
        for (rel, &order) in self.free_heads.iter().enumerate() {
            if order != NO_BLOCK {
                free_sets[usize::from(order)].push(rel as u64);
            }
        }
        for set in &free_sets {
            w.u64s(set);
        }
        let allocs: Vec<(u64, u8)> = self
            .allocated
            .iter()
            .enumerate()
            .filter(|&(_, &order)| order != NO_BLOCK)
            .map(|(rel, &order)| (rel as u64, order))
            .collect();
        w.usize(allocs.len());
        for (rel, order) in allocs {
            w.u64(rel);
            w.u8(order);
        }
        w.u64(self.free_frames);
        w.u64(self.stats.allocs);
        w.u64(self.stats.frees);
        w.u64(self.stats.splits);
        w.u64(self.stats.merges);
        match &self.injector {
            None => w.bool(false),
            Some(inj) => {
                w.bool(true);
                inj.save(w);
            }
        }
    }

    fn load(
        &mut self,
        r: &mut vusion_snapshot::Reader<'_>,
    ) -> Result<(), vusion_snapshot::SnapshotError> {
        use vusion_snapshot::SnapshotError;
        if r.u64()? != self.base || r.u64()? != self.frames {
            return Err(SnapshotError::Corrupt("buddy geometry mismatch"));
        }
        let orders = r.usize()?;
        if orders != self.free_stacks.len() {
            return Err(SnapshotError::Corrupt("buddy order count mismatch"));
        }
        for o in 0..self.free_stacks.len() {
            let stack = r.u64s()?;
            if stack.iter().any(|&rel| rel >= self.frames) {
                return Err(SnapshotError::Corrupt(
                    "buddy free-stack entry out of range",
                ));
            }
            self.free_stacks[o] = stack;
        }
        self.free_heads.fill(NO_BLOCK);
        let mut free_in_blocks = 0u64;
        for order in 0..=MAX_ORDER {
            for _ in 0..r.usize()? {
                let rel = self.check_block(r.u64()?, order)?;
                if self.free_heads[rel] != NO_BLOCK {
                    return Err(SnapshotError::Corrupt("buddy free block listed twice"));
                }
                self.free_heads[rel] = order;
                free_in_blocks += 1 << order;
            }
        }
        self.allocated.fill(NO_BLOCK);
        for _ in 0..r.usize()? {
            let rel = r.u64()?;
            let order = r.u8()?;
            let rel = self.check_block(rel, order)?;
            if self.allocated[rel] != NO_BLOCK {
                return Err(SnapshotError::Corrupt("buddy allocation listed twice"));
            }
            self.allocated[rel] = order;
        }
        self.free_blocks = [0; MAX_ORDER as usize + 1];
        for &order in &self.free_heads {
            if order != NO_BLOCK {
                self.free_blocks[usize::from(order)] += 1;
            }
        }
        self.free_frames = r.u64()?;
        if self.free_frames != free_in_blocks {
            return Err(SnapshotError::Corrupt("buddy free-frame count mismatch"));
        }
        self.stats = BuddyStats {
            allocs: r.u64()?,
            frees: r.u64()?,
            splits: r.u64()?,
            merges: r.u64()?,
        };
        self.injector = if r.bool()? {
            let mut inj = FaultInjector::new(crate::fault::FaultPlan::NONE, 0);
            inj.load(r)?;
            Some(inj)
        } else {
            None
        };
        Ok(())
    }
}

impl FrameAllocator for BuddyAllocator {
    fn alloc(&mut self) -> Result<FrameId, MmError> {
        self.alloc_order(0)
    }

    fn free(&mut self, frame: FrameId) -> Result<(), MmError> {
        self.free_order(frame, 0)
    }

    fn free_frames(&self) -> usize {
        self.free_frames as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use vusion_snapshot::{Reader, Snapshot, SnapshotError, Writer};

    /// The ordered-set implementation the frame-indexed tables replaced,
    /// kept as a regression reference: driven through the same operation
    /// sequence, the two must agree on every returned frame, error,
    /// counter and snapshot byte.
    mod reference {
        use std::collections::{BTreeMap, BTreeSet};

        use super::super::{BuddyStats, MAX_ORDER};
        use crate::addr::FrameId;
        use crate::error::MmError;

        pub(super) struct RefBuddy {
            base: u64,
            frames: u64,
            free_stacks: Vec<Vec<u64>>,
            free_sets: Vec<BTreeSet<u64>>,
            allocated: BTreeMap<u64, u8>,
            free_frames: u64,
            stats: BuddyStats,
        }

        impl RefBuddy {
            pub(super) fn new(base: FrameId, frames: u64) -> Self {
                let mut a = Self {
                    base: base.0,
                    frames,
                    free_stacks: vec![Vec::new(); usize::from(MAX_ORDER) + 1],
                    free_sets: vec![BTreeSet::new(); usize::from(MAX_ORDER) + 1],
                    allocated: BTreeMap::new(),
                    free_frames: frames,
                    stats: BuddyStats::default(),
                };
                let mut carved: Vec<(u64, u8)> = Vec::new();
                let mut start = 0u64;
                while start < frames {
                    let align_order = if start == 0 {
                        MAX_ORDER
                    } else {
                        start.trailing_zeros().min(u32::from(MAX_ORDER)) as u8
                    };
                    let mut order = align_order;
                    while (1u64 << order) > frames - start {
                        order -= 1;
                    }
                    carved.push((start, order));
                    start += 1 << order;
                }
                for &(s, o) in carved.iter().rev() {
                    a.push_free(s, o);
                }
                a
            }

            pub(super) fn stats(&self) -> BuddyStats {
                self.stats
            }

            pub(super) fn free_frames(&self) -> u64 {
                self.free_frames
            }

            fn push_free(&mut self, rel: u64, order: u8) {
                self.free_sets[usize::from(order)].insert(rel);
                self.free_stacks[usize::from(order)].push(rel);
            }

            fn pop_free(&mut self, order: u8) -> Option<u64> {
                let o = usize::from(order);
                while let Some(rel) = self.free_stacks[o].pop() {
                    if self.free_sets[o].remove(&rel) {
                        return Some(rel);
                    }
                }
                None
            }

            fn check_managed(&self, frame: FrameId) -> Result<(), MmError> {
                if frame.0 >= self.base && frame.0 < self.base + self.frames {
                    Ok(())
                } else {
                    Err(MmError::ForeignFrame(frame))
                }
            }

            pub(super) fn alloc_order(&mut self, order: u8) -> Result<FrameId, MmError> {
                if order > MAX_ORDER {
                    return Err(MmError::OutOfFrames);
                }
                let mut have = None;
                for o in order..=MAX_ORDER {
                    if !self.free_sets[usize::from(o)].is_empty() {
                        have = Some(o);
                        break;
                    }
                }
                let mut o = have.ok_or(MmError::OutOfFrames)?;
                let rel = self.pop_free(o).ok_or(MmError::OutOfFrames)?;
                while o > order {
                    o -= 1;
                    let upper = rel + (1 << o);
                    self.push_free(upper, o);
                    self.stats.splits += 1;
                }
                self.allocated.insert(rel, order);
                self.free_frames -= 1 << order;
                self.stats.allocs += 1;
                Ok(FrameId(self.base + rel))
            }

            pub(super) fn free_order(&mut self, frame: FrameId, order: u8) -> Result<(), MmError> {
                self.check_managed(frame)?;
                let mut rel = frame.0 - self.base;
                let recorded = self
                    .allocated
                    .remove(&rel)
                    .ok_or(MmError::DoubleFree(frame))?;
                if recorded != order {
                    self.allocated.insert(rel, recorded);
                    return Err(MmError::OrderMismatch {
                        frame,
                        recorded,
                        claimed: order,
                    });
                }
                self.free_frames += 1 << order;
                self.stats.frees += 1;
                let mut o = order;
                while o < MAX_ORDER {
                    let buddy = rel ^ (1u64 << o);
                    if buddy + (1 << o) > self.frames
                        || !self.free_sets[usize::from(o)].remove(&buddy)
                    {
                        break;
                    }
                    self.stats.merges += 1;
                    rel = rel.min(buddy);
                    o += 1;
                }
                self.push_free(rel, o);
                Ok(())
            }

            pub(super) fn split_allocated(
                &mut self,
                frame: FrameId,
                order: u8,
            ) -> Result<(), MmError> {
                self.check_managed(frame)?;
                let rel = frame.0 - self.base;
                let recorded = self
                    .allocated
                    .remove(&rel)
                    .ok_or(MmError::DoubleFree(frame))?;
                if recorded != order {
                    self.allocated.insert(rel, recorded);
                    return Err(MmError::OrderMismatch {
                        frame,
                        recorded,
                        claimed: order,
                    });
                }
                for i in 0..(1u64 << order) {
                    self.allocated.insert(rel + i, 0);
                }
                Ok(())
            }

            pub(super) fn is_frame_free(&self, frame: FrameId) -> bool {
                if frame.0 < self.base || frame.0 >= self.base + self.frames {
                    return false;
                }
                let rel = frame.0 - self.base;
                for o in 0..=MAX_ORDER {
                    let block = rel & !((1u64 << o) - 1);
                    if self.free_sets[usize::from(o)].contains(&block) {
                        return true;
                    }
                }
                false
            }

            /// The snapshot payload of the same state (no fault injector).
            pub(super) fn save(&self, w: &mut vusion_snapshot::Writer) {
                w.u64(self.base);
                w.u64(self.frames);
                w.usize(self.free_stacks.len());
                for stack in &self.free_stacks {
                    w.u64s(stack);
                }
                for set in &self.free_sets {
                    w.usize(set.len());
                    for &rel in set {
                        w.u64(rel);
                    }
                }
                w.usize(self.allocated.len());
                for (&rel, &order) in &self.allocated {
                    w.u64(rel);
                    w.u8(order);
                }
                w.u64(self.free_frames);
                w.u64(self.stats.allocs);
                w.u64(self.stats.frees);
                w.u64(self.stats.splits);
                w.u64(self.stats.merges);
                w.bool(false);
            }
        }
    }

    fn payload(b: &impl Snapshot) -> Vec<u8> {
        let mut w = Writer::new();
        b.save(&mut w);
        w.into_bytes()
    }

    fn ref_payload(b: &reference::RefBuddy) -> Vec<u8> {
        let mut w = Writer::new();
        b.save(&mut w);
        w.into_bytes()
    }

    /// Drives the table allocator and the reference model through one
    /// seeded sequence of allocations, frees, splits and membership
    /// queries — misuse included — and requires identical observations.
    fn differential_run(base: u64, frames: u64, seed: u64, steps: usize) {
        let mut state = seed;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut dut = BuddyAllocator::new(FrameId(base), frames);
        let mut model = reference::RefBuddy::new(FrameId(base), frames);
        // Outstanding blocks and already-freed ones (double-free probes).
        let mut live: Vec<(FrameId, u8)> = Vec::new();
        let mut dead: Vec<(FrameId, u8)> = Vec::new();
        for step in 0..steps {
            let roll = next() % 100;
            if roll < 40 {
                // Mostly small orders, occasionally huge or invalid ones.
                let order = match next() % 10 {
                    0 => (next() % (u64::from(MAX_ORDER) + 2)) as u8,
                    1 | 2 => (next() % 4) as u8,
                    _ => 0,
                };
                let got = dut.alloc_order(order);
                assert_eq!(
                    got,
                    model.alloc_order(order),
                    "alloc_order({order}) at step {step}"
                );
                if let Ok(f) = got {
                    live.push((f, order));
                }
            } else if roll < 75 && !live.is_empty() {
                let idx = (next() % live.len() as u64) as usize;
                let (f, order) = live[idx];
                // Misuse probes leave the block outstanding.
                let (frame, claimed) = match next() % 8 {
                    0 => (f, order.wrapping_add(1) % (MAX_ORDER + 1)),
                    1 => (FrameId(base + frames + next() % 8), order),
                    2 if base > 0 => (FrameId(next() % base), order),
                    _ => (f, order),
                };
                let got = dut.free_order(frame, claimed);
                assert_eq!(
                    got,
                    model.free_order(frame, claimed),
                    "free_order at step {step}"
                );
                if got.is_ok() {
                    live.swap_remove(idx);
                    dead.push((f, order));
                }
            } else if roll < 82 && !dead.is_empty() {
                let (f, order) = dead[(next() % dead.len() as u64) as usize];
                let got = dut.free_order(f, order);
                assert_eq!(got, model.free_order(f, order), "refree at step {step}");
                if got.is_ok() {
                    // The frame had been reallocated since: it is freed now.
                    live.retain(|&(g, _)| g != f);
                }
            } else if roll < 88 && !live.is_empty() {
                let idx = (next() % live.len() as u64) as usize;
                let (f, order) = live[idx];
                let claimed = if next() % 4 == 0 { order ^ 1 } else { order };
                let got = dut.split_allocated(f, claimed);
                assert_eq!(
                    got,
                    model.split_allocated(f, claimed),
                    "split at step {step}"
                );
                if got.is_ok() {
                    live.swap_remove(idx);
                    live.extend((0..1u64 << order).map(|i| (FrameId(f.0 + i), 0)));
                }
            } else {
                let frame = FrameId(next() % (base + frames + 16));
                assert_eq!(
                    dut.is_frame_free(frame),
                    model.is_frame_free(frame),
                    "is_frame_free({frame:?}) at step {step}"
                );
            }
            assert_eq!(dut.stats(), model.stats(), "stats at step {step}");
            assert_eq!(
                dut.free_frames() as u64,
                model.free_frames(),
                "free frames at step {step}"
            );
            if step % 97 == 0 {
                assert_eq!(
                    payload(&dut),
                    ref_payload(&model),
                    "snapshot bytes at step {step}"
                );
            }
        }
        let bytes = payload(&dut);
        assert_eq!(bytes, ref_payload(&model), "final snapshot bytes");
        // A restored copy carries on exactly like the original.
        let mut restored = BuddyAllocator::new(FrameId(base), frames);
        restored.load(&mut Reader::new(&bytes)).expect("restore");
        assert_eq!(payload(&restored), bytes);
        for _ in 0..64 {
            assert_eq!(restored.alloc(), model.alloc_order(0));
        }
    }

    #[test]
    fn matches_reference_model_on_seeded_sequences() {
        differential_run(0, 1024, 0x9e37_79b9_7f4a_7c15, 4000);
        differential_run(4096, 3000, 0x2545_f491_4f6c_dd1d, 4000);
        differential_run(7, 77, 0xdead_beef_cafe_f00d, 2000);
    }

    #[test]
    fn truncated_or_out_of_range_payload_is_an_error() {
        let mut b = BuddyAllocator::new(FrameId(0), 64);
        let f = b.alloc_order(2).expect("block");
        let _g = b.alloc().expect("frame");
        b.free_order(f, 2).expect("free");
        let bytes = payload(&b);
        for len in 0..bytes.len() {
            let mut fresh = BuddyAllocator::new(FrameId(0), 64);
            assert_eq!(
                fresh.load(&mut Reader::new(&bytes[..len])),
                Err(SnapshotError::Truncated),
                "prefix of {len} bytes"
            );
        }

        // Hand-built payloads: geometry ok, then one bad block.
        let header = |w: &mut Writer, stack: &[u64]| {
            w.u64(0);
            w.u64(64);
            w.usize(usize::from(MAX_ORDER) + 1);
            for o in 0..=MAX_ORDER {
                w.u64s(if o == 0 { stack } else { &[] });
            }
        };
        let free_sets = |w: &mut Writer, order: u8, rels: &[u64]| {
            for o in 0..=MAX_ORDER {
                w.u64s(if o == order { rels } else { &[] });
            }
        };
        let corrupt = |build: &dyn Fn(&mut Writer)| {
            let mut w = Writer::new();
            build(&mut w);
            let bytes = w.into_bytes();
            let mut fresh = BuddyAllocator::new(FrameId(0), 64);
            fresh.load(&mut Reader::new(&bytes))
        };
        let is_corrupt = |r: Result<(), SnapshotError>| matches!(r, Err(SnapshotError::Corrupt(_)));
        // Free-stack entry past the region.
        assert!(is_corrupt(corrupt(&|w| header(w, &[64]))));
        // Free block past the region, straddling its end, or misaligned.
        assert!(is_corrupt(corrupt(&|w| {
            header(w, &[]);
            free_sets(w, 0, &[1 << 40]);
        })));
        assert!(is_corrupt(corrupt(&|w| {
            header(w, &[]);
            free_sets(w, 6, &[0, 64]);
        })));
        assert!(is_corrupt(corrupt(&|w| {
            header(w, &[]);
            free_sets(w, 2, &[2]);
        })));
        // Allocation past the region, or of an impossible order.
        for (rel, order) in [(64u64, 0u8), (u64::MAX, 0), (0, MAX_ORDER + 1), (0, 200)] {
            assert!(is_corrupt(corrupt(&|w| {
                header(w, &[]);
                free_sets(w, 0, &[]);
                w.usize(1);
                w.u64(rel);
                w.u8(order);
            })));
        }
        // A free-frame count that disagrees with the free blocks.
        assert!(is_corrupt(corrupt(&|w| {
            header(w, &[]);
            free_sets(w, 6, &[0]);
            w.usize(0);
            w.u64(63);
        })));
    }

    #[test]
    fn allocates_distinct_frames() {
        let mut b = BuddyAllocator::new(FrameId(0), 64);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..64 {
            let f = b.alloc().expect("in range");
            assert!(seen.insert(f));
        }
        assert_eq!(b.alloc(), Err(MmError::OutOfFrames));
        assert_eq!(b.free_frames(), 0);
    }

    #[test]
    fn lifo_reuse_is_predictable() {
        // The property Flip Feng Shui relies on: free then realloc returns
        // the same frame.
        let mut b = BuddyAllocator::new(FrameId(0), 1024);
        let f = b.alloc().expect("frame");
        let _g = b.alloc().expect("frame");
        b.free(f).expect("free");
        let h = b.alloc().expect("frame");
        assert_eq!(f, h, "buddy must exhibit LIFO reuse");
    }

    #[test]
    fn coalescing_restores_full_blocks() {
        let mut b = BuddyAllocator::new(FrameId(0), 1024);
        let frames: Vec<_> = (0..1024).map(|_| b.alloc().expect("frame")).collect();
        for f in frames {
            b.free(f).expect("free");
        }
        assert_eq!(b.free_frames(), 1024);
        // After everything is freed and coalesced we can allocate MAX_ORDER.
        assert!(b.alloc_order(MAX_ORDER).is_ok());
    }

    #[test]
    fn order9_supports_huge_pages() {
        let mut b = BuddyAllocator::new(FrameId(0), 2048);
        let f = b.alloc_order(9).expect("huge block");
        assert_eq!(f.0 % 512, 0, "order-9 blocks are 2 MiB aligned");
        assert_eq!(b.free_frames(), 2048 - 512);
        b.free_order(f, 9).expect("free");
        assert_eq!(b.free_frames(), 2048);
    }

    #[test]
    fn non_power_of_two_region() {
        let mut b = BuddyAllocator::new(FrameId(0), 1000);
        let mut n = 0;
        while b.alloc().is_ok() {
            n += 1;
        }
        assert_eq!(n, 1000);
    }

    #[test]
    fn base_offset_respected() {
        let mut b = BuddyAllocator::new(FrameId(4096), 16);
        let f = b.alloc().expect("frame");
        assert!(f.0 >= 4096 && f.0 < 4096 + 16);
    }

    #[test]
    fn is_frame_free_tracks_state() {
        let mut b = BuddyAllocator::new(FrameId(0), 16);
        assert!(b.is_frame_free(FrameId(3)));
        let f = b.alloc().expect("frame");
        assert!(!b.is_frame_free(f));
        b.free(f).expect("free");
        assert!(b.is_frame_free(f));
        assert!(!b.is_frame_free(FrameId(99)));
    }

    #[test]
    fn split_and_merge_stats() {
        let mut b = BuddyAllocator::new(FrameId(0), 1024);
        let f = b.alloc().expect("frame");
        assert_eq!(b.stats().splits, u64::from(MAX_ORDER));
        b.free(f).expect("free");
        assert_eq!(b.stats().merges, u64::from(MAX_ORDER));
    }

    #[test]
    fn split_allocated_allows_individual_frees() {
        let mut b = BuddyAllocator::new(FrameId(0), 2048);
        let huge = b.alloc_order(9).expect("huge block");
        b.split_allocated(huge, 9).expect("split");
        // Free every frame individually; coalescing restores the block.
        for i in 0..512u64 {
            b.free(FrameId(huge.0 + i)).expect("free");
        }
        assert_eq!(b.free_frames(), 2048);
        assert!(b.alloc_order(MAX_ORDER).is_ok());
    }

    #[test]
    fn split_wrong_order_is_reported() {
        let mut b = BuddyAllocator::new(FrameId(0), 2048);
        let huge = b.alloc_order(9).expect("huge block");
        assert_eq!(
            b.split_allocated(huge, 8),
            Err(MmError::OrderMismatch {
                frame: huge,
                recorded: 9,
                claimed: 8
            })
        );
        // The rejected split must not have consumed the record.
        b.free_order(huge, 9).expect("block still freeable");
        assert_eq!(b.free_frames(), 2048);
    }

    #[test]
    fn double_free_is_reported_not_fatal() {
        // Regression test for the former double-free panic: the error is
        // reported and the allocator stays fully usable.
        let mut b = BuddyAllocator::new(FrameId(0), 16);
        let f = b.alloc().expect("frame");
        b.free(f).expect("first free");
        assert_eq!(b.free(f), Err(MmError::DoubleFree(f)));
        assert_eq!(b.free_frames(), 16, "double free must not corrupt counts");
        // Allocator still works after the rejected free.
        let g = b.alloc().expect("frame after double free");
        b.free(g).expect("free");
    }

    #[test]
    fn wrong_order_free_is_reported() {
        let mut b = BuddyAllocator::new(FrameId(0), 16);
        let f = b.alloc_order(1).expect("block");
        assert_eq!(
            b.free_order(f, 0),
            Err(MmError::OrderMismatch {
                frame: f,
                recorded: 1,
                claimed: 0
            })
        );
        // The correct-order free still succeeds.
        b.free_order(f, 1).expect("free at recorded order");
        assert_eq!(b.free_frames(), 16);
    }

    #[test]
    fn foreign_frame_free_is_reported() {
        let mut b = BuddyAllocator::new(FrameId(0), 16);
        assert_eq!(
            b.free(FrameId(100)),
            Err(MmError::ForeignFrame(FrameId(100)))
        );
        assert_eq!(b.free_frames(), 16);
    }

    #[test]
    fn injected_failures_look_like_oom() {
        let mut b = BuddyAllocator::new(FrameId(0), 64);
        b.set_fault_injector(FaultInjector::new(FaultPlan::every_nth_alloc(3), 7));
        let results: Vec<bool> = (0..9).map(|_| b.alloc().is_ok()).collect();
        assert_eq!(
            results,
            vec![true, true, false, true, true, false, true, true, false]
        );
        assert_eq!(b.injection_stats().injected_allocs, 3);
        // Injected failures must not consume frames.
        assert_eq!(b.free_frames(), 64 - 6);
    }
}
