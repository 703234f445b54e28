//! The set-of-vectors LLC the flat one replaced, kept as the oracle for
//! the differential test: one heap-allocated MRU-first `Vec` per set.

use vusion_mem::{FrameId, PhysAddr, PAGE_SIZE};

use super::{CacheOutcome, CacheStats, LlcConfig};

pub(super) struct RefLlc {
    cfg: LlcConfig,
    sets: Vec<Vec<u64>>,
    stats: CacheStats,
}

impl RefLlc {
    pub(super) fn new(cfg: LlcConfig) -> Self {
        Self {
            cfg,
            sets: vec![Vec::new(); cfg.sets],
            stats: CacheStats::default(),
        }
    }

    pub(super) fn stats(&self) -> CacheStats {
        self.stats
    }

    fn set_index(&self, addr: PhysAddr) -> usize {
        ((addr.0 / self.cfg.line_size) % self.cfg.sets as u64) as usize
    }

    pub(super) fn access_evicting(&mut self, addr: PhysAddr) -> (CacheOutcome, Option<u64>) {
        let line = addr.0 / self.cfg.line_size;
        let set_idx = self.set_index(addr);
        let ways = self.cfg.ways;
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&l| l == line) {
            let l = set.remove(pos);
            set.insert(0, l);
            self.stats.hits += 1;
            (CacheOutcome::Hit, None)
        } else {
            set.insert(0, line);
            let evicted = if set.len() > ways {
                self.stats.evictions += 1;
                set.pop()
            } else {
                None
            };
            self.stats.misses += 1;
            (CacheOutcome::Miss, evicted)
        }
    }

    pub(super) fn set_lines(&self, set: usize) -> &[u64] {
        &self.sets[set]
    }

    pub(super) fn contains(&self, addr: PhysAddr) -> bool {
        let line = addr.0 / self.cfg.line_size;
        self.sets[self.set_index(addr)].contains(&line)
    }

    pub(super) fn flush(&mut self, addr: PhysAddr) {
        let line = addr.0 / self.cfg.line_size;
        let set_idx = self.set_index(addr);
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&l| l == line) {
            set.remove(pos);
            self.stats.flushes += 1;
        }
    }

    pub(super) fn flush_frame(&mut self, frame: FrameId) {
        for i in 0..(PAGE_SIZE / self.cfg.line_size) {
            self.flush(frame.base() + i * self.cfg.line_size);
        }
    }

    pub(super) fn clear(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
    }

    pub(super) fn save(&self, w: &mut vusion_snapshot::Writer) {
        w.usize(self.cfg.sets);
        w.usize(self.cfg.ways);
        w.u64(self.cfg.line_size);
        for set in &self.sets {
            w.u64s(set);
        }
        w.u64(self.stats.hits);
        w.u64(self.stats.misses);
        w.u64(self.stats.evictions);
        w.u64(self.stats.flushes);
    }
}
