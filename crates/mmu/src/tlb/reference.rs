//! The ordered-map TLB the indexed one replaced, kept as the oracle for
//! the differential test: a `BTreeMap` per page size plus a `Vec` FIFO
//! whose eviction is `remove(0)` and whose invalidation is a `retain`.

use std::collections::BTreeMap;

use vusion_mem::{VirtAddr, HUGE_PAGE_SIZE};

use super::TlbEntry;
use crate::pte::Pte;

pub(super) struct RefTlb {
    cap_4k: usize,
    cap_2m: usize,
    map_4k: BTreeMap<u64, TlbEntry>,
    fifo_4k: Vec<u64>,
    map_2m: BTreeMap<u64, TlbEntry>,
    fifo_2m: Vec<u64>,
    hits: u64,
    misses: u64,
    invalidations: u64,
    flushes: u64,
}

impl RefTlb {
    pub(super) fn new(cap_4k: usize, cap_2m: usize) -> Self {
        Self {
            cap_4k,
            cap_2m,
            map_4k: BTreeMap::new(),
            fifo_4k: Vec::new(),
            map_2m: BTreeMap::new(),
            fifo_2m: Vec::new(),
            hits: 0,
            misses: 0,
            invalidations: 0,
            flushes: 0,
        }
    }

    pub(super) fn lookup(&mut self, va: VirtAddr) -> Option<TlbEntry> {
        if let Some(e) = self.map_2m.get(&(va.0 / HUGE_PAGE_SIZE)) {
            self.hits += 1;
            return Some(*e);
        }
        if let Some(e) = self.map_4k.get(&va.page()) {
            self.hits += 1;
            return Some(*e);
        }
        self.misses += 1;
        None
    }

    pub(super) fn fill(&mut self, va: VirtAddr, entry: TlbEntry) -> Option<TlbEntry> {
        if entry.huge {
            let key = va.0 / HUGE_PAGE_SIZE;
            if self.map_2m.insert(key, entry).is_none() {
                self.fifo_2m.push(key);
                if self.fifo_2m.len() > self.cap_2m {
                    let evict = self.fifo_2m.remove(0);
                    return self.map_2m.remove(&evict);
                }
            }
        } else {
            let key = va.page();
            if self.map_4k.insert(key, entry).is_none() {
                self.fifo_4k.push(key);
                if self.fifo_4k.len() > self.cap_4k {
                    let evict = self.fifo_4k.remove(0);
                    return self.map_4k.remove(&evict);
                }
            }
        }
        None
    }

    pub(super) fn entries(&self) -> impl Iterator<Item = &TlbEntry> {
        self.map_4k.values().chain(self.map_2m.values())
    }

    pub(super) fn invalidate(&mut self, va: VirtAddr) {
        self.invalidations += 1;
        if self.map_4k.remove(&va.page()).is_some() {
            self.fifo_4k.retain(|&k| k != va.page());
        }
        let hk = va.0 / HUGE_PAGE_SIZE;
        if self.map_2m.remove(&hk).is_some() {
            self.fifo_2m.retain(|&k| k != hk);
        }
    }

    pub(super) fn flush(&mut self) {
        self.flushes += 1;
        self.map_4k.clear();
        self.fifo_4k.clear();
        self.map_2m.clear();
        self.fifo_2m.clear();
    }

    pub(super) fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    pub(super) fn event_counts(&self) -> (u64, u64) {
        (self.invalidations, self.flushes)
    }

    pub(super) fn save(&self, w: &mut vusion_snapshot::Writer) {
        w.usize(self.cap_4k);
        w.usize(self.cap_2m);
        w.usize(self.fifo_4k.len());
        for &k in &self.fifo_4k {
            w.u64(k);
            let e = self.map_4k.get(&k).copied().unwrap_or(TlbEntry {
                pte: Pte(0),
                huge: false,
            });
            w.u64(e.pte.0);
        }
        w.usize(self.fifo_2m.len());
        for &k in &self.fifo_2m {
            w.u64(k);
            let e = self.map_2m.get(&k).copied().unwrap_or(TlbEntry {
                pte: Pte(0),
                huge: true,
            });
            w.u64(e.pte.0);
        }
        w.u64(self.hits);
        w.u64(self.misses);
        w.u64(self.invalidations);
        w.u64(self.flushes);
    }
}
