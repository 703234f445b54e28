//! The closed-loop driver: one guest access at a time, each issued after
//! the previous one returned, every read checked against the oracle.

use vusion_kernel::{FusionPolicy, Pid, System};
use vusion_mem::{VirtAddr, PAGE_SIZE};

use crate::oracle::Oracle;
use crate::spans::{Kind, SharedLog};

/// A system under test plus everything the benchmark keeps about it.
pub struct Driver<P: FusionPolicy> {
    pub sys: System<P>,
    pub oracle: Oracle,
    log: Option<SharedLog>,
    engine: u8,
    /// Whether accesses are in the measured phase (latency is sampled).
    pub measuring: bool,
    /// Simulated latency (ns) of every measured access.
    pub lat: Vec<u32>,
    /// Accesses and swept pages checked against the oracle.
    pub checked: u64,
    /// Failed operations: unresolved faults, livelocks, oracle mismatches.
    pub failures: u64,
    /// A description of the first failure.
    pub first_failure: Option<String>,
    /// Accesses the system reported as failed (already in `failures`).
    errors: u64,
    /// Addresses the measured phase touched (kept only when tracing, for
    /// the cache and DRAM probes).
    pub touched: Vec<(Pid, VirtAddr)>,
}

impl<P: FusionPolicy> Driver<P> {
    pub fn new(sys: System<P>, oracle: Oracle, log: Option<SharedLog>, engine: u8) -> Self {
        Self {
            sys,
            oracle,
            log,
            engine,
            measuring: false,
            lat: Vec::new(),
            checked: 0,
            failures: 0,
            first_failure: None,
            errors: 0,
            touched: Vec::new(),
        }
    }

    /// Runs one call into the system inside a span of `kind`.
    fn call<R>(&mut self, kind: Kind, f: impl FnOnce(&mut System<P>) -> R) -> R {
        let Some(log) = &self.log else {
            return f(&mut self.sys);
        };
        let id = log.borrow_mut().begin(kind, self.engine);
        let r = f(&mut self.sys);
        log.borrow_mut().end(id);
        r
    }

    /// Counts a failure, keeping the first description.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failures += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(what());
        }
    }

    /// One timed access through `f`, with latency sampling and bookkeeping
    /// shared by reads and writes.
    fn access<R>(&mut self, g: usize, va: VirtAddr, f: impl FnOnce(&mut System<P>, Pid) -> R) -> R {
        let pid = self.oracle.guests[g].pid;
        let t0 = self.sys.machine.now_ns();
        let r = self.call(Kind::Access, |s| f(s, pid));
        if self.measuring {
            let dt = self.sys.machine.now_ns() - t0;
            self.lat.push(dt.min(u32::MAX as u64) as u32);
            if self.log.is_some() {
                self.touched.push((pid, va));
            }
        }
        self.checked += 1;
        r
    }

    /// Reads one byte of guest `g` and checks it against the oracle.
    pub fn read(&mut self, g: usize, va: VirtAddr) {
        let want = self.oracle.byte(g, va);
        match self.access(g, va, |s, pid| s.try_read(pid, va)) {
            Ok(got) if got == want => {}
            Ok(got) => self.fail(|| format!("guest {g} {va:?}: read {got}, expected {want}")),
            Err(e) => {
                self.errors += 1;
                self.fail(|| format!("guest {g} {va:?}: read failed: {e}"));
            }
        }
    }

    /// Writes one byte of guest `g`; the oracle records it once it lands.
    pub fn write(&mut self, g: usize, va: VirtAddr, value: u8) {
        match self.access(g, va, |s, pid| s.try_write(pid, va, value)) {
            Ok(()) => self.oracle.store(g, va, value),
            Err(e) => {
                self.errors += 1;
                self.fail(|| format!("guest {g} {va:?}: write failed: {e}"));
            }
        }
    }

    /// Lets simulated time pass (background daemons run).
    pub fn idle(&mut self, ns: u64) {
        self.call(Kind::Background, |s| s.idle(ns));
    }

    /// Forces `n` scanner wakeups.
    pub fn force_scans(&mut self, n: usize) {
        self.call(Kind::Background, |s| s.force_scans(n));
    }

    /// Scanner wakeups until a whole pass over every modelled page (at
    /// the engines' 100 pages per wakeup) leaves the engine's savings
    /// unchanged, or the cap is reached: fusion has converged.
    pub fn converge(&mut self) {
        const PAGES_PER_WAKEUP: u64 = 100;
        const MAX_PASSES: usize = 8;
        let pages: u64 = self.oracle.guests.iter().map(|g| g.pages()).sum();
        let pass = pages.div_ceil(PAGES_PER_WAKEUP) as usize;
        let mut last = u64::MAX;
        for _ in 0..MAX_PASSES {
            self.force_scans(pass);
            let saved = self.sys.policy.pages_saved();
            if saved == last {
                break;
            }
            last = saved;
        }
    }

    /// The end-of-run gate: every modelled page read back with
    /// `read_page` and compared, the frame audit, and the fault counters.
    pub fn sweep(&mut self) {
        for g in 0..self.oracle.guests.len() {
            let pid = self.oracle.guests[g].pid;
            let pages: Vec<VirtAddr> = self.oracle.guests[g]
                .regions
                .iter()
                .flat_map(|r| (0..r.pages).map(|p| r.va(p, 0)))
                .collect();
            for va in pages {
                let got = self.sys.read_page(pid, va);
                self.checked += 1;
                if got[..] != *self.oracle.page(g, va) {
                    let at = got
                        .iter()
                        .zip(self.oracle.page(g, va))
                        .position(|(a, b)| a != b)
                        .unwrap_or(0) as u64;
                    self.fail(|| {
                        format!(
                            "guest {g} {va:?}: page differs from the oracle at byte {at} of {PAGE_SIZE}"
                        )
                    });
                }
            }
        }
        self.audit();
    }

    /// Frame audit plus the system's own failure counters (unresolved
    /// faults and livelocks the driver did not see itself happened in
    /// set-up or in the sweep).
    fn audit(&mut self) {
        for finding in self.sys.machine.audit_frames() {
            self.fail(|| format!("audit_frames: {finding}"));
        }
        let s = self.sys.stats();
        let m = self.sys.machine.stats();
        let unseen = (s.unresolved_faults + s.fault_livelocks).saturating_sub(self.errors);
        for (what, n) in [
            ("unresolved faults or livelocks", unseen),
            ("OOM events", m.oom_events),
        ] {
            for _ in 0..n {
                self.fail(|| format!("system reports {n} {what}"));
            }
        }
    }
}
