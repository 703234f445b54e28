//! Host-time spans recorded from the benchmark's side of each layer
//! boundary, and the timing wrapper that puts the `core` boundary
//! (`FusionPolicy`) inside them.
//!
//! Spans live in memory with their parent's id; self time is a span's
//! duration minus the durations of its direct children. Nothing inside the
//! simulator is instrumented: every span starts and ends in this crate.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use vusion_kernel::{FusionPolicy, Machine, PageFault, Pid, ScanReport};
use vusion_mem::VirtAddr;
use vusion_snapshot::{Reader, SnapshotError, Writer};

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One engine's whole measured phase (the root; its self time is the
    /// driver's own work).
    Phase,
    /// `System::{read,write,read_page,write_page}`.
    Access,
    /// `System::{idle,force_scans}`.
    Background,
    /// `FusionPolicy::scan`.
    Scan,
    /// `FusionPolicy::handle_fault`.
    Fault,
    /// `FusionPolicy::prepare_collapse`.
    Collapse,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Phase => "phase",
            Kind::Access => "kernel.access",
            Kind::Background => "kernel.background",
            Kind::Scan => "core.scan",
            Kind::Fault => "core.fault",
            Kind::Collapse => "core.collapse",
        }
    }
}

/// One recorded span. `parent` is `NO_PARENT` for a root.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    /// Index of the engine (in the workload's engine list) the span ran on.
    pub engine: u8,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub const NO_PARENT: u32 = u32::MAX;

/// The in-memory span store. Recording is off until [`SpanLog::start`].
pub struct SpanLog {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            on: false,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }
}

/// Span handle shared between the driver and the policy wrapper.
pub type SharedLog = Rc<RefCell<SpanLog>>;

impl SpanLog {
    /// Turns recording on (the measured phase begins).
    pub fn start(&mut self) {
        self.on = true;
    }

    /// Turns recording off; spans recorded so far are kept.
    pub fn stop(&mut self) {
        self.on = false;
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, kind: Kind, engine: u8) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            kind,
            engine,
            parent,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(id);
        id
    }

    /// Closes the span `begin` returned.
    pub fn end(&mut self, id: u32) {
        if id == NO_PARENT {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans[id as usize].end_ns = now;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost-first");
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// The spans as CSV (`id,parent,kind,engine,start_ns,end_ns`).
    pub fn to_csv(&self, engines: &[&str]) -> String {
        let mut out = String::from("id,parent,kind,engine,start_ns,end_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{i},{parent},{},{},{},{}",
                s.kind.name(),
                engines[s.engine as usize],
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

/// A `FusionPolicy` that forwards every call to the boxed engine and
/// records `scan`, `handle_fault` and `prepare_collapse` as spans.
pub struct Timed {
    inner: Box<dyn FusionPolicy>,
    engine: u8,
    log: SharedLog,
}

impl Timed {
    pub fn new(inner: Box<dyn FusionPolicy>, engine: u8, log: SharedLog) -> Self {
        Self { inner, engine, log }
    }

    fn timed<R>(&mut self, kind: Kind, f: impl FnOnce(&mut Box<dyn FusionPolicy>) -> R) -> R {
        let id = self.log.borrow_mut().begin(kind, self.engine);
        let r = f(&mut self.inner);
        self.log.borrow_mut().end(id);
        r
    }
}

impl FusionPolicy for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn scan(&mut self, m: &mut Machine) -> ScanReport {
        self.timed(Kind::Scan, |p| p.scan(m))
    }

    fn handle_fault(&mut self, m: &mut Machine, fault: &PageFault) -> bool {
        self.timed(Kind::Fault, |p| p.handle_fault(m, fault))
    }

    fn prepare_collapse(&mut self, m: &mut Machine, pid: Pid, huge_base: VirtAddr) -> bool {
        self.timed(Kind::Collapse, |p| p.prepare_collapse(m, pid, huge_base))
    }

    fn pages_saved(&self) -> u64 {
        self.inner.pages_saved()
    }

    fn scan_period_ns(&self) -> u64 {
        self.inner.scan_period_ns()
    }

    fn set_scan_budget(&mut self, budget: Option<u64>) {
        self.inner.set_scan_budget(budget);
    }

    fn pressure_drain(&mut self, m: &mut Machine) -> u64 {
        self.inner.pressure_drain(m)
    }

    fn pressure_shrink(&mut self, m: &mut Machine) -> u64 {
        self.inner.pressure_shrink(m)
    }

    fn set_zero_unmerge_deferral(&mut self, on: bool) {
        self.inner.set_zero_unmerge_deferral(on);
    }

    fn set_scan_threads(&mut self, threads: usize) {
        self.inner.set_scan_threads(threads);
    }

    fn save_state(&self, w: &mut Writer) {
        self.inner.save_state(w);
    }

    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        self.inner.restore_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut log = SpanLog::default();
        log.start();
        let root = log.begin(Kind::Phase, 0);
        let a = log.begin(Kind::Access, 0);
        let f = log.begin(Kind::Fault, 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        log.end(f);
        log.end(a);
        log.end(root);
        let own = log.self_times();
        let dur = |i: u32| {
            let s = log.spans()[i as usize];
            s.end_ns - s.start_ns
        };
        assert_eq!(own[f as usize], dur(f));
        assert_eq!(own[a as usize], dur(a) - dur(f));
        assert_eq!(own[root as usize], dur(root) - dur(a));
        assert_eq!(own.iter().sum::<u64>(), dur(root));
    }

    #[test]
    fn recording_is_off_until_started() {
        let mut log = SpanLog::default();
        let id = log.begin(Kind::Scan, 0);
        log.end(id);
        assert!(log.spans().is_empty());
    }
}
