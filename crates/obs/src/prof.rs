//! Memory profiling: a tracking global allocator with per-span attribution.
//!
//! [`TrackingAlloc`] wraps the system allocator. Binaries opt in with
//! [`crate::install_tracking_alloc!`]; recording stays off until
//! [`set_enabled`] flips one process-wide flag, so the installed-but-idle
//! path costs a single relaxed atomic load per allocator call (pinned by
//! the `components_bench` `prof` group).
//!
//! When profiling is on, every allocation and deallocation is charged to
//! the **innermost open span** of the thread it happens on — the same
//! attribution rule folded-stack flamegraphs use, so per-span numbers are
//! *self* costs and parents are reconstructed by summing children. Spans
//! install a [`MemCell`] into a thread-local slot on open and restore the
//! previous one on close; [`crate::capture`] / [`crate::in_context`] carry
//! the slot across `wym-par` workers exactly like the span path, so worker
//! allocations aggregate under the logical parent deterministically (counts
//! and bytes, like span counts, are identical for any thread count on a
//! fixed workload; only scheduling-dependent scratch varies).
//!
//! Allocations made while **no** span is open — program startup, dataset
//! generation outside tracing, allocator bookkeeping — are charged to a
//! synthetic `(unattributed)` root readable via [`unattributed`].
//!
//! The allocator hook is deliberately restricted: it reads one atomic, one
//! const-initialized thread-local `Cell`, and bumps pre-allocated atomic
//! counters. It never allocates, never takes a lock, and never touches a
//! `RefCell`, so it is re-entrancy- and teardown-safe.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// The synthetic root charged when no span is open. Rendered as
/// `(unattributed)` in exports.
pub const UNATTRIBUTED_NAME: &str = "(unattributed)";

/// Process-wide profiling switch; the only state the disabled path reads.
static PROF_ENABLED: AtomicBool = AtomicBool::new(false);

/// Process-wide live-byte track (allocated minus freed since enable).
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
/// High-water mark of [`LIVE_BYTES`].
static PEAK_LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

/// The `(unattributed)` root cell.
static UNATTRIBUTED: MemCell = MemCell::new();

thread_local! {
    /// The cell charged by this thread's allocations; null = unattributed.
    /// `Cell<*const _>` with const init has no destructor, so the allocator
    /// hook can read it even during thread teardown.
    static CURRENT_CELL: Cell<*const MemCell> = const { Cell::new(std::ptr::null()) };
    /// Owning mirror of [`CURRENT_CELL`] for [`crate::capture`]. The
    /// allocator hook never touches this `RefCell` — only span guards and
    /// context installs do, outside any allocator re-entrancy.
    static CURRENT_ARC: std::cell::RefCell<Option<Arc<MemCell>>> =
        const { std::cell::RefCell::new(None) };
}

/// The charge target currently installed on this thread, for context
/// capture across `wym-par` workers.
pub(crate) fn current_arc() -> Option<Arc<MemCell>> {
    CURRENT_ARC.with(|r| r.borrow().clone())
}

/// Turns memory profiling on or off. Requires [`TrackingAlloc`] to be
/// installed as the global allocator to have any effect.
pub fn set_enabled(on: bool) {
    PROF_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether memory profiling is currently on.
pub fn enabled() -> bool {
    PROF_ENABLED.load(Ordering::Relaxed)
}

/// Live heap bytes (allocated minus freed) since profiling was enabled.
/// Can be negative when memory allocated before enabling is freed after.
pub fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// High-water mark of [`live_bytes`].
pub fn peak_live_bytes() -> i64 {
    PEAK_LIVE_BYTES.load(Ordering::Relaxed)
}

/// Statistics of the `(unattributed)` synthetic root.
pub fn unattributed() -> MemStat {
    UNATTRIBUTED.stat()
}

/// Clears the `(unattributed)` root and the live/peak track (tests and
/// fresh runs).
pub fn reset() {
    UNATTRIBUTED.reset();
    LIVE_BYTES.store(0, Ordering::Relaxed);
    PEAK_LIVE_BYTES.store(0, Ordering::Relaxed);
}

/// Aggregated allocator activity charged to one span path (or the
/// unattributed root).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct MemStat {
    /// Number of allocations (including the alloc half of reallocs).
    pub allocs: u64,
    /// Number of deallocations (including the free half of reallocs).
    pub frees: u64,
    /// Total bytes allocated.
    pub alloc_bytes: u64,
    /// Total bytes freed.
    pub free_bytes: u64,
    /// Peak of (alloc - free) bytes charged here — the span's live-memory
    /// high-water mark. Frees of memory charged elsewhere can drive the
    /// running net negative; the peak only ever records maxima.
    pub peak_net_bytes: i64,
}

impl MemStat {
    /// Net bytes still charged here (allocated minus freed).
    pub fn net_bytes(&self) -> i64 {
        self.alloc_bytes as i64 - self.free_bytes as i64
    }

    /// Folds `other` into `self`: counts and bytes add, peaks take the max
    /// (the same aggregation spans use for timings).
    pub fn merge(&mut self, other: &MemStat) {
        self.allocs += other.allocs;
        self.frees += other.frees;
        self.alloc_bytes += other.alloc_bytes;
        self.free_bytes += other.free_bytes;
        self.peak_net_bytes = self.peak_net_bytes.max(other.peak_net_bytes);
    }

    /// Whether nothing was charged.
    pub fn is_empty(&self) -> bool {
        self.allocs == 0 && self.frees == 0
    }
}

/// A charge target: atomic counters one span entry's allocations land in.
/// Const-constructible so the `(unattributed)` root can be a plain static.
#[derive(Debug, Default)]
pub struct MemCell {
    allocs: AtomicU64,
    frees: AtomicU64,
    alloc_bytes: AtomicU64,
    free_bytes: AtomicU64,
    net_bytes: AtomicI64,
    peak_net_bytes: AtomicI64,
}

impl MemCell {
    /// An empty cell.
    pub const fn new() -> MemCell {
        MemCell {
            allocs: AtomicU64::new(0),
            frees: AtomicU64::new(0),
            alloc_bytes: AtomicU64::new(0),
            free_bytes: AtomicU64::new(0),
            net_bytes: AtomicI64::new(0),
            peak_net_bytes: AtomicI64::new(0),
        }
    }

    fn charge_alloc(&self, bytes: usize) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.alloc_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        let cur = self.net_bytes.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
        self.peak_net_bytes.fetch_max(cur, Ordering::Relaxed);
    }

    fn charge_free(&self, bytes: usize) {
        self.frees.fetch_add(1, Ordering::Relaxed);
        self.free_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.net_bytes.fetch_sub(bytes as i64, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn stat(&self) -> MemStat {
        MemStat {
            allocs: self.allocs.load(Ordering::Relaxed),
            frees: self.frees.load(Ordering::Relaxed),
            alloc_bytes: self.alloc_bytes.load(Ordering::Relaxed),
            free_bytes: self.free_bytes.load(Ordering::Relaxed),
            peak_net_bytes: self.peak_net_bytes.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.allocs.store(0, Ordering::Relaxed);
        self.frees.store(0, Ordering::Relaxed);
        self.alloc_bytes.store(0, Ordering::Relaxed);
        self.free_bytes.store(0, Ordering::Relaxed);
        self.net_bytes.store(0, Ordering::Relaxed);
        self.peak_net_bytes.store(0, Ordering::Relaxed);
    }
}

/// RAII installation of a charge target into this thread's slot; restores
/// the previous target (even on panic — the guard lives in the span guard
/// or `in_context` frame being unwound).
pub(crate) struct CellScope {
    prev_ptr: *const MemCell,
    prev_arc: Option<Arc<MemCell>>,
    /// Keeps the installed cell alive for the raw pointer's lifetime.
    _own: Option<Arc<MemCell>>,
}

impl CellScope {
    /// Installs `cell` (or clears the slot for `None`) until drop.
    pub(crate) fn install(cell: Option<Arc<MemCell>>) -> CellScope {
        let ptr = cell.as_ref().map_or(std::ptr::null(), Arc::as_ptr);
        let prev_ptr = CURRENT_CELL.with(|c| c.replace(ptr));
        let prev_arc = CURRENT_ARC.with(|r| r.replace(cell.clone()));
        CellScope { prev_ptr, prev_arc, _own: cell }
    }
}

impl Drop for CellScope {
    fn drop(&mut self) {
        // Raw pointer first: the hook must never see a pointer whose Arc
        // mirror has already been swapped out.
        CURRENT_CELL.with(|c| c.set(self.prev_ptr));
        let prev = self.prev_arc.take();
        CURRENT_ARC.with(|r| *r.borrow_mut() = prev);
    }
}

fn on_alloc(bytes: usize) {
    let cur = LIVE_BYTES.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    PEAK_LIVE_BYTES.fetch_max(cur, Ordering::Relaxed);
    let ptr = CURRENT_CELL.try_with(Cell::get).unwrap_or(std::ptr::null());
    // SAFETY: a non-null pointer was installed by a live `CellScope` whose
    // `_own` Arc keeps the cell alive until the scope drops and resets it.
    let cell = if ptr.is_null() { &UNATTRIBUTED } else { unsafe { &*ptr } };
    cell.charge_alloc(bytes);
}

fn on_free(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes as i64, Ordering::Relaxed);
    let ptr = CURRENT_CELL.try_with(Cell::get).unwrap_or(std::ptr::null());
    // SAFETY: as in `on_alloc`.
    let cell = if ptr.is_null() { &UNATTRIBUTED } else { unsafe { &*ptr } };
    cell.charge_free(bytes);
}

/// A [`GlobalAlloc`] wrapper over [`System`] that charges allocator
/// activity to the active span when profiling is enabled. Install it with
/// [`crate::install_tracking_alloc!`]; with profiling off it forwards to
/// the system allocator after one relaxed atomic load.
#[derive(Debug, Default, Clone, Copy)]
pub struct TrackingAlloc;

// SAFETY: all four methods delegate the actual memory management to
// `System` unchanged; the accounting reads atomics and a const-initialized
// TLS `Cell` and never allocates, so it cannot recurse or corrupt state.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && PROF_ENABLED.load(Ordering::Relaxed) {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() && PROF_ENABLED.load(Ordering::Relaxed) {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if PROF_ENABLED.load(Ordering::Relaxed) {
            on_free(layout.size());
        }
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() && PROF_ENABLED.load(Ordering::Relaxed) {
            on_free(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Installs [`prof::TrackingAlloc`](TrackingAlloc) as the binary's global
/// allocator. One line at the top of `main.rs`:
///
/// ```ignore
/// wym_obs::install_tracking_alloc!();
/// ```
///
/// Profiling stays off (one relaxed atomic load per allocator call) until
/// [`prof::set_enabled`](set_enabled) is called.
#[macro_export]
macro_rules! install_tracking_alloc {
    () => {
        #[global_allocator]
        static WYM_TRACKING_ALLOC: $crate::prof::TrackingAlloc = $crate::prof::TrackingAlloc;
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_charges_and_merges() {
        let cell = MemCell::new();
        cell.charge_alloc(100);
        cell.charge_alloc(50);
        cell.charge_free(30);
        let s = cell.stat();
        assert_eq!((s.allocs, s.frees, s.alloc_bytes, s.free_bytes), (2, 1, 150, 30));
        assert_eq!(s.net_bytes(), 120);
        assert_eq!(s.peak_net_bytes, 150);

        let mut agg = MemStat::default();
        agg.merge(&s);
        agg.merge(&s);
        assert_eq!(agg.allocs, 4);
        assert_eq!(agg.alloc_bytes, 300);
        assert_eq!(agg.peak_net_bytes, 150, "peaks take the max, not the sum");
    }

    #[test]
    fn peak_ignores_negative_net() {
        let cell = MemCell::new();
        cell.charge_free(1000); // freeing memory charged elsewhere
        cell.charge_alloc(10);
        let s = cell.stat();
        assert_eq!(s.net_bytes(), -990);
        assert!(s.peak_net_bytes <= 0, "peak never records a spurious high");
    }

    #[test]
    fn cell_scope_installs_and_restores() {
        let a = Arc::new(MemCell::new());
        let b = Arc::new(MemCell::new());
        assert!(CURRENT_CELL.with(Cell::get).is_null());
        {
            let _sa = CellScope::install(Some(Arc::clone(&a)));
            assert_eq!(CURRENT_CELL.with(Cell::get), Arc::as_ptr(&a));
            {
                let _sb = CellScope::install(Some(Arc::clone(&b)));
                assert_eq!(CURRENT_CELL.with(Cell::get), Arc::as_ptr(&b));
            }
            assert_eq!(CURRENT_CELL.with(Cell::get), Arc::as_ptr(&a));
        }
        assert!(CURRENT_CELL.with(Cell::get).is_null());
    }

    #[test]
    fn hooks_route_to_current_or_unattributed() {
        // Drive the hook functions directly (the test harness does not
        // install the tracking allocator): with a cell installed the cell
        // is charged; without one the synthetic root is.
        let cell = Arc::new(MemCell::new());
        let before_unattr = unattributed();
        {
            let _s = CellScope::install(Some(Arc::clone(&cell)));
            on_alloc(64);
            on_free(16);
        }
        on_alloc(8);
        let s = cell.stat();
        assert_eq!((s.allocs, s.alloc_bytes, s.frees, s.free_bytes), (1, 64, 1, 16));
        let after_unattr = unattributed();
        assert!(after_unattr.alloc_bytes >= before_unattr.alloc_bytes + 8);
    }
}
