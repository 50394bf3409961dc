//! The zero-alloc steady-state gate (DESIGN.md §15).
//!
//! A counting global allocator wraps `System`; the test warms a live
//! [`JsKernel`] through enough full register → confirm → dispatch →
//! post-task-tick cycles that every structure on the path has reached its
//! steady footprint (equeue ring, token table, stream ladders, recycled
//! mediator-op buffers), then asserts the allocator counter does not move
//! across a long run of further events: **zero heap allocations per
//! steady-state kernel event**.
//!
//! The assertion holds in every build profile: CI runs it with
//! `--release` as the `alloc-gate` step of the bench-smoke job, and every
//! `cargo test` runs it in debug.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use jsk_browser::event::{AsyncEventInfo, AsyncKind};
use jsk_browser::ids::{EventToken, ThreadId};
use jsk_browser::mediator::{ConfirmDecision, Mediator, MediatorCtx, MediatorOp};
use jsk_core::kernel::JsKernel;
use jsk_sim::rng::SimRng;
use jsk_sim::time::{SimDuration, SimTime};

/// Counts every allocation request (alloc, zeroed, and growth reallocs);
/// frees are uncounted — the gate is on allocations, not churn.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// One full kernel event lifecycle through the mediator hooks, with
/// recycled op buffers — the same loop the `dispatch-steady` bench phase
/// times.
fn drive(k: &mut JsKernel, rng: &mut SimRng, buffers: &mut (Vec<MediatorOp>, Vec<u32>), i: u64) {
    let main = ThreadId::new(0);
    let now = SimTime::from_millis(25 * (i + 1));
    let kind = match i % 4 {
        0 => AsyncKind::Message {
            from: ThreadId::new(1),
        },
        1 => AsyncKind::Timeout {
            delay: SimDuration::from_millis(1),
            nesting: 0,
        },
        2 => AsyncKind::Raf,
        _ => AsyncKind::Media,
    };
    let info = AsyncEventInfo {
        token: EventToken::new(i + 1),
        thread: main,
        kind,
        registered_at: now,
        doc_generation: 0,
        context: 0,
    };
    let (ops, marks) = std::mem::take(buffers);
    let mut ctx = MediatorCtx::recycled(now, rng, ops, marks);
    k.on_register(&mut ctx, &info);
    let d = k.on_confirm(&mut ctx, &info, now);
    assert!(
        matches!(d, ConfirmDecision::InvokeAt(_)),
        "steady-state confirm deferred at event {i}: {d:?}"
    );
    k.on_task_dispatched(&mut ctx, main, Some(info.token), 0);
    k.on_tick(&mut ctx, main);
    let (mut ops, mut marks) = ctx.into_parts();
    ops.clear();
    marks.clear();
    *buffers = (ops, marks);
}

#[test]
fn steady_state_events_allocate_nothing() {
    const WARMUP: u64 = 4_096;
    const MEASURED: u64 = 50_000;

    let mut k = JsKernel::default();
    let mut rng = SimRng::new(0x57EAD);
    let mut buffers = (Vec::new(), Vec::new());

    for i in 0..WARMUP {
        drive(&mut k, &mut rng, &mut buffers, i);
    }

    let before = allocations();
    for i in WARMUP..WARMUP + MEASURED {
        drive(&mut k, &mut rng, &mut buffers, i);
    }
    let delta = allocations() - before;

    assert_eq!(
        delta, 0,
        "steady-state dispatch allocated {delta} times over {MEASURED} events \
         (expected zero after warmup)"
    );
}
