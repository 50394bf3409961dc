//! DeterFox (Cao et al., CCS '17), re-implemented over the simulator.
//!
//! DeterFox applies a deterministic execution model *per browsing context*:
//! within one context, clock readings and asynchronous event order are
//! deterministic functions of the context's own operation history — which
//! kills same-context timing channels (script parsing, image decoding, SVG
//! filtering, …). But DeterFox is a modified browser sharing one event loop
//! across contexts, and at every context switch its per-context timeline
//! resynchronizes against the shared loop. That cross-context coupling is
//! exactly what Loopscan measures, so Loopscan still works under DeterFox
//! (Table I).

use jsk_browser::event::AsyncEventInfo;
use jsk_browser::ids::{EventToken, ThreadId};
use jsk_browser::mediator::{ClockRead, ConfirmDecision, Mediator, MediatorCtx};
use jsk_core::config::{InterpositionCosts, KernelConfig};
use jsk_core::kernel::JsKernel;
use jsk_sim::time::{SimDuration, SimTime};
use std::collections::HashMap;

/// The DeterFox defense.
#[derive(Debug)]
pub struct DeterFox {
    /// The deterministic scheduling machinery (shared with JSKernel —
    /// DeterFox pioneered the model the kernel adopts).
    inner: JsKernel,
    /// Last-seen context per thread, for switch detection.
    last_context: HashMap<ThreadId, u32>,
}

impl Default for DeterFox {
    fn default() -> Self {
        let mut cfg = KernelConfig::timing_only();
        // DeterFox is a source-level browser modification: no extension
        // interposition overhead.
        cfg.costs = InterpositionCosts {
            clock: SimDuration::ZERO,
            timer: SimDuration::ZERO,
            message: SimDuration::ZERO,
            worker: SimDuration::ZERO,
            net: SimDuration::ZERO,
            dom: SimDuration::ZERO,
            sab: SimDuration::ZERO,
        };
        DeterFox {
            inner: JsKernel::new(cfg),
            last_context: HashMap::new(),
        }
    }
}

impl Mediator for DeterFox {
    fn name(&self) -> &str {
        "deterfox"
    }

    fn on_thread_started(&mut self, ctx: &mut MediatorCtx<'_>, thread: ThreadId, is_worker: bool) {
        self.inner.on_thread_started(ctx, thread, is_worker);
    }

    fn read_clock(&mut self, ctx: &mut MediatorCtx<'_>, read: ClockRead) -> SimTime {
        self.inner.read_clock(ctx, read)
    }

    fn on_register(&mut self, ctx: &mut MediatorCtx<'_>, info: &AsyncEventInfo) {
        self.inner.on_register(ctx, info);
    }

    fn on_confirm(
        &mut self,
        ctx: &mut MediatorCtx<'_>,
        info: &AsyncEventInfo,
        raw_fire: SimTime,
    ) -> ConfirmDecision {
        self.inner.on_confirm(ctx, info, raw_fire)
    }

    fn on_cancel(&mut self, ctx: &mut MediatorCtx<'_>, token: EventToken) {
        self.inner.on_cancel(ctx, token);
    }

    fn on_task_dispatched(
        &mut self,
        ctx: &mut MediatorCtx<'_>,
        thread: ThreadId,
        token: Option<EventToken>,
        context: u32,
    ) {
        // The cross-context coupling: on a context switch, the per-context
        // deterministic timeline resyncs to the shared loop's physical time.
        let prev = self.last_context.insert(thread, context);
        if prev.is_some_and(|p| p != context) {
            self.inner.resync_clock(thread, ctx.now);
        }
        self.inner.on_task_dispatched(ctx, thread, token, context);
    }

    fn on_tick(&mut self, ctx: &mut MediatorCtx<'_>, thread: ThreadId) {
        // The serialized dispatcher re-drains through this tick; dropping it
        // would stall every withheld event after a lull.
        self.inner.on_tick(ctx, thread);
    }

    fn on_kernel_message(
        &mut self,
        ctx: &mut MediatorCtx<'_>,
        from: ThreadId,
        to: ThreadId,
        payload: jsk_browser::mediator::KernelMsg,
    ) {
        self.inner.on_kernel_message(ctx, from, to, payload);
    }

    fn interposition_cost(&self, class: jsk_browser::mediator::InterposeClass) -> SimDuration {
        self.inner.interposition_cost(class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsk_browser::mediator::ClockKind;
    use jsk_sim::rng::SimRng;

    fn read(df: &mut DeterFox, rng: &mut SimRng, raw_ms: u64) -> SimTime {
        let mut ctx = MediatorCtx::new(SimTime::from_millis(raw_ms), rng);
        df.read_clock(
            &mut ctx,
            ClockRead {
                thread: ThreadId::new(0),
                kind: ClockKind::PerformanceNow,
                raw: SimTime::from_millis(raw_ms),
                native_precision: SimDuration::from_micros(5),
            },
        )
    }

    #[test]
    fn same_context_clock_is_deterministic() {
        let mut df = DeterFox::default();
        let mut rng = SimRng::new(0);
        // Tasks of one context only: clock ignores physical time.
        for raw in [10u64, 500, 900] {
            let mut ctx = MediatorCtx::new(SimTime::from_millis(raw), &mut rng);
            df.on_task_dispatched(&mut ctx, ThreadId::new(0), None, 0);
        }
        let t = read(&mut df, &mut rng, 950);
        assert!(t < SimTime::from_millis(1), "clock stayed virtual: {t}");
    }

    #[test]
    fn context_switch_resyncs_to_physical_time() {
        let mut df = DeterFox::default();
        let mut rng = SimRng::new(0);
        {
            let mut ctx = MediatorCtx::new(SimTime::from_millis(10), &mut rng);
            df.on_task_dispatched(&mut ctx, ThreadId::new(0), None, 0);
        }
        {
            // A cross-context (victim-page) task runs for a long while…
            let mut ctx = MediatorCtx::new(SimTime::from_millis(60), &mut rng);
            df.on_task_dispatched(&mut ctx, ThreadId::new(0), None, 1);
        }
        {
            // …and when the attacker context runs again, its clock jumped.
            let mut ctx = MediatorCtx::new(SimTime::from_millis(110), &mut rng);
            df.on_task_dispatched(&mut ctx, ThreadId::new(0), None, 0);
        }
        let t = read(&mut df, &mut rng, 115);
        assert!(
            t >= SimTime::from_millis(110),
            "cross-context switch must import physical time: {t}"
        );
    }
}
