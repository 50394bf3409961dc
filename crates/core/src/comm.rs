//! Kernel-space communication overlay (paper §III-E2).
//!
//! "Because there only exists one channel, i.e., the postMessage and
//! onmessage one, between two threads, we create an overlay upon the
//! channel. Specifically, JSKERNEL wraps the original object under a new
//! object and uses a special field, i.e., a type field, in the object to
//! indicate whether it is a kernel- or user-space communication."
//!
//! In the simulator that type field is the message type itself: a
//! [`KernelMsg`] travels as its own typed payload through
//! `MediatorCtx::kernel_send` and arrives at `Mediator::on_kernel_message`
//! unchanged, so kernel traffic never shares a channel with user
//! `postMessage` traffic and nothing has to tell the two apart on
//! arrival. Listing 4's `pendingChildFetch` / `confirmFetch` /
//! `cleanWorker` protocol rides this overlay, as do the clock-exchange and
//! thread-source messages of §III-E2. The enum lives at the browser's
//! mediator seam (`jsk_browser::mediator`), which carries it; this module
//! re-exports it under its paper name.

pub use jsk_browser::mediator::KernelMsg;

#[cfg(test)]
mod tests {
    use super::*;
    use jsk_browser::browser::{Browser, BrowserConfig};
    use jsk_browser::ids::{RequestId, ThreadId, WorkerId, MAIN_THREAD};
    use jsk_browser::mediator::{Mediator, MediatorCtx};
    use jsk_browser::profile::BrowserProfile;
    use jsk_sim::time::SimTime;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn every_variant() -> [KernelMsg; 6] {
        [
            KernelMsg::PendingChildFetch {
                req: RequestId::new(1),
                worker: WorkerId::new(2),
            },
            KernelMsg::ConfirmFetch {
                req: RequestId::new(1),
            },
            KernelMsg::FetchSettled {
                req: RequestId::new(1),
                worker: WorkerId::new(2),
            },
            KernelMsg::CleanWorker {
                worker: WorkerId::new(2),
            },
            KernelMsg::ClockSync { kclock_ns: 123_456 },
            KernelMsg::ThreadSource {
                worker: WorkerId::new(2),
                src: jsk_browser::trace::Interner::new().intern("worker.js"),
            },
        ]
    }

    /// Sends every variant once the main thread starts and records what
    /// arrives.
    struct Echo(Rc<RefCell<Vec<(ThreadId, ThreadId, KernelMsg)>>>);

    impl Mediator for Echo {
        fn name(&self) -> &str {
            "echo"
        }

        fn on_thread_started(&mut self, ctx: &mut MediatorCtx<'_>, thread: ThreadId, _: bool) {
            for (i, msg) in every_variant().into_iter().enumerate() {
                let at = ctx.now + jsk_sim::time::SimDuration::from_micros(i as u64);
                ctx.kernel_send(thread, ThreadId::new(7), msg, at);
            }
        }

        fn on_kernel_message(
            &mut self,
            _: &mut MediatorCtx<'_>,
            from: ThreadId,
            to: ThreadId,
            payload: KernelMsg,
        ) {
            self.0.borrow_mut().push((from, to, payload));
        }
    }

    #[test]
    fn every_variant_arrives_unchanged_through_kernel_send() {
        let arrived = Rc::new(RefCell::new(Vec::new()));
        let mut browser = Browser::new(
            BrowserConfig::new(BrowserProfile::chrome(), 1),
            Box::new(Echo(arrived.clone())),
        );
        browser.run_until(SimTime::from_millis(1));
        let expected: Vec<_> = every_variant()
            .into_iter()
            .map(|msg| (MAIN_THREAD, ThreadId::new(7), msg))
            .collect();
        assert_eq!(*arrived.borrow(), expected);
    }

    #[test]
    fn only_clock_sync_is_hb_free() {
        assert!(!KernelMsg::ClockSync { kclock_ns: 1 }.induces_hb());
        assert!(KernelMsg::ConfirmFetch {
            req: RequestId::new(1)
        }
        .induces_hb());
        assert!(KernelMsg::CleanWorker {
            worker: WorkerId::new(0)
        }
        .induces_hb());
    }
}
