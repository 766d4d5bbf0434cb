//! The shared scaffolding of this crate's background controllers
//! ([`Warmup`](crate::Warmup), [`Gossiper`](crate::Gossiper),
//! [`FleetObserver`](crate::FleetObserver)): one stoppable thread running
//! a sweep function on a self-chosen cadence.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A background thread driving a sweep closure in a stop-flag loop.
///
/// The closure returns the pause until its next run, or `None` to
/// retire (e.g. after a contained panic). The pause is interruptible:
/// [`BackgroundLoop::stop`] (and drop) unparks the thread so shutdown
/// never waits a full interval out.
#[derive(Debug)]
pub(crate) struct BackgroundLoop {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl BackgroundLoop {
    pub(crate) fn spawn(mut step: impl FnMut() -> Option<Duration> + Send + 'static) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    match step() {
                        Some(pause) => std::thread::park_timeout(pause),
                        None => break,
                    }
                }
            })
        };
        BackgroundLoop {
            stop,
            thread: Some(thread),
        }
    }

    pub(crate) fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            thread.thread().unpark();
            // Never panic out of halt(): it also runs from Drop, where a
            // second panic would abort the process and mask the original
            // error.
            let _ = thread.join();
        }
    }
}

impl Drop for BackgroundLoop {
    fn drop(&mut self) {
        self.halt();
    }
}
