//! The stall rule shared by the wall-clock watchdogs (this crate's and
//! `munin-tcp`'s coordinator): real-time replacements for the simulator's
//! quiescence-based deadlock detection.
//!
//! A run is stalled when, for longer than the stall timeout, its activity
//! fingerprint has not changed, every live application thread is blocked
//! inside a DSM operation, and no timer is pending anywhere. What a fabric
//! does about a stall (dump, poison, notify peers) stays with the fabric.

use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Watchdog sampling period.
pub const WATCHDOG_POLL: Duration = Duration::from_millis(50);

/// Applies the stall rule to a stream of watchdog samples.
pub struct StallDetector {
    timeout: Duration,
    fingerprint: Vec<u64>,
    stable_since: Instant,
}

impl StallDetector {
    pub fn new(timeout: Duration) -> Self {
        StallDetector { timeout, fingerprint: Vec::new(), stable_since: Instant::now() }
    }

    pub fn timeout(&self) -> Duration {
        self.timeout
    }

    /// Park for one poll interval on `stop`. Returns `false` once the run is
    /// over (a message or the sender dropped): teardown wakes the watchdog
    /// at once instead of a poll interval later.
    pub fn poll(&self, stop: &Receiver<()>) -> bool {
        matches!(stop.recv_timeout(WATCHDOG_POLL), Err(RecvTimeoutError::Timeout))
    }

    /// Feed one sample taken at `now`: `activity` fingerprints every
    /// node's progress counters. Returns `true` once the stall state has
    /// held unchanged for the whole timeout; any change, a pending
    /// timer, a running thread or no live thread at all restarts the clock.
    pub fn stalled(
        &mut self,
        now: Instant,
        activity: &[u64],
        live: usize,
        blocked: usize,
        timers_pending: u64,
    ) -> bool {
        if activity != self.fingerprint.as_slice() {
            self.fingerprint.clear();
            self.fingerprint.extend_from_slice(activity);
            self.stable_since = now;
            return false;
        }
        if live == 0 || blocked < live || timers_pending > 0 {
            self.stable_since = now;
            return false;
        }
        now.saturating_duration_since(self.stable_since) >= self.timeout
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIMEOUT: Duration = Duration::from_millis(100);

    /// A detector whose fingerprint `[7]` is already established at `t0`,
    /// with the clock running from there.
    fn primed(t0: Instant) -> StallDetector {
        let mut d = StallDetector::new(TIMEOUT);
        assert!(!d.stalled(t0, &[7], 2, 2, 0), "the first sample only records the fingerprint");
        d
    }

    #[test]
    fn unchanged_stall_state_fires_only_past_the_timeout() {
        let t0 = Instant::now();
        let mut d = primed(t0);
        assert!(!d.stalled(t0 + TIMEOUT / 2, &[7], 2, 2, 0));
        assert!(!d.stalled(t0 + TIMEOUT - Duration::from_millis(1), &[7], 2, 2, 0));
        assert!(d.stalled(t0 + TIMEOUT, &[7], 2, 2, 0));
    }

    #[test]
    fn each_sign_of_progress_resets_the_clock() {
        // (activity, live, blocked, timers) samples that must each restart
        // the clock, taken just before the timeout would have fired.
        let resets: [(&[u64], usize, usize, u64); 4] = [
            (&[8], 2, 2, 0), // activity changed
            (&[7], 2, 2, 1), // a timer is pending
            (&[7], 2, 1, 0), // a live thread is running
            (&[7], 0, 0, 0), // nothing is live
        ];
        let just_under = TIMEOUT - Duration::from_millis(1);
        for (activity, live, blocked, timers) in resets {
            let t0 = Instant::now();
            let mut d = primed(t0);
            let t1 = t0 + just_under;
            assert!(!d.stalled(t1, activity, live, blocked, timers));
            // Stalled again from t1 on: the timeout counts from t1, not t0.
            assert!(
                !d.stalled(t1 + just_under, activity, 2, 2, 0),
                "{activity:?}/{live}/{blocked}/{timers} did not reset the clock"
            );
            assert!(d.stalled(t1 + TIMEOUT, activity, 2, 2, 0));
        }
    }

    #[test]
    fn poll_ends_when_the_stop_channel_fires() {
        let d = StallDetector::new(TIMEOUT);
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        assert!(d.poll(&rx), "no stop yet: one poll interval elapses");
        tx.send(()).unwrap();
        assert!(!d.poll(&rx));
        drop(tx);
        assert!(!d.poll(&rx));
    }
}
