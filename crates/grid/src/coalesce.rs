//! In-flight request coalescing ("single-flight") for serving front-ends.
//!
//! When several concurrent requests name the same cell — same
//! content-address key — only the first should execute it; the rest wait
//! on that execution and share its result. The [`ResultCache`]
//! (`crate::cache`) already deduplicates *completed* work across time;
//! this map deduplicates *in-flight* work across concurrent requests, the
//! classic thundering-herd guard in front of an expensive compute.
//!
//! ## Protocol
//!
//! [`CoalesceMap::join`] with a cell key returns either a [`Leader`] (the
//! key had no flight: the caller must compute and then
//! [`Leader::complete`] with the result) or a [`Waiter`] (a flight
//! exists: block on [`Waiter::wait`] with a per-waiter deadline). Every
//! waiter carries its **own** deadline — a serving deployment propagates
//! each request's `timeout_ms` here, so one slow client never extends
//! another's wait.
//!
//! ## Panic and abandonment safety
//!
//! If the leader unwinds without completing (a worker panic, an early
//! return), its `Drop` marks the flight [`WaitOutcome::Abandoned`] and
//! removes it from the map, so waiters wake with a typed outcome instead
//! of blocking until their deadline, and the next request for the key
//! becomes a fresh leader. A flight is removed from the map in both exits
//! (complete and abandon); waiters hold their own `Arc` to the flight, so
//! a late waiter can still read a published result.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The state of one in-flight computation.
#[derive(Debug)]
enum FlightState<R> {
    /// The leader is still computing.
    Pending,
    /// The leader published a result.
    Done(R),
    /// The leader unwound without completing.
    Abandoned,
}

/// One in-flight computation: its state plus the condvar waiters park on.
#[derive(Debug)]
struct Flight<R> {
    state: Mutex<FlightState<R>>,
    cv: Condvar,
}

impl<R: Clone> Flight<R> {
    fn new() -> Self {
        Flight {
            state: Mutex::new(FlightState::Pending),
            cv: Condvar::new(),
        }
    }

    fn publish(&self, state: FlightState<R>) {
        *self.state.lock().expect("flight state poisoned") = state;
        self.cv.notify_all();
    }
}

/// How a [`Waiter::wait`] resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaitOutcome<R> {
    /// The leader published this result.
    Done(R),
    /// The leader unwound without completing; retry with a fresh
    /// [`CoalesceMap::join`] (the caller will now become leader).
    Abandoned,
    /// This waiter's own deadline expired first. The flight may still
    /// complete — and land in the result cache — after this.
    TimedOut,
}

/// What [`CoalesceMap::join`] hands the caller.
#[derive(Debug)]
pub enum Join<'a, R: Clone> {
    /// No flight existed for the key: compute, then [`Leader::complete`].
    Leader(Leader<'a, R>),
    /// A flight exists: wait on it.
    Waiter(Waiter<R>),
}

/// The single computing party for a key. Dropping a leader without
/// calling [`Leader::complete`] abandons the flight (waking all waiters
/// with [`WaitOutcome::Abandoned`]) — unwind-safe by construction.
#[derive(Debug)]
pub struct Leader<'a, R: Clone> {
    map: &'a CoalesceMap<R>,
    key: u64,
    flight: Arc<Flight<R>>,
    completed: bool,
}

impl<R: Clone> Leader<'_, R> {
    /// Publishes `result` to every waiter and retires the flight.
    pub fn complete(mut self, result: R) {
        self.completed = true;
        self.map.remove(self.key);
        self.flight.publish(FlightState::Done(result));
    }
}

impl<R: Clone> Drop for Leader<'_, R> {
    fn drop(&mut self) {
        if !self.completed {
            self.map.remove(self.key);
            self.flight.publish(FlightState::Abandoned);
        }
    }
}

/// A party waiting on another request's in-flight computation.
#[derive(Debug)]
pub struct Waiter<R> {
    flight: Arc<Flight<R>>,
}

impl<R: Clone> Waiter<R> {
    /// Blocks until the flight resolves or `timeout` elapses, whichever
    /// comes first. The timeout is this waiter's alone.
    pub fn wait(&self, timeout: Duration) -> WaitOutcome<R> {
        let deadline = Instant::now() + timeout;
        let mut state = self.flight.state.lock().expect("flight state poisoned");
        loop {
            match &*state {
                FlightState::Done(r) => return WaitOutcome::Done(r.clone()),
                FlightState::Abandoned => return WaitOutcome::Abandoned,
                FlightState::Pending => {}
            }
            let now = Instant::now();
            let Some(remaining) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                return WaitOutcome::TimedOut;
            };
            let (next, timed_out) = self
                .flight
                .cv
                .wait_timeout(state, remaining)
                .expect("flight state poisoned");
            state = next;
            if timed_out.timed_out() {
                // Re-check the state once: a publish can race the wakeup.
                match &*state {
                    FlightState::Done(r) => return WaitOutcome::Done(r.clone()),
                    FlightState::Abandoned => return WaitOutcome::Abandoned,
                    FlightState::Pending => return WaitOutcome::TimedOut,
                }
            }
        }
    }
}

/// The in-flight computation map: one [`Flight`] per active key.
#[derive(Debug, Default)]
pub struct CoalesceMap<R> {
    flights: Mutex<HashMap<u64, Arc<Flight<R>>>>,
}

impl<R: Clone> CoalesceMap<R> {
    /// An empty map.
    pub fn new() -> Self {
        CoalesceMap {
            flights: Mutex::new(HashMap::new()),
        }
    }

    /// Joins the flight for `key`: the first caller becomes the
    /// [`Leader`], everyone else a [`Waiter`] on that same flight.
    pub fn join(&self, key: u64) -> Join<'_, R> {
        let mut flights = self.flights.lock().expect("coalesce map poisoned");
        if let Some(flight) = flights.get(&key) {
            return Join::Waiter(Waiter {
                flight: Arc::clone(flight),
            });
        }
        let flight = Arc::new(Flight::new());
        flights.insert(key, Arc::clone(&flight));
        Join::Leader(Leader {
            map: self,
            key,
            flight,
            completed: false,
        })
    }

    /// Keys with an active flight right now.
    pub fn in_flight(&self) -> usize {
        self.flights.lock().expect("coalesce map poisoned").len()
    }

    fn remove(&self, key: u64) {
        self.flights
            .lock()
            .expect("coalesce map poisoned")
            .remove(&key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn first_join_leads_subsequent_joins_wait() {
        let map: CoalesceMap<u64> = CoalesceMap::new();
        let leader = match map.join(7) {
            Join::Leader(l) => l,
            Join::Waiter(_) => panic!("first join must lead"),
        };
        assert_eq!(map.in_flight(), 1);
        let waiter = match map.join(7) {
            Join::Waiter(w) => w,
            Join::Leader(_) => panic!("second join must wait"),
        };
        // A different key gets its own leader (dropped right away, which
        // abandons and retires that flight).
        assert!(matches!(map.join(8), Join::Leader(_)));
        leader.complete(49);
        assert_eq!(
            waiter.wait(Duration::from_secs(1)),
            WaitOutcome::Done(49),
            "the published result reaches a waiter even after the flight retired"
        );
        assert_eq!(map.in_flight(), 0, "both flights retired");
    }

    #[test]
    fn a_storm_of_duplicate_joins_executes_exactly_once() {
        let map: CoalesceMap<u64> = CoalesceMap::new();
        let executions = AtomicUsize::new(0);
        let coalesced = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| match map.join(42) {
                    Join::Leader(leader) => {
                        // Linger so the storm really overlaps the flight.
                        std::thread::sleep(Duration::from_millis(30));
                        executions.fetch_add(1, Ordering::SeqCst);
                        leader.complete(4242);
                    }
                    Join::Waiter(waiter) => {
                        coalesced.fetch_add(1, Ordering::SeqCst);
                        assert_eq!(waiter.wait(Duration::from_secs(5)), WaitOutcome::Done(4242));
                    }
                });
            }
        });
        assert_eq!(executions.load(Ordering::SeqCst), 1, "one execution");
        assert_eq!(coalesced.load(Ordering::SeqCst), 7, "seven coalesced");
        assert_eq!(map.in_flight(), 0, "flight retired");
    }

    #[test]
    fn each_waiter_times_out_on_its_own_deadline() {
        let map: CoalesceMap<u64> = CoalesceMap::new();
        let leader = match map.join(1) {
            Join::Leader(l) => l,
            Join::Waiter(_) => unreachable!(),
        };
        let impatient = match map.join(1) {
            Join::Waiter(w) => w,
            Join::Leader(_) => unreachable!(),
        };
        let patient = match map.join(1) {
            Join::Waiter(w) => w,
            Join::Leader(_) => unreachable!(),
        };
        let start = Instant::now();
        assert_eq!(
            impatient.wait(Duration::from_millis(10)),
            WaitOutcome::TimedOut
        );
        assert!(start.elapsed() < Duration::from_secs(2), "bounded wait");
        // The flight is unaffected by one waiter's expiry: a later
        // completion still reaches the patient waiter.
        leader.complete(11);
        assert_eq!(patient.wait(Duration::from_secs(1)), WaitOutcome::Done(11));
        // And the timed-out party can still read the published result by
        // re-waiting on its own flight handle.
        assert_eq!(
            impatient.wait(Duration::ZERO),
            WaitOutcome::Done(11),
            "discarded-but-published: the result exists even for the expired waiter"
        );
    }

    #[test]
    fn a_dropped_leader_abandons_the_flight_and_frees_the_key() {
        let map: CoalesceMap<u64> = CoalesceMap::new();
        let waiter = {
            let _leader = match map.join(9) {
                Join::Leader(l) => l,
                Join::Waiter(_) => unreachable!(),
            };
            match map.join(9) {
                Join::Waiter(w) => w,
                Join::Leader(_) => unreachable!(),
            }
            // `_leader` drops here without completing — a panic unwind in
            // miniature.
        };
        assert_eq!(waiter.wait(Duration::from_secs(1)), WaitOutcome::Abandoned);
        assert_eq!(map.in_flight(), 0);
        // The key is free: the next join leads and can complete normally.
        match map.join(9) {
            Join::Leader(leader) => leader.complete(81),
            Join::Waiter(_) => panic!("an abandoned key must accept a new leader"),
        };
    }

    #[test]
    fn panicking_leader_thread_wakes_waiters_as_abandoned() {
        let map: CoalesceMap<u64> = CoalesceMap::new();
        std::thread::scope(|s| {
            let leader = match map.join(3) {
                Join::Leader(l) => l,
                Join::Waiter(_) => unreachable!(),
            };
            let waiter = match map.join(3) {
                Join::Waiter(w) => w,
                Join::Leader(_) => unreachable!(),
            };
            let h = s.spawn(move || {
                let _hold = leader;
                panic!("leader dies mid-flight");
            });
            assert_eq!(waiter.wait(Duration::from_secs(5)), WaitOutcome::Abandoned);
            assert!(h.join().is_err(), "the leader thread did panic");
        });
        assert_eq!(map.in_flight(), 0);
    }
}
