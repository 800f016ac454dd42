//! In-flight request coalescing.
//!
//! Concurrent requests with the same synthesis key should cost one solve,
//! not N. The [`InflightTable`] maps a key to its in-flight *flight*: the
//! first arrival becomes the **leader** and runs the solve; later arrivals
//! become **followers** and block on the flight's condvar until the leader
//! publishes a result.
//!
//! The leader token is panic-safe: if it is dropped without an explicit
//! [`InflightTable::complete`] (solver panic, early return), the flight is
//! retired with an error so followers never hang and the key is free for
//! the next arrival.
//!
//! Note the table deliberately does *not* probe the cache — the service
//! layer probes before joining and (crucially) **re-probes after winning
//! leadership**, which closes the race where a previous leader stored its
//! result and retired its flight between this request's probe and its join.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use ttw_core::schedule::SystemSchedule;

/// What a flight resolves to: a shared schedule or a failure message.
pub type FlightResult = Result<Arc<SystemSchedule>, String>;

#[derive(Debug)]
struct Flight {
    outcome: Mutex<Option<FlightResult>>,
    done: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            outcome: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    fn publish(&self, result: FlightResult) {
        let mut outcome = self.outcome.lock().unwrap_or_else(|e| e.into_inner());
        // First publication wins; the panic-guard publication of a dropped
        // leader token must not overwrite a real result.
        if outcome.is_none() {
            *outcome = Some(result);
            self.done.notify_all();
        }
    }

    fn wait(&self) -> FlightResult {
        let mut outcome = self.outcome.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = outcome.as_ref() {
                return result.clone();
            }
            outcome = self.done.wait(outcome).unwrap_or_else(|e| e.into_inner());
        }
    }
}

type FlightMap = Arc<Mutex<HashMap<String, Arc<Flight>>>>;

/// The role a request was assigned when it joined the table.
#[derive(Debug)]
pub enum Role {
    /// First arrival for the key: must solve and then
    /// [`InflightTable::complete`] the flight.
    Leader(LeaderToken),
    /// A solve for the key is already in flight: wait for its result.
    Follower(FollowerToken),
}

/// Proof of leadership for one key. Dropping it without completing the
/// flight retires it with an error to any followers (panic safety).
#[derive(Debug)]
pub struct LeaderToken {
    key: String,
    flight: Arc<Flight>,
    flights: FlightMap,
    completed: bool,
}

impl LeaderToken {
    fn retire(&mut self, result: FlightResult) {
        if self.completed {
            return;
        }
        self.completed = true;
        {
            let mut flights = self.flights.lock().unwrap_or_else(|e| e.into_inner());
            // Guard against removing a successor flight that reused the key.
            if flights
                .get(&self.key)
                .is_some_and(|f| Arc::ptr_eq(f, &self.flight))
            {
                flights.remove(&self.key);
            }
        }
        self.flight.publish(result);
    }
}

impl Drop for LeaderToken {
    fn drop(&mut self) {
        self.retire(Err("synthesis worker abandoned the request".into()));
    }
}

/// Handle a follower blocks on.
#[derive(Debug)]
pub struct FollowerToken {
    flight: Arc<Flight>,
}

impl FollowerToken {
    /// Blocks until the leader publishes, then returns the shared result.
    pub fn wait(self) -> FlightResult {
        self.flight.wait()
    }
}

/// The key → in-flight solve map.
#[derive(Debug, Default)]
pub struct InflightTable {
    flights: FlightMap,
}

impl InflightTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<String, Arc<Flight>>> {
        self.flights.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Joins the flight for `key`, creating it if absent.
    pub fn join(&self, key: &str) -> Role {
        let mut flights = self.lock();
        if let Some(flight) = flights.get(key) {
            return Role::Follower(FollowerToken {
                flight: Arc::clone(flight),
            });
        }
        let flight = Arc::new(Flight::new());
        flights.insert(key.to_owned(), Arc::clone(&flight));
        Role::Leader(LeaderToken {
            key: key.to_owned(),
            flight,
            flights: Arc::clone(&self.flights),
            completed: false,
        })
    }

    /// Publishes the leader's result and retires the flight.
    ///
    /// The flight is removed from the table *before* followers are woken, so
    /// a request arriving after this call starts a fresh flight — and the
    /// service's post-join cache re-probe turns that fresh leadership into a
    /// cache hit instead of a duplicate solve.
    pub fn complete(&self, mut token: LeaderToken, result: FlightResult) {
        token.retire(result);
    }

    /// Number of flights currently in the air (for tests and stats).
    pub fn in_flight(&self) -> usize {
        self.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn dummy_schedule() -> Arc<SystemSchedule> {
        use ttw_core::config::SchedulerConfig;
        use ttw_core::time::millis;
        let (sys, graph, _, _) = ttw_core::fixtures::two_mode_graph();
        Arc::new(
            ttw_core::synthesis::synthesize_system(
                &sys,
                &graph,
                &SchedulerConfig::new(millis(10), 5),
                &ttw_core::synthesis::IlpSynthesizer,
            )
            .expect("feasible"),
        )
    }

    #[test]
    fn one_leader_many_followers_one_result() {
        let table = Arc::new(InflightTable::new());
        let schedule = dummy_schedule();
        let leaders = AtomicUsize::new(0);
        let followers = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| match table.join("key") {
                    Role::Leader(token) => {
                        leaders.fetch_add(1, Ordering::SeqCst);
                        // Give followers time to pile up.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        table.complete(token, Ok(Arc::clone(&schedule)));
                    }
                    Role::Follower(token) => {
                        assert!(token.wait().is_ok());
                        followers.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(leaders.load(Ordering::SeqCst), 1);
        assert_eq!(followers.load(Ordering::SeqCst), 7);
        assert_eq!(table.in_flight(), 0);
    }

    #[test]
    fn distinct_keys_fly_independently() {
        let table = InflightTable::new();
        let Role::Leader(a) = table.join("a") else {
            panic!("first join must lead")
        };
        let Role::Leader(b) = table.join("b") else {
            panic!("distinct key must lead")
        };
        assert_eq!(table.in_flight(), 2);
        table.complete(a, Err("nope".into()));
        table.complete(b, Err("nope".into()));
        assert_eq!(table.in_flight(), 0);
    }

    #[test]
    fn completed_flight_makes_the_next_join_a_leader() {
        let table = InflightTable::new();
        let Role::Leader(token) = table.join("key") else {
            panic!("first join must lead")
        };
        table.complete(token, Err("failed".into()));
        assert!(matches!(table.join("key"), Role::Leader(_)));
    }

    #[test]
    fn dropped_leader_unblocks_followers_and_frees_the_key() {
        let table = Arc::new(InflightTable::new());
        let Role::Leader(token) = table.join("key") else {
            panic!("first join must lead")
        };
        let Role::Follower(follower) = table.join("key") else {
            panic!("second join must follow")
        };
        let waiter = std::thread::spawn(move || follower.wait());
        drop(token); // leader dies without completing
        let result = waiter.join().expect("waiter thread");
        assert!(result.is_err());
        // The abandoned flight was retired: the key is free again.
        assert_eq!(table.in_flight(), 0);
        assert!(matches!(table.join("key"), Role::Leader(_)));
    }

    #[test]
    fn dropping_a_stale_leader_does_not_kill_the_successor_flight() {
        let table = InflightTable::new();
        let Role::Leader(first) = table.join("key") else {
            panic!("first join must lead")
        };
        table.complete(first, Err("round one".into()));
        let Role::Leader(second) = table.join("key") else {
            panic!("key must be free after completion")
        };
        // `second`'s flight must survive unrelated token drops.
        assert_eq!(table.in_flight(), 1);
        table.complete(second, Err("round two".into()));
        assert_eq!(table.in_flight(), 0);
    }
}
