//! Property tests for binary network semaphores: mutual exclusion and
//! idempotency under arbitrary schedules and retransmission.

// Case-count-heavy property sweeps are a poor fit for Miri's
// interpreter; the UB surface they exercise is pure safe Rust anyway.
#![cfg(not(miri))]

use ampnet_cache::atomics::execute;
use ampnet_cache::{
    LockState, NetworkCache, SemaphoreAction, SemaphoreAddr, SemaphoreClient,
};
use ampnet_packet::build;
use ampnet_sim::SimTime;
use proptest::prelude::*;

fn addr() -> SemaphoreAddr {
    SemaphoreAddr {
        home: 0,
        region: 1,
        offset: 0,
    }
}

fn home() -> NetworkCache {
    let mut c = NetworkCache::new(0);
    c.define_region(1, 64).unwrap();
    c
}

/// Drive one binary client's pending action, with `dup` controlling
/// whether each request is executed twice at the home node (modelling
/// a retransmission after a ring heal). A `WaitUntil` (contention
/// backoff) returns and leaves the client in `Backoff` — the schedule
/// polls it later, after the holder had a chance to release.
fn drive_binary(
    client: &mut SemaphoreClient,
    home: &mut NetworkCache,
    now: SimTime,
    mut action: SemaphoreAction,
    dup: bool,
) -> SimTime {
    loop {
        match action {
            SemaphoreAction::Send(pkt) => {
                let req = build::parse_atomic_request(&pkt).unwrap();
                if dup {
                    // The duplicate lands first; the client consumes
                    // the response of the second execution.
                    let _ = execute(home, pkt.ctrl.src, req).unwrap();
                }
                let effect = execute(home, pkt.ctrl.src, req).unwrap();
                action = client.on_response(now, &effect.response);
            }
            SemaphoreAction::WaitUntil(t) => return t,
            SemaphoreAction::None => return now,
        }
    }
}

proptest! {
    /// Binary semaphore: under any acquire/release schedule, with or
    /// without duplicated (retransmitted) requests, at most one client
    /// holds the lock, and duplicates never corrupt it.
    #[test]
    fn binary_mutual_exclusion_with_retransmission(
        schedule in proptest::collection::vec((0usize..5, any::<bool>()), 1..60),
    ) {
        let mut home = home();
        let mut clients: Vec<SemaphoreClient> = (1..=5)
            .map(|i| SemaphoreClient::new(i, addr(), Default::default()))
            .collect();
        let mut now = SimTime(0);
        for (who, dup) in schedule {
            let state = clients[who].state();
            match state {
                LockState::Idle => {
                    let a = clients[who].acquire(now);
                    now = drive_binary(&mut clients[who], &mut home, now, a, dup);
                }
                LockState::Held => {
                    let a = clients[who].release();
                    now = drive_binary(&mut clients[who], &mut home, now, a, dup);
                }
                LockState::Backoff(t) => {
                    let t = t.max(now);
                    let a = clients[who].poll(t);
                    now = drive_binary(&mut clients[who], &mut home, t, a, dup);
                }
                _ => {}
            }
            let holders = clients.iter().filter(|c| c.state() == LockState::Held).count();
            prop_assert!(holders <= 1, "{holders} holders");
            // The lock word agrees with reality: held ⇒ word = holder's
            // tag; free ⇒ word = 0.
            let word = home.read_u64(1, 0).unwrap();
            match clients.iter().find(|c| c.state() == LockState::Held) {
                Some(_) => prop_assert!(word != 0),
                None => {
                    // Word may be nonzero transiently only if someone is
                    // mid-release; with synchronous driving there is no
                    // such window.
                    let releasing = clients
                        .iter()
                        .any(|c| matches!(c.state(), LockState::Releasing));
                    prop_assert!(word == 0 || releasing, "orphaned lock word {word:#x}");
                }
            }
        }
    }
}
