//! Network semaphores (slide 10).
//!
//! "Write conflicts are handled at the user level using AmpNet locking
//! primitives implemented in software (network semaphores)."
//!
//! A semaphore is one 64-bit word in a network cache region with a
//! home node. The client side is a small sans-IO state machine:
//! acquire issues `TestAndSet` D64 requests (with deterministic
//! exponential backoff between attempts while contended), release
//! issues `Clear`. Mutual exclusion follows from serialization at the
//! home node.

use ampnet_packet::build::{self, AtomicOp, AtomicRequest};
use ampnet_packet::MicroPacket;
use ampnet_sim::{SimDuration, SimTime};

/// Where a semaphore lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SemaphoreAddr {
    /// Home node executing the atomics.
    pub home: u8,
    /// Region holding the word.
    pub region: u8,
    /// Word-aligned offset of the word.
    pub offset: u32,
}

/// Client lock state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockState {
    /// Not held, no request outstanding.
    Idle,
    /// A TestAndSet is in flight.
    Requesting,
    /// Backing off until the stored time before retrying.
    Backoff(SimTime),
    /// Lock held by this client.
    Held,
    /// A Clear is in flight (still logically held until it lands).
    Releasing,
}

/// What the client wants the caller to do next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SemaphoreAction {
    /// Send this packet to the home node.
    Send(MicroPacket),
    /// Sleep until the given time, then call `poll` again.
    WaitUntil(SimTime),
    /// Nothing to do.
    None,
}

/// Backoff policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffPolicy {
    /// First retry delay.
    pub base: SimDuration,
    /// Cap on the retry delay.
    pub max: SimDuration,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base: SimDuration::from_micros(2),
            max: SimDuration::from_micros(64),
        }
    }
}

/// Sans-IO client for one binary network semaphore.
#[derive(Debug, Clone)]
pub struct SemaphoreClient {
    node: u8,
    addr: SemaphoreAddr,
    state: LockState,
    policy: BackoffPolicy,
    attempt: u32,
    acquires: u64,
    contentions: u64,
    acquire_started: Option<SimTime>,
}

impl SemaphoreClient {
    /// New client at `node` for the semaphore at `addr`.
    pub fn new(node: u8, addr: SemaphoreAddr, policy: BackoffPolicy) -> Self {
        SemaphoreClient {
            node,
            addr,
            state: LockState::Idle,
            policy,
            attempt: 0,
            acquires: 0,
            contentions: 0,
            acquire_started: None,
        }
    }

    /// Current state.
    pub fn state(&self) -> LockState {
        self.state
    }

    /// Successful acquisitions.
    pub fn acquires(&self) -> u64 {
        self.acquires
    }

    /// Failed TestAndSet attempts (lock was held).
    pub fn contentions(&self) -> u64 {
        self.contentions
    }

    /// When the in-progress acquire began (for latency measurement).
    pub fn acquire_started(&self) -> Option<SimTime> {
        self.acquire_started
    }

    /// This client's owner tag (nonzero; node ids start at 0).
    fn tag(&self) -> u32 {
        self.node as u32 + 1
    }

    fn tas_packet(&self) -> MicroPacket {
        build::atomic_request(
            self.node,
            self.addr.home,
            AtomicRequest {
                op: AtomicOp::TestAndSet,
                region: self.addr.region,
                offset: self.addr.offset,
                operand: self.tag(),
            },
        )
    }

    fn clear_packet(&self) -> MicroPacket {
        build::atomic_request(
            self.node,
            self.addr.home,
            AtomicRequest {
                op: AtomicOp::Clear,
                region: self.addr.region,
                offset: self.addr.offset,
                operand: self.tag(),
            },
        )
    }

    /// The packet to retransmit if the in-flight request may have been
    /// lost (e.g. a ring reconfiguration): the tagged operations are
    /// idempotent, so resending is always safe.
    pub fn resend(&self) -> Option<MicroPacket> {
        match self.state {
            LockState::Requesting => Some(self.tas_packet()),
            LockState::Releasing => Some(self.clear_packet()),
            _ => None,
        }
    }

    /// Begin acquiring. Panics if not idle.
    pub fn acquire(&mut self, now: SimTime) -> SemaphoreAction {
        assert_eq!(self.state, LockState::Idle, "acquire while {:?}", self.state);
        self.state = LockState::Requesting;
        self.attempt = 0;
        self.acquire_started = Some(now);
        SemaphoreAction::Send(self.tas_packet())
    }

    /// Release the held lock.
    pub fn release(&mut self) -> SemaphoreAction {
        assert_eq!(self.state, LockState::Held, "release while {:?}", self.state);
        self.state = LockState::Releasing;
        SemaphoreAction::Send(self.clear_packet())
    }

    /// Feed a D64 response addressed to this node.
    pub fn on_response(&mut self, now: SimTime, pkt: &MicroPacket) -> SemaphoreAction {
        let Some((op, previous)) = build::parse_atomic_response(pkt) else {
            return SemaphoreAction::None;
        };
        match (self.state, op) {
            (LockState::Requesting, AtomicOp::TestAndSet) => {
                // previous == own tag means a retransmitted request
                // found the lock we already took: also acquired.
                if previous == 0 || previous == self.tag() as u64 {
                    self.state = LockState::Held;
                    self.acquires += 1;
                    SemaphoreAction::None
                } else {
                    self.contentions += 1;
                    self.attempt += 1;
                    let delay = self.backoff_delay();
                    let until = now + delay;
                    self.state = LockState::Backoff(until);
                    SemaphoreAction::WaitUntil(until)
                }
            }
            (LockState::Releasing, AtomicOp::Clear) => {
                self.state = LockState::Idle;
                self.acquire_started = None;
                SemaphoreAction::None
            }
            _ => SemaphoreAction::None,
        }
    }

    /// Called when the backoff deadline passes.
    pub fn poll(&mut self, now: SimTime) -> SemaphoreAction {
        match self.state {
            LockState::Backoff(until) if now >= until => {
                self.state = LockState::Requesting;
                SemaphoreAction::Send(self.tas_packet())
            }
            LockState::Backoff(until) => SemaphoreAction::WaitUntil(until),
            _ => SemaphoreAction::None,
        }
    }

    fn backoff_delay(&self) -> SimDuration {
        // Deterministic truncated exponential: base × 2^(attempt-1),
        // capped. Stagger by node id to break symmetry determinately.
        let exp = self.attempt.saturating_sub(1).min(16);
        let base = self.policy.base.saturating_mul(1u64 << exp);
        let stagger = SimDuration::from_nanos(self.node as u64 * 97);
        let d = base + stagger;
        if d > self.policy.max {
            self.policy.max + stagger
        } else {
            d
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomics::execute;
    use crate::store::NetworkCache;

    fn addr() -> SemaphoreAddr {
        SemaphoreAddr {
            home: 0,
            region: 1,
            offset: 0,
        }
    }

    fn home_cache() -> NetworkCache {
        let mut c = NetworkCache::new(0);
        c.define_region(1, 64).unwrap();
        c
    }

    /// Run the client/home exchange to completion, synchronously.
    fn drive(
        client: &mut SemaphoreClient,
        home: &mut NetworkCache,
        mut now: SimTime,
        action: SemaphoreAction,
    ) -> SimTime {
        let mut action = action;
        loop {
            match action {
                SemaphoreAction::Send(pkt) => {
                    let req = build::parse_atomic_request(&pkt).unwrap();
                    let effect = execute(home, pkt.ctrl.src, req).unwrap();
                    action = client.on_response(now, &effect.response);
                }
                SemaphoreAction::WaitUntil(t) => {
                    now = t;
                    action = client.poll(now);
                }
                SemaphoreAction::None => return now,
            }
        }
    }

    #[test]
    fn uncontended_acquire_release() {
        let mut home = home_cache();
        let mut c = SemaphoreClient::new(2, addr(), Default::default());
        let a = c.acquire(SimTime(0));
        drive(&mut c, &mut home, SimTime(0), a);
        assert_eq!(c.state(), LockState::Held);
        assert_eq!(c.acquires(), 1);
        assert_eq!(c.contentions(), 0);
        let r = c.release();
        drive(&mut c, &mut home, SimTime(0), r);
        assert_eq!(c.state(), LockState::Idle);
    }

    #[test]
    fn contended_acquire_backs_off_then_wins() {
        let mut home = home_cache();
        let mut holder = SemaphoreClient::new(1, addr(), Default::default());
        let a = holder.acquire(SimTime(0));
        drive(&mut holder, &mut home, SimTime(0), a);
        assert_eq!(holder.state(), LockState::Held);

        // Second client: first TAS sees held, backs off.
        let mut waiter = SemaphoreClient::new(2, addr(), Default::default());
        let mut action = waiter.acquire(SimTime(0));
        // One exchange: Send → response(prev=1) → WaitUntil.
        if let SemaphoreAction::Send(pkt) = action {
            let req = build::parse_atomic_request(&pkt).unwrap();
            let effect = execute(&mut home, 2, req).unwrap();
            action = waiter.on_response(SimTime(0), &effect.response);
        }
        let SemaphoreAction::WaitUntil(t) = action else {
            panic!("expected backoff, got {action:?}");
        };
        assert!(t > SimTime(0));
        assert_eq!(waiter.contentions(), 1);

        // Holder releases; waiter retries after backoff and wins.
        let r = holder.release();
        drive(&mut holder, &mut home, SimTime(0), r);
        let retry = waiter.poll(t);
        drive(&mut waiter, &mut home, t, retry);
        assert_eq!(waiter.state(), LockState::Held);
    }

    #[test]
    fn mutual_exclusion_over_many_rounds() {
        let mut home = home_cache();
        let n = 6u8;
        let mut clients: Vec<SemaphoreClient> = (1..=n)
            .map(|i| SemaphoreClient::new(i, addr(), Default::default()))
            .collect();
        let mut held_by: Option<u8> = None;
        let mut now = SimTime(0);
        let mut completed = 0u32;
        // Round-robin: each client acquires, verifies sole ownership,
        // releases. Interleave acquisition attempts to create contention.
        for round in 0..50 {
            let idx = round % clients.len();
            let a = clients[idx].acquire(now);
            now = drive(&mut clients[idx], &mut home, now, a);
            // With synchronous driving the acquire always completes.
            assert_eq!(clients[idx].state(), LockState::Held);
            assert_eq!(held_by, None, "two holders at once");
            held_by = Some(clients[idx].node);
            assert!(held_by.is_some());
            // Verify no other client is Held.
            for (j, c) in clients.iter().enumerate() {
                if j != idx {
                    assert_ne!(c.state(), LockState::Held);
                }
            }
            let r = clients[idx].release();
            now = drive(&mut clients[idx], &mut home, now, r);
            held_by = None;
            completed += 1;
        }
        assert_eq!(completed, 50);
        assert_eq!(held_by, None);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let policy = BackoffPolicy {
            base: SimDuration::from_micros(1),
            max: SimDuration::from_micros(8),
        };
        let mut c = SemaphoreClient::new(0, addr(), policy);
        c.state = LockState::Requesting;
        c.acquire_started = Some(SimTime(0));
        // prev = 9: some other client's tag holds the lock.
        let busy = build::atomic_response(0, 0, AtomicOp::TestAndSet, 9);
        let mut last = SimDuration::ZERO;
        for i in 0..6 {
            let act = c.on_response(SimTime(0), &busy);
            let SemaphoreAction::WaitUntil(t) = act else {
                panic!("expected backoff");
            };
            let d = t - SimTime(0);
            assert!(d >= last, "backoff must not shrink at attempt {i}");
            assert!(d <= SimDuration::from_micros(9));
            last = d;
            c.state = LockState::Requesting;
        }
        assert_eq!(c.contentions(), 6);
    }

    #[test]
    #[should_panic(expected = "acquire while")]
    fn double_acquire_panics() {
        let mut c = SemaphoreClient::new(0, addr(), Default::default());
        c.acquire(SimTime(0));
        c.acquire(SimTime(0));
    }

    #[test]
    fn irrelevant_responses_ignored() {
        let mut c = SemaphoreClient::new(0, addr(), Default::default());
        let resp = build::atomic_response(0, 0, AtomicOp::FetchAdd, 3);
        assert_eq!(c.on_response(SimTime(0), &resp), SemaphoreAction::None);
        let data = build::data(0, 1, 0, [0; 8]);
        assert_eq!(c.on_response(SimTime(0), &data), SemaphoreAction::None);
    }
}
