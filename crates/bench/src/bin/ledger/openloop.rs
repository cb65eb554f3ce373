//! Load generators for the serving workloads, written against a clock and
//! a backend so the accounting can be tested with fakes.
//!
//! * [`drive_open`]: requests fall due on a schedule fixed before the run
//!   (seeded Poisson arrivals). The generator spins, never sleeps, sends
//!   each request as soon as it is due and times it **from when it was
//!   due**, so a stall — in the server or in the generator — lengthens the
//!   latency of the requests behind it instead of silently thinning the
//!   load. How late the generator ran is reported per request.
//! * [`drive_window`]: a closed loop that keeps a fixed number of requests
//!   outstanding and times each from its own submit.
//!
//! Both poll replies in FIFO order, which is the order a single worker
//! completes them in.

use std::collections::VecDeque;
use std::time::Instant;

use microrec_rng::Rng;

/// Monotonic nanoseconds since some origin.
pub trait Clock {
    fn now_ns(&self) -> u64;
}

/// The wall clock, counted from its creation.
#[derive(Debug)]
pub struct WallClock(Instant);

impl WallClock {
    pub fn start() -> Self {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Reply to one request: `Ok(value)` or refused/failed.
pub type Reply = Result<f32, ()>;

/// The system under load: takes request number `seq` and later answers it.
pub trait Backend {
    type Ticket;
    /// Sends request `seq`; `Err` when it is refused outright.
    fn submit(&mut self, seq: u64) -> Result<Self::Ticket, ()>;
    /// The reply, if it has arrived.
    fn poll(&mut self, ticket: &Self::Ticket) -> Option<Reply>;
}

/// What happened to one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    pub seq: u64,
    /// When the request was due (open loop) or submitted (window loop).
    pub due_ns: u64,
    /// When the generator actually handed it to the backend.
    pub sent_ns: u64,
    /// When the generator saw the reply; `None` for a refused request,
    /// which misses every latency limit.
    pub seen_ns: Option<u64>,
    pub reply: Reply,
}

impl Outcome {
    /// Due → reply seen, in microseconds; `None` for a refused request.
    pub fn latency_us(&self) -> Option<f64> {
        self.seen_ns.map(|seen| seen.saturating_sub(self.due_ns) as f64 / 1e3)
    }

    /// How late the generator sent it, in microseconds.
    pub fn lag_us(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e3
    }
}

/// Due times (ns from the start of the run) of a Poisson process of
/// `rate_per_s` over `duration_ns`, conditioned on its expected count:
/// exactly `rate × duration` arrivals, placed independently and uniformly
/// (which is what a Poisson process looks like once its count is known),
/// fixed by `seed` alone. Fixing the count keeps the offered load — and so
/// the goodput a run reports — the same for every seed; the gaps stay
/// exponential.
pub fn poisson_schedule(rate_per_s: f64, duration_ns: u64, seed: u64) -> Vec<u64> {
    let count = (rate_per_s * duration_ns as f64 / 1e9).round() as usize;
    let mut rng = Rng::seed_from_u64(seed);
    let mut due: Vec<u64> = (0..count).map(|_| rng.gen_range_u64(0, duration_ns.max(1))).collect();
    due.sort_unstable();
    due
}

struct InFlight<T> {
    ticket: T,
    seq: u64,
    due_ns: u64,
    sent_ns: u64,
}

/// Polls the oldest outstanding request at time `now_ns`; records and
/// removes it if its reply has arrived.
fn reap_front<B: Backend>(
    now_ns: u64,
    backend: &mut B,
    pending: &mut VecDeque<InFlight<B::Ticket>>,
    done: &mut Vec<Outcome>,
) {
    let Some(front) = pending.front() else { return };
    let Some(reply) = backend.poll(&front.ticket) else { return };
    let f = pending.pop_front().expect("front was just inspected");
    done.push(Outcome {
        seq: f.seq,
        due_ns: f.due_ns,
        sent_ns: f.sent_ns,
        seen_ns: Some(now_ns.max(f.sent_ns)),
        reply,
    });
}

/// Open loop over the due times in `schedule`; returns one outcome per
/// scheduled request, in completion order, after every reply is in.
pub fn drive_open<B: Backend>(
    clock: &impl Clock,
    backend: &mut B,
    schedule: &[u64],
) -> Vec<Outcome> {
    let mut pending: VecDeque<InFlight<B::Ticket>> = VecDeque::new();
    let mut done = Vec::with_capacity(schedule.len());
    for (seq, &due_ns) in schedule.iter().enumerate() {
        let seq = seq as u64;
        let mut sent_ns = clock.now_ns();
        while sent_ns < due_ns {
            reap_front(sent_ns, backend, &mut pending, &mut done);
            sent_ns = clock.now_ns();
        }
        match backend.submit(seq) {
            Ok(ticket) => pending.push_back(InFlight { ticket, seq, due_ns, sent_ns }),
            Err(()) => done.push(Outcome { seq, due_ns, sent_ns, seen_ns: None, reply: Err(()) }),
        }
    }
    while !pending.is_empty() {
        reap_front(clock.now_ns(), backend, &mut pending, &mut done);
    }
    done
}

/// Closed loop keeping `window` requests outstanding until `until_ns`,
/// then draining. Every `stride`-th request is timed and reported through
/// `on_sample` (request number, submit time, reply-seen time); every reply goes through
/// `on_reply` with the time it was seen rounded to the last clock read,
/// so the hot loop reads the clock once per `stride` requests.
pub fn drive_window<B: Backend>(
    clock: &impl Clock,
    backend: &mut B,
    window: usize,
    until_ns: u64,
    stride: u64,
    mut on_reply: impl FnMut(u64, Reply, u64),
    mut on_sample: impl FnMut(u64, u64, u64),
) {
    let mut pending: VecDeque<(B::Ticket, u64, u64)> = VecDeque::with_capacity(window);
    let mut next_seq = 0u64;
    let mut now = clock.now_ns();
    let mut open = true;
    while open || !pending.is_empty() {
        while open && pending.len() < window {
            let timed = next_seq.is_multiple_of(stride);
            if timed {
                now = clock.now_ns();
                open = now < until_ns;
                if !open {
                    break;
                }
            }
            match backend.submit(next_seq) {
                Ok(ticket) => pending.push_back((ticket, next_seq, if timed { now } else { 0 })),
                Err(()) => on_reply(next_seq, Err(()), now),
            }
            next_seq += 1;
        }
        if let Some((ticket, seq, sent_ns)) = pending.front() {
            let (seq, sent_ns) = (*seq, *sent_ns);
            match backend.poll(ticket) {
                Some(reply) => {
                    pending.pop_front();
                    if seq.is_multiple_of(stride) {
                        now = clock.now_ns();
                        on_sample(seq, sent_ns, now);
                    }
                    on_reply(seq, reply, now);
                }
                // Nothing to do but wait: keep the clock fresh meanwhile.
                None => now = clock.now_ns(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that advances 1 µs per read, plus whatever a test adds.
    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            let t = self.0.get() + 1_000;
            self.0.set(t);
            t
        }
    }

    /// Answers every request `service_ns` after it was sent; request
    /// `stall_at` also freezes the generator for `stall_ns` inside submit
    /// (a blocked admission call), and request `refuse` is turned away.
    struct FakeServer<'a> {
        clock: &'a FakeClock,
        service_ns: u64,
        stall_at: Option<u64>,
        stall_ns: u64,
        refuse: Option<u64>,
    }

    impl Backend for FakeServer<'_> {
        type Ticket = u64; // ready time
        fn submit(&mut self, seq: u64) -> Result<u64, ()> {
            if self.refuse == Some(seq) {
                return Err(());
            }
            if self.stall_at == Some(seq) {
                self.clock.0.set(self.clock.0.get() + self.stall_ns);
            }
            Ok(self.clock.0.get() + self.service_ns)
        }
        fn poll(&mut self, ready: &u64) -> Option<Reply> {
            (self.clock.0.get() >= *ready).then_some(Ok(0.5))
        }
    }

    fn by_seq(mut outcomes: Vec<Outcome>) -> Vec<Outcome> {
        outcomes.sort_by_key(|o| o.seq);
        outcomes
    }

    #[test]
    fn poisson_schedule_is_seeded_sorted_and_of_fixed_count() {
        let a = poisson_schedule(1000.0, 2_000_000_000, 7);
        assert_eq!(a, poisson_schedule(1000.0, 2_000_000_000, 7));
        let b = poisson_schedule(1000.0, 2_000_000_000, 8);
        assert_ne!(a, b);
        assert_eq!((a.len(), b.len()), (2000, 2000));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().copied().unwrap() < 2_000_000_000);
        // Exponential gaps: about 1/e of them exceed the mean gap of 1 ms.
        let long = a.windows(2).filter(|w| w[1] - w[0] > 1_000_000).count();
        assert!((600..870).contains(&long), "{long} gaps above the mean");
    }

    #[test]
    fn a_stall_delays_later_latencies_not_their_due_times() {
        // Ten requests due every 100 µs, 20 µs of service each.
        let schedule: Vec<u64> = (1..=10).map(|i| i * 100_000).collect();
        let run = |stall_at| {
            let clock = FakeClock(Cell::new(0));
            let mut server = FakeServer {
                clock: &clock,
                service_ns: 20_000,
                stall_at,
                stall_ns: 350_000,
                refuse: None,
            };
            by_seq(drive_open(&clock, &mut server, &schedule))
        };
        let calm = run(None);
        let stalled = run(Some(2));
        assert_eq!(calm.len(), 10);
        for (c, s) in calm.iter().zip(&stalled) {
            // The schedule is the schedule: a stall moves no due time.
            assert_eq!(c.due_ns, s.due_ns);
            assert_eq!(c.due_ns, schedule[c.seq as usize]);
        }
        // Without a stall every request goes out on time and takes ~service.
        assert!(calm.iter().all(|o| o.lag_us() < 5.0 && o.latency_us().unwrap() < 30.0));
        // Request 2 stalls the generator for 350 µs: requests 3, 4 and 5
        // were due meanwhile, go out late, and their latency says so.
        assert!(stalled[2].latency_us().unwrap() > 350.0);
        for late in &stalled[3..=5] {
            assert!(late.lag_us() > 40.0, "seq {} lag {}", late.seq, late.lag_us());
            assert!(late.latency_us().unwrap() > late.lag_us());
        }
        assert!(stalled[3].latency_us().unwrap() > stalled[5].latency_us().unwrap());
        // Once the backlog is sent the generator is on time again.
        assert!(stalled[7..].iter().all(|o| o.lag_us() < 5.0));
    }

    #[test]
    fn a_refused_request_is_an_outcome_without_a_latency() {
        let schedule = [10_000, 20_000, 30_000];
        let clock = FakeClock(Cell::new(0));
        let mut server = FakeServer {
            clock: &clock,
            service_ns: 1_000,
            stall_at: None,
            stall_ns: 0,
            refuse: Some(1),
        };
        let out = by_seq(drive_open(&clock, &mut server, &schedule));
        assert_eq!(out.len(), 3);
        assert_eq!(out[1].reply, Err(()));
        assert_eq!(out[1].latency_us(), None);
        assert_eq!(out[0].reply, Ok(0.5));
    }

    #[test]
    fn window_loop_keeps_the_window_full_and_answers_everything() {
        let clock = FakeClock(Cell::new(0));
        let mut server = FakeServer {
            clock: &clock,
            service_ns: 5_000,
            stall_at: None,
            stall_ns: 0,
            refuse: Some(3),
        };
        let mut replies = Vec::new();
        let mut samples = Vec::new();
        drive_window(
            &clock,
            &mut server,
            4,
            400_000,
            2,
            |seq, reply, _| replies.push((seq, reply)),
            |_, sent, seen| samples.push(seen - sent),
        );
        let n = replies.len() as u64;
        assert!(n > 20, "only {n} requests in 400 µs");
        let mut seqs: Vec<u64> = replies.iter().map(|r| r.0).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..n).collect::<Vec<_>>(), "every request answered exactly once");
        assert_eq!(replies.iter().filter(|r| r.1.is_err()).count(), 1);
        // Every second request is timed, and each took at least the service time.
        assert!(samples.len() as u64 >= n / 2 - 1);
        assert!(samples.iter().all(|&ns| ns >= 5_000));
    }
}
