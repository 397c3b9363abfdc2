//! Replica-set member health as a pure machine.
//!
//! The shell in `lib.rs` runs every upstream exchange and reports what
//! each attempt did as one [`Event`]. This module decides what follows —
//! the read order, whether a member may be tried, its backoff, where
//! ingest goes and when that may move — and keeps the `RouterStats`
//! counters. The clock is an argument (time since the probe), so the
//! rules can be enumerated with a scripted one.
//!
//! The counting rule, per member:
//! - `requests_forwarded`: one exchange attempted, counted where it ends
//!   (`Replied`, `Refused` or `DialFailed`): once for a read or a
//!   handshake, twice for an ingest that tore — its own attempt, then the
//!   dial that learns whether the member lives. A member skipped while
//!   backing off was not attempted.
//! - `errors`: one transport failure (`PooledTorn` or `DialFailed`).
//! - `reconnects`: one fresh dial replacing a torn pooled stream. The
//!   shell follows every `PooledTorn` with exactly one, so it is counted
//!   there.

use std::time::Duration;

use concealer_server::protocol::{RouterStats, ShardLoad};

/// What one attempt of an upstream exchange did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Event {
    /// The member answered with what was asked for.
    Replied,
    /// The member answered with a structured refusal (an error reply or a
    /// refused handshake): it is alive, so this never backs it off.
    Refused,
    /// A pooled stream tore before its reply. Idle streams go stale when
    /// a peer restarts, so this says nothing yet about the member.
    PooledTorn,
    /// A fresh session failed — the dial could not connect, or its stream
    /// tore before the reply: the member itself is unhealthy.
    DialFailed,
}

/// One replica-set member: shard position, then position in the set's
/// configured member list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct MemberId {
    pub(crate) shard: usize,
    pub(crate) member: usize,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
struct Health {
    /// Consecutive failed fresh sessions since the member last answered.
    streak: u32,
    /// Set by a failed fresh session, cleared by an answer: the member is
    /// not tried before this instant, and is down for promotion while set.
    down_until: Option<Duration>,
    forwarded: u64,
    errors: u64,
    reconnects: u64,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Set {
    members: Vec<Health>,
    writer: usize,
    cursor: usize,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Members {
    sets: Vec<Set>,
    backoff_base: Duration,
    backoff_max: Duration,
}

impl Members {
    /// One set per `(member count, writer index)`, every member up.
    pub(crate) fn new(sets: &[(usize, usize)], base: Duration, max: Duration) -> Members {
        let set = |&(members, writer): &(usize, usize)| Set {
            members: vec![Health::default(); members],
            writer,
            cursor: 0,
        };
        Members {
            sets: sets.iter().map(set).collect(),
            backoff_base: base,
            backoff_max: max,
        }
    }

    /// The backoff after `streak` consecutive failed fresh dials:
    /// `base · 2^(streak−1)`, capped at `max`.
    pub(crate) fn backoff(&self, streak: u32) -> Duration {
        let factor = 1u32
            .checked_shl(streak.saturating_sub(1))
            .unwrap_or(u32::MAX);
        self.backoff_base
            .saturating_mul(factor)
            .min(self.backoff_max)
    }

    /// Whether `at` may be tried at `now`: not while it is backing off.
    pub(crate) fn may_try(&self, at: MemberId, now: Duration) -> bool {
        let health = &self.sets[at.shard].members[at.member];
        health.down_until.is_none_or(|until| now >= until)
    }

    /// The order a read tries `shard`'s members in: a rotation from the
    /// cursor, which advances so successive reads spread across the set.
    /// Members backing off stay in it; [`Members::may_try`] skips them.
    pub(crate) fn read_order(&mut self, shard: usize) -> Vec<MemberId> {
        let set = &mut self.sets[shard];
        let n = set.members.len();
        let start = set.cursor % n;
        set.cursor = set.cursor.wrapping_add(1);
        let at = |member| MemberId { shard, member };
        (start..start + n).map(|k| at(k % n)).collect()
    }

    pub(crate) fn writer(&self, shard: usize) -> MemberId {
        let member = self.sets[shard].writer;
        MemberId { shard, member }
    }

    /// The members an ingest may promote, in ring order after the writer —
    /// none unless the writer's last fresh dial failed. A torn pooled
    /// stream alone never licenses a second writer next to a live one.
    pub(crate) fn promotion_order(&self, shard: usize) -> Vec<MemberId> {
        let set = &self.sets[shard];
        if set.members[set.writer].down_until.is_none() {
            return Vec::new();
        }
        let (n, writer) = (set.members.len(), set.writer);
        let at = |member| MemberId { shard, member };
        (writer + 1..writer + n).map(|k| at(k % n)).collect()
    }

    /// `at` answered `Promote`. It becomes the writer if the writer is
    /// still down and `at` is not; returns whether `at` is the writer now
    /// (true also when a concurrent ingest promoted it first).
    pub(crate) fn promoted(&mut self, at: MemberId) -> bool {
        let set = &mut self.sets[at.shard];
        if set.writer != at.member
            && set.members[set.writer].down_until.is_some()
            && set.members[at.member].down_until.is_none()
        {
            set.writer = at.member;
        }
        set.writer == at.member
    }

    pub(crate) fn report(&mut self, at: MemberId, event: Event, now: Duration) {
        let mut health = self.sets[at.shard].members[at.member];
        match event {
            Event::Replied | Event::Refused => {
                health.forwarded += 1;
                health.streak = 0;
                health.down_until = None;
            }
            Event::PooledTorn => {
                health.errors += 1;
                health.reconnects += 1;
            }
            Event::DialFailed => {
                health.forwarded += 1;
                health.errors += 1;
                health.streak = health.streak.saturating_add(1);
                health.down_until = Some(now + self.backoff(health.streak));
            }
        }
        self.sets[at.shard].members[at.member] = health;
    }

    /// The `RouterStats` view at `now`, one entry per member in shard and
    /// member order; `addrs[shard][member]` names each.
    pub(crate) fn stats(&self, addrs: &[Vec<String>], now: Duration) -> RouterStats {
        let mut shards = Vec::new();
        for (shard, (set, set_addrs)) in self.sets.iter().zip(addrs).enumerate() {
            for (member, (health, addr)) in set.members.iter().zip(set_addrs).enumerate() {
                shards.push(ShardLoad {
                    shard_index: shard as u32,
                    addr: addr.clone(),
                    requests_forwarded: health.forwarded,
                    errors: health.errors,
                    reconnects: health.reconnects,
                    available: self.may_try(MemberId { shard, member }, now),
                    member: member as u32,
                    writer: member == set.writer,
                });
            }
        }
        RouterStats { shards }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    const BASE: Duration = Duration::from_millis(100);
    const MAX: Duration = Duration::from_millis(350);
    /// One clock advance: longer than the first backoff, shorter than the
    /// second, so both expiry and non-expiry are reachable.
    const TICK: Duration = Duration::from_millis(150);
    const NANO: Duration = Duration::from_nanos(1);

    #[derive(Debug, Clone, Copy)]
    enum Step {
        Event(Event, usize),
        Promoted(usize),
        Advance,
    }

    /// What the test expects, kept independently of the machine.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Model {
        now: Duration,
        writer: usize,
        /// Per member: the last event other than `PooledTorn`.
        last: Vec<Option<Event>>,
        streak: Vec<u32>,
        down_until: Vec<Option<Duration>>,
        /// Per member: forwarded, errors, reconnects.
        counts: Vec<[u64; 3]>,
    }

    impl Model {
        fn new(n: usize) -> Model {
            Model {
                now: Duration::ZERO,
                writer: 0,
                last: vec![None; n],
                streak: vec![0; n],
                down_until: vec![None; n],
                counts: vec![[0; 3]; n],
            }
        }
    }

    /// `base · 2^(streak−1)` capped at `max`, by repeated doubling.
    fn expected_backoff(streak: u32) -> Duration {
        (1..streak).fold(BASE, |b, _| (b * 2).min(MAX)).min(MAX)
    }

    fn addrs(n: usize) -> Vec<Vec<String>> {
        vec![(0..n).map(|m| format!("127.0.0.1:{}", 7001 + m)).collect()]
    }

    /// Apply `step` to both, then check every invariant of the transition.
    fn step(machine: &mut Members, model: &mut Model, s: Step, addrs: &[Vec<String>]) {
        let at = |member| MemberId { shard: 0, member };
        let before = machine.stats(addrs, model.now);
        match s {
            Step::Advance => model.now += TICK,
            Step::Promoted(m) => {
                let licensed = m != model.writer
                    && model.last[model.writer] == Some(Event::DialFailed)
                    && model.last[m] != Some(Event::DialFailed);
                if licensed {
                    model.writer = m;
                }
                assert_eq!(machine.promoted(at(m)), model.writer == m);
            }
            Step::Event(event, m) => {
                machine.report(at(m), event, model.now);
                let counts = &mut model.counts[m];
                match event {
                    Event::Replied | Event::Refused => {
                        counts[0] += 1;
                        model.streak[m] = 0;
                        model.down_until[m] = None;
                    }
                    Event::PooledTorn => {
                        counts[1] += 1;
                        counts[2] += 1;
                    }
                    Event::DialFailed => {
                        counts[0] += 1;
                        counts[1] += 1;
                        model.streak[m] += 1;
                        let backoff = expected_backoff(model.streak[m]);
                        model.down_until[m] = Some(model.now + backoff);
                        // Exactly the formula: not a nanosecond shorter or longer.
                        assert!(!machine.may_try(at(m), model.now + backoff - NANO));
                        assert!(machine.may_try(at(m), model.now + backoff));
                        assert_eq!(machine.backoff(model.streak[m]), backoff);
                    }
                }
                if event != Event::PooledTorn {
                    model.last[m] = Some(event);
                }
            }
        }
        check(machine, model, &before, addrs);
    }

    /// The invariants that hold after every step, `before` being the
    /// stats view the step started from.
    fn check(machine: &Members, model: &Model, before: &RouterStats, addrs: &[Vec<String>]) {
        let at = |member| MemberId { shard: 0, member };
        let after = machine.stats(addrs, model.now);
        let writers: Vec<usize> = after
            .shards
            .iter()
            .filter(|load| load.writer)
            .map(|load| load.member as usize)
            .collect();
        assert_eq!(
            writers,
            vec![model.writer],
            "one writer, moved only by a licensed promotion"
        );
        assert_eq!(machine.writer(0), at(model.writer));
        for (m, (load, old)) in after.shards.iter().zip(&before.shards).enumerate() {
            let backing_off = model.down_until[m].is_some_and(|until| model.now < until);
            assert_eq!(
                machine.may_try(at(m), model.now),
                !backing_off,
                "member {m}"
            );
            assert_eq!(load.available, !backing_off, "member {m}");
            assert_eq!(
                [load.requests_forwarded, load.errors, load.reconnects],
                model.counts[m],
                "member {m}"
            );
            assert!(load.requests_forwarded >= old.requests_forwarded);
            assert!(load.errors >= old.errors);
            assert!(load.reconnects >= old.reconnects);
        }
        let order = machine.promotion_order(0);
        if model.last[model.writer] == Some(Event::DialFailed) {
            let n = model.last.len();
            let ring: Vec<MemberId> = (1..n).map(|k| at((model.writer + k) % n)).collect();
            assert_eq!(order, ring);
        } else {
            assert!(
                order.is_empty(),
                "promotion offered while the writer is not known dead"
            );
        }
    }

    /// Walk every sequence of up to `depth` steps from `(machine, model)`.
    /// A state already explored with at least as many steps left is not
    /// walked again: the machine is deterministic, so the continuations
    /// from it were all checked there.
    fn explore(
        machine: &Members,
        model: &Model,
        depth: usize,
        alphabet: &[Step],
        addrs: &[Vec<String>],
        seen: &mut HashMap<(Members, Model), usize>,
    ) -> u64 {
        if depth == 0 {
            return 0;
        }
        let key = (machine.clone(), model.clone());
        if seen.get(&key).is_some_and(|&left| left >= depth) {
            return 0;
        }
        seen.insert(key, depth);
        let mut walked = 0;
        for &s in alphabet {
            let (mut machine, mut model) = (machine.clone(), model.clone());
            step(&mut machine, &mut model, s, addrs);
            walked += 1 + explore(&machine, &model, depth - 1, alphabet, addrs, seen);
        }
        walked
    }

    #[test]
    fn every_sequence_of_six_events_keeps_the_member_invariants() {
        for n in 1..=3 {
            let mut alphabet = vec![Step::Advance];
            for m in 0..n {
                alphabet.push(Step::Promoted(m));
                for event in [
                    Event::Replied,
                    Event::Refused,
                    Event::PooledTorn,
                    Event::DialFailed,
                ] {
                    alphabet.push(Step::Event(event, m));
                }
            }
            let machine = Members::new(&[(n, 0)], BASE, MAX);
            let mut seen = HashMap::new();
            let walked = explore(&machine, &Model::new(n), 6, &alphabet, &addrs(n), &mut seen);
            assert!(
                walked >= alphabet.len() as u64,
                "{n} members: {walked} steps"
            );
        }
    }

    #[test]
    fn a_scripted_failover_counts_by_the_rule() {
        // Two members: a read tears a pooled stream on member 0 and its
        // fresh dial fails; the read fails over to member 1. Then the
        // writer (member 0) is still down when an ingest arrives, so
        // member 1 is promoted.
        let addrs = addrs(2);
        let mut machine = Members::new(&[(2, 0)], BASE, MAX);
        let t = Duration::from_millis(10);
        let (m0, m1) = (
            MemberId {
                shard: 0,
                member: 0,
            },
            MemberId {
                shard: 0,
                member: 1,
            },
        );
        assert_eq!(machine.read_order(0), vec![m0, m1]);
        machine.report(m0, Event::PooledTorn, t);
        machine.report(m0, Event::DialFailed, t);
        machine.report(m1, Event::Replied, t);
        assert!(!machine.may_try(m0, t));
        assert_eq!(machine.promotion_order(0), vec![m1]);
        assert!(machine.promoted(m1));
        machine.report(m1, Event::Refused, t);
        let loads: Vec<[u64; 3]> = machine
            .stats(&addrs, t)
            .shards
            .iter()
            .map(|l| [l.requests_forwarded, l.errors, l.reconnects])
            .collect();
        // Member 0: one exchange attempted (the torn read), two transport
        // failures, one replacing dial. Member 1: two exchanges, no failure.
        assert_eq!(loads, vec![[1, 2, 1], [2, 0, 0]]);
        let stats = machine.stats(&addrs, t + BASE);
        assert!(stats.shards[0].available && !stats.shards[0].writer);
        assert!(stats.shards[1].writer);
    }

    #[test]
    fn a_torn_pooled_stream_alone_never_licenses_a_promotion() {
        let mut machine = Members::new(&[(3, 0)], BASE, MAX);
        let writer = MemberId {
            shard: 0,
            member: 0,
        };
        machine.report(writer, Event::PooledTorn, Duration::ZERO);
        assert!(machine.promotion_order(0).is_empty());
        assert!(!machine.promoted(MemberId {
            shard: 0,
            member: 1
        }));
        machine.report(writer, Event::DialFailed, Duration::ZERO);
        let ring = [1, 2].map(|member| MemberId { shard: 0, member });
        assert_eq!(machine.promotion_order(0), ring);
        // An answer from the writer withdraws the licence again.
        machine.report(writer, Event::Refused, Duration::ZERO);
        assert!(machine.promotion_order(0).is_empty());
        assert_eq!(machine.writer(0), writer);
    }
}
