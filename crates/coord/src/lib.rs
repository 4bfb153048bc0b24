//! # lambda-coord
//!
//! The Coordinator service — the reproduction's stand-in for ZooKeeper,
//! the Coordinator every experiment of the paper runs (§3.5): sessions with
//! liveness timeouts, ephemeral group membership, persistent watches,
//! leader election, and member-to-member message delivery.
//!
//! The λFS coherence protocol uses exactly these primitives: the leader
//! NameNode discovers which instances of a deployment are alive
//! ([`Coordinator::members`]), delivers INVs ([`Coordinator::send`]),
//! collects ACKs (replies via `send`), and — crucially — learns via watches
//! when a member dies mid-protocol so that "ACKs are not required from
//! NameNodes that terminate mid-protocol" (Algorithm 1, step 1).
//!
//! Sessions expire when not heartbeated within their timeout, which is how
//! crashed NameNodes are detected and their memberships dropped. Their
//! subtree locks (paper §3.6) are rows of the metadata store's
//! `subtree_locks` table tagged with the holder's session; the NameNode
//! that [`Coordinator::leader`] elects sweeps the rows whose holder is no
//! longer alive.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod service;

pub use service::{Coordinator, GroupEvent, SessionId};

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_sim::params::NetParams;
    use lambda_sim::{Sim, SimDuration};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn new_coord() -> Coordinator<String> {
        Coordinator::new(&NetParams::default(), SimDuration::from_secs(4))
    }

    #[test]
    fn membership_joins_and_graceful_leaves() {
        let mut sim = Sim::new(1);
        let coord = new_coord();
        let a = coord.create_session(&mut sim);
        let b = coord.create_session(&mut sim);
        coord.join_group(&mut sim, a, "deploy-0");
        coord.join_group(&mut sim, b, "deploy-0");
        assert_eq!(coord.members("deploy-0"), vec![a, b]);
        coord.close_session(&mut sim, a);
        assert_eq!(coord.members("deploy-0"), vec![b]);
        assert!(!coord.is_alive(a));
        assert!(coord.is_alive(b));
    }

    #[test]
    fn sessions_expire_without_heartbeats() {
        let mut sim = Sim::new(2);
        let coord = new_coord();
        let a = coord.create_session(&mut sim);
        coord.join_group(&mut sim, a, "g");
        sim.run_until(lambda_sim::SimTime::from_secs(3));
        assert!(coord.is_alive(a));
        sim.run_until(lambda_sim::SimTime::from_secs(10));
        assert!(!coord.is_alive(a));
        assert!(coord.members("g").is_empty());
    }

    #[test]
    fn heartbeats_keep_sessions_alive() {
        let mut sim = Sim::new(3);
        let coord = new_coord();
        let a = coord.create_session(&mut sim);
        let c2 = coord.clone();
        lambda_sim::every(
            &mut sim,
            lambda_sim::SimTime::ZERO,
            SimDuration::from_secs(1),
            move |sim| {
                c2.heartbeat(sim, a);
                sim.now() < lambda_sim::SimTime::from_secs(20)
            },
        );
        sim.run_until(lambda_sim::SimTime::from_secs(19));
        assert!(coord.is_alive(a));
        // Heartbeats stop at t=20; the session dies by t=20+timeout.
        sim.run_until(lambda_sim::SimTime::from_secs(30));
        assert!(!coord.is_alive(a));
    }

    #[test]
    fn watches_fire_on_join_and_expiry() {
        let mut sim = Sim::new(4);
        let coord = new_coord();
        let events = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&events);
        coord.watch_group(
            "g",
            Rc::new(move |_sim: &mut Sim, ev: GroupEvent| {
                sink.borrow_mut().push(ev);
            }),
        );
        let a = coord.create_session(&mut sim);
        coord.join_group(&mut sim, a, "g");
        sim.run_until(lambda_sim::SimTime::from_secs(1));
        assert_eq!(*events.borrow(), vec![GroupEvent::Joined(a)]);
        // Let the session starve.
        sim.run_until(lambda_sim::SimTime::from_secs(10));
        assert_eq!(*events.borrow(), vec![GroupEvent::Joined(a), GroupEvent::Left(a)]);
    }

    #[test]
    fn messages_deliver_with_latency_to_live_members_only() {
        let mut sim = Sim::new(5);
        let coord = new_coord();
        let a = coord.create_session(&mut sim);
        let b = coord.create_session(&mut sim);
        let inbox = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&inbox);
        coord.register_inbox(
            b,
            Box::new(move |sim: &mut Sim, msg: String| {
                sink.borrow_mut().push((sim.now().as_millis_f64(), msg));
            }),
        );
        assert!(coord.send(&mut sim, a, b, "INV:/x".to_string()));
        sim.run();
        {
            let inbox = inbox.borrow();
            assert_eq!(inbox.len(), 1);
            assert_eq!(inbox[0].1, "INV:/x");
            // Two coordinator hops at 0.2-0.45ms each.
            assert!(inbox[0].0 >= 0.4 && inbox[0].0 <= 0.9, "latency {}", inbox[0].0);
        }
        // Sends to dead sessions are refused.
        coord.close_session(&mut sim, b);
        assert!(!coord.send(&mut sim, a, b, "INV:/y".to_string()));
        sim.run();
        assert_eq!(inbox.borrow().len(), 1);
    }

    #[test]
    fn message_to_member_dying_in_flight_is_dropped() {
        let mut sim = Sim::new(6);
        let coord = new_coord();
        let a = coord.create_session(&mut sim);
        let b = coord.create_session(&mut sim);
        let got = Rc::new(RefCell::new(0u32));
        let sink = Rc::clone(&got);
        coord.register_inbox(
            b,
            Box::new(move |_sim: &mut Sim, _msg: String| {
                *sink.borrow_mut() += 1;
            }),
        );
        assert!(coord.send(&mut sim, a, b, "INV".into()));
        // b dies before the message lands.
        coord.close_session(&mut sim, b);
        sim.run();
        assert_eq!(*got.borrow(), 0);
    }

    #[test]
    fn leader_is_the_longest_lived_member() {
        let mut sim = Sim::new(7);
        let coord = new_coord();
        let a = coord.create_session(&mut sim);
        let b = coord.create_session(&mut sim);
        let c = coord.create_session(&mut sim);
        for s in [a, b, c] {
            coord.join_group(&mut sim, s, "nn");
        }
        assert_eq!(coord.leader("nn"), Some(a));
        coord.close_session(&mut sim, a);
        assert_eq!(coord.leader("nn"), Some(b));
        coord.close_session(&mut sim, b);
        coord.close_session(&mut sim, c);
        assert_eq!(coord.leader("nn"), None);
    }

    #[test]
    fn expiry_hands_leadership_to_the_member_that_heartbeats() {
        let mut sim = Sim::new(23);
        let coord = new_coord();
        let events = Rc::new(RefCell::new(Vec::new()));
        let out = Rc::clone(&events);
        coord.watch_group(
            "nn",
            Rc::new(move |_sim: &mut Sim, ev: GroupEvent| {
                out.borrow_mut().push(ev);
            }),
        );
        let a = coord.create_session(&mut sim);
        let b = coord.create_session(&mut sim);
        coord.join_group(&mut sim, a, "nn");
        coord.join_group(&mut sim, b, "nn");
        assert_eq!(coord.leader("nn"), Some(a));
        // Only b heartbeats: a expires and its Left event fires.
        for tick in 1..20 {
            let at = lambda_sim::SimTime::from_nanos(500_000_000 * tick);
            let c2 = coord.clone();
            sim.schedule_at(at, move |sim| c2.heartbeat(sim, b));
        }
        sim.run_until(lambda_sim::SimTime::from_secs(9));
        assert!(!coord.is_alive(a));
        assert!(coord.is_alive(b));
        assert_eq!(coord.leader("nn"), Some(b));
        assert_eq!(
            *events.borrow(),
            vec![GroupEvent::Joined(a), GroupEvent::Joined(b), GroupEvent::Left(a)]
        );
    }

    #[test]
    fn tear_down_drops_the_handlers_that_hold_the_coordinator() {
        let mut sim = Sim::new(9);
        let coord = new_coord();
        let a = coord.create_session(&mut sim);
        let b = coord.create_session(&mut sim);
        // Handlers that answer through the coordinator hold a handle to
        // it; `held` counts the handlers still alive.
        let held = Rc::new(());
        let (inbox_coord, inbox_held) = (coord.clone(), Rc::clone(&held));
        coord.register_inbox(
            b,
            Box::new(move |sim: &mut Sim, msg: String| {
                let _ = &inbox_held;
                inbox_coord.send(sim, b, a, msg);
            }),
        );
        let (watch_coord, watch_held) = (coord.clone(), Rc::clone(&held));
        coord.watch_group(
            "g",
            Rc::new(move |_sim: &mut Sim, _ev: GroupEvent| {
                let _ = (&watch_held, watch_coord.members("g"));
            }),
        );
        assert_eq!(Rc::strong_count(&held), 3);
        coord.send(&mut sim, a, b, "in flight".to_string());
        coord.tear_down();
        assert_eq!(Rc::strong_count(&held), 1, "every handler is dropped");
        coord.join_group(&mut sim, a, "g");
        sim.run_until(lambda_sim::SimTime::from_secs(1));
        assert_eq!(coord.message_stats(), (0, 1), "the in-flight message finds no inbox");
    }
}
