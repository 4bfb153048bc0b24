//! Model-based property test: the Coordinator's session/group state
//! machine against a flat reference model, driven by random operation
//! sequences.

use std::collections::{BTreeMap, BTreeSet};

use lambda_coord::{Coordinator, SessionId};
use lambda_sim::params::NetParams;
use lambda_sim::{Sim, SimDuration};
use proptest::prelude::*;

const GROUPS: [&str; 3] = ["nn-deployment-0", "nn-deployment-1", "nn-all"];

#[derive(Debug, Clone)]
enum Op {
    Create,
    Close(usize),
    Join(usize, usize),
    Leave(usize, usize),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            Just(Op::Create),
            (0..8usize).prop_map(Op::Close),
            (0..8usize, 0..GROUPS.len()).prop_map(|(s, g)| Op::Join(s, g)),
            (0..8usize, 0..GROUPS.len()).prop_map(|(s, g)| Op::Leave(s, g)),
        ],
        1..60,
    )
}

/// Reference model: sessions with their groups.
#[derive(Default)]
struct Model {
    alive: BTreeSet<SessionId>,
    groups: BTreeMap<&'static str, Vec<SessionId>>,
}

impl Model {
    fn close(&mut self, s: SessionId) {
        self.alive.remove(&s);
        for members in self.groups.values_mut() {
            members.retain(|m| *m != s);
        }
    }
}

fn check_model<M: Clone + 'static>(coord: &Coordinator<M>, model: &Model) {
    for group in GROUPS {
        let members = coord.members(group);
        let expect = model.groups.get(group).cloned().unwrap_or_default();
        assert_eq!(members, expect, "membership of {group} diverged");
        // The leader is the longest-lived (minimum-id) member.
        assert_eq!(coord.leader(group), expect.iter().min().copied());
    }
}

fn drive<M: Clone + 'static>(coord: Coordinator<M>, ops: Vec<Op>) {
    let mut sim = Sim::new(99);
    let mut sessions: Vec<SessionId> = Vec::new();
    let mut model = Model::default();
    for op in ops {
        match op {
            Op::Create => {
                let s = coord.create_session(&mut sim);
                sessions.push(s);
                model.alive.insert(s);
            }
            Op::Close(i) if !sessions.is_empty() => {
                let s = sessions[i % sessions.len()];
                coord.close_session(&mut sim, s);
                model.close(s);
            }
            Op::Join(i, g) if !sessions.is_empty() => {
                let s = sessions[i % sessions.len()];
                coord.join_group(&mut sim, s, GROUPS[g]);
                if model.alive.contains(&s) {
                    let members = model.groups.entry(GROUPS[g]).or_default();
                    if !members.contains(&s) {
                        members.push(s);
                    }
                }
            }
            Op::Leave(i, g) if !sessions.is_empty() => {
                let s = sessions[i % sessions.len()];
                coord.leave_group(&mut sim, s, GROUPS[g]);
                if let Some(members) = model.groups.get_mut(GROUPS[g]) {
                    members.retain(|m| *m != s);
                }
            }
            _ => {} // op on an empty session list
        }
        // Heartbeat everyone alive so timeouts never interfere, then let
        // in-flight notifications drain — bounded, so
        // the 60 s expiry timers never fire (`sim.run()` would drain all
        // the way to them).
        let live: Vec<SessionId> = model.alive.iter().copied().collect();
        for s in live {
            coord.heartbeat(&mut sim, s);
        }
        sim.run_for(SimDuration::from_secs(1));
        check_model(&coord, &model);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn zookeeper_transport_matches_the_model(ops in ops()) {
        let coord: Coordinator<String> =
            Coordinator::new(&NetParams::default(), SimDuration::from_secs(60));
        drive(coord, ops);
    }
}
