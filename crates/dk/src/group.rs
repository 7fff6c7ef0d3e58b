//! Control groups (slides 12, 19).
//!
//! Network-centric services organize redundant application instances
//! into *control groups*. Each member advertises a qualification
//! score; the best-qualified online member holds control. Liveness
//! follows roster membership, so every survivor makes the same
//! failover decision locally ("control passes to the best qualified
//! computer").

/// Identifier of a control group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u16);

/// One group member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Member {
    /// Hosting node.
    pub node: u8,
    /// Qualification score: higher is better. Ties break toward the
    /// lower node id (deterministic across all deciders).
    pub qualification: u32,
    /// Liveness, maintained from roster membership.
    pub online: bool,
}

/// A control group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlGroup {
    /// Group identity.
    pub id: GroupId,
    members: Vec<Member>,
}

/// Errors manipulating groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupError {
    /// Node already registered in the group.
    Duplicate(u8),
    /// Node is not a member.
    NotMember(u8),
    /// The group has no members, so nobody can hold control.
    Empty,
}

impl ControlGroup {
    /// An empty group.
    pub fn new(id: GroupId) -> Self {
        ControlGroup {
            id,
            members: vec![],
        }
    }

    /// Register a member (joins online).
    pub fn join(&mut self, node: u8, qualification: u32) -> Result<(), GroupError> {
        if self.members.iter().any(|m| m.node == node) {
            return Err(GroupError::Duplicate(node));
        }
        self.members.push(Member {
            node,
            qualification,
            online: true,
        });
        // Deterministic storage order.
        self.members.sort_by_key(|m| m.node);
        Ok(())
    }

    /// Remove a member entirely.
    pub fn leave(&mut self, node: u8) -> Result<(), GroupError> {
        let before = self.members.len();
        self.members.retain(|m| m.node != node);
        if self.members.len() == before {
            return Err(GroupError::NotMember(node));
        }
        Ok(())
    }

    /// Mark a member offline (roster said its node died).
    pub fn mark_offline(&mut self, node: u8) {
        for m in &mut self.members {
            if m.node == node {
                m.online = false;
            }
        }
    }

    /// Mark a member back online (node re-assimilated).
    pub fn mark_online(&mut self, node: u8) {
        for m in &mut self.members {
            if m.node == node {
                m.online = true;
            }
        }
    }

    /// All members (sorted by node id).
    pub fn members(&self) -> &[Member] {
        &self.members
    }

    /// The controlling member: best qualification among online
    /// members, ties to the lowest node id. `None` if nobody is online.
    pub fn leader(&self) -> Option<Member> {
        self.members
            .iter()
            .filter(|m| m.online)
            .copied()
            .max_by(|a, b| {
                a.qualification
                    .cmp(&b.qualification)
                    .then(b.node.cmp(&a.node)) // lower id wins ties
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group() -> ControlGroup {
        let mut g = ControlGroup::new(GroupId(7));
        g.join(2, 50).unwrap();
        g.join(5, 90).unwrap();
        g.join(9, 70).unwrap();
        g
    }

    #[test]
    fn leader_is_best_qualified() {
        let g = group();
        assert_eq!(g.leader().unwrap().node, 5);
    }

    #[test]
    fn failover_to_next_best() {
        let mut g = group();
        g.mark_offline(5);
        assert_eq!(g.leader().unwrap().node, 9, "70 beats 50");
        g.mark_offline(9);
        assert_eq!(g.leader().unwrap().node, 2);
        g.mark_offline(2);
        assert_eq!(g.leader(), None);
    }

    #[test]
    fn recovery_restores_leadership() {
        let mut g = group();
        g.mark_offline(5);
        assert_eq!(g.leader().unwrap().node, 9);
        g.mark_online(5);
        assert_eq!(g.leader().unwrap().node, 5, "best qualified returns");
    }

    #[test]
    fn ties_break_to_lower_node_id() {
        let mut g = ControlGroup::new(GroupId(1));
        g.join(8, 100).unwrap();
        g.join(3, 100).unwrap();
        assert_eq!(g.leader().unwrap().node, 3);
    }

    #[test]
    fn duplicate_join_rejected() {
        let mut g = group();
        assert_eq!(g.join(5, 10), Err(GroupError::Duplicate(5)));
    }

    #[test]
    fn leave_removes_member() {
        let mut g = group();
        g.leave(5).unwrap();
        assert_eq!(g.leader().unwrap().node, 9);
        assert_eq!(g.leave(5), Err(GroupError::NotMember(5)));
    }

    #[test]
    fn empty_group_has_no_leader() {
        let g = ControlGroup::new(GroupId(0));
        assert_eq!(g.leader(), None);
        assert!(g.members().is_empty());
    }
}
